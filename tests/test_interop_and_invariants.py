"""networkx interop tests and model-level invariance property tests."""

import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphPrompterConfig, GraphPrompterModel
from repro.gnn import GATConv
from repro.graph import Graph, from_networkx, to_networkx
from repro.nn import Tensor


class TestFromNetworkx:
    def test_basic_conversion(self):
        g = nx.DiGraph()
        g.add_node("a", features=[1.0, 0.0], label=0)
        g.add_node("b", features=[0.0, 1.0], label=1)
        g.add_edge("a", "b", relation=2)
        graph = from_networkx(g)
        assert graph.num_nodes == 2
        assert graph.num_edges == 1
        assert graph.num_relations == 3
        np.testing.assert_array_equal(graph.node_labels, [0, 1])
        assert graph.nx_node_order == ["a", "b"]

    def test_missing_features_default_zero(self):
        g = nx.Graph()
        g.add_node(0, features=[1.0, 2.0, 3.0])
        g.add_node(1)  # no features
        g.add_edge(0, 1)
        graph = from_networkx(g)
        np.testing.assert_array_equal(graph.node_features[1], [0, 0, 0])

    def test_no_labels_anywhere(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        graph = from_networkx(g)
        assert graph.node_labels is None

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            from_networkx(nx.Graph())

    def test_arbitrary_node_ids(self):
        g = nx.Graph()
        g.add_edge(("tuple", 1), "string-node")
        graph = from_networkx(g)
        assert graph.num_nodes == 2

    def test_feature_dim_override(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        graph = from_networkx(g, feature_dim=7)
        assert graph.feature_dim == 7


class TestToNetworkx:
    def test_roundtrip_structure(self):
        graph = Graph(3, np.array([0, 1]), np.array([1, 2]),
                      rel=np.array([0, 1]), num_relations=2,
                      node_features=np.eye(3),
                      node_labels=np.array([0, 1, 0]))
        nx_graph = to_networkx(graph)
        assert nx_graph.number_of_nodes() == 3
        assert nx_graph.number_of_edges() == 2
        assert nx_graph.nodes[1]["label"] == 1
        back = from_networkx(nx_graph)
        assert back.num_nodes == 3
        assert back.num_edges == 2
        np.testing.assert_array_equal(np.sort(back.rel), np.sort(graph.rel))

    def test_networkx_algorithms_apply(self):
        """The export is usable with the networkx algorithm zoo."""
        graph = Graph(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                      node_features=np.eye(4))
        nx_graph = to_networkx(graph)
        undirected = nx_graph.to_undirected()
        assert nx.number_connected_components(undirected) == 1
        assert nx.has_path(undirected, 0, 3)


def test_import_repro_does_not_load_networkx():
    """networkx is loaded by the converters on demand, never at import."""
    src_root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


class TestGATMultiHead:
    def test_output_shape(self):
        conv = GATConv(6, 8, num_heads=2)
        h = Tensor(np.random.default_rng(0).normal(size=(5, 6)))
        out = conv(h, np.array([0, 1, 2]), np.array([1, 2, 0]), 5)
        assert out.shape == (5, 8)

    def test_invalid_head_count(self):
        with pytest.raises(ValueError):
            GATConv(6, 8, num_heads=3)
        with pytest.raises(ValueError):
            GATConv(6, 8, num_heads=0)

    def test_heads_gradient_flow(self):
        # identity activation so the final ReLU cannot mask either head.
        conv = GATConv(4, 4, num_heads=2, activation="identity")
        h = Tensor(np.random.default_rng(1).normal(size=(3, 4)),
                   requires_grad=True)
        out = conv(h, np.array([0, 1]), np.array([2, 2]), 3)
        out.sum().backward()
        assert conv.attn_src.grad is not None
        assert np.any(conv.attn_src.grad[0] != 0)
        assert np.any(conv.attn_src.grad[1] != 0)


def _episode_logits(model, prompt_emb, labels, query_emb, ways):
    return model.task_logits(Tensor(prompt_emb), labels, Tensor(query_emb),
                             ways).data


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_property_prompt_permutation_invariance(seed):
    """Task-graph logits are invariant to the order of the prompts.

    Label aggregation (scatter-mean) and attention (segment softmax) are
    both permutation-invariant, so shuffling the prompt set must not change
    any query's logits.
    """
    rng = np.random.default_rng(seed)
    model = GraphPrompterModel(8, 1, GraphPrompterConfig(hidden_dim=10))
    prompt_emb = rng.normal(size=(9, 10))
    labels = np.repeat(np.arange(3), 3)
    query_emb = rng.normal(size=(4, 10))
    base = _episode_logits(model, prompt_emb, labels, query_emb, 3)
    perm = rng.permutation(9)
    shuffled = _episode_logits(model, prompt_emb[perm], labels[perm],
                               query_emb, 3)
    np.testing.assert_allclose(base, shuffled, rtol=1e-8, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_property_prompt_duplication_invariance(seed):
    """Duplicating every prompt leaves the logits unchanged.

    Centroids are unchanged by duplication and attention redistributes
    uniformly over identical incoming messages.
    """
    rng = np.random.default_rng(seed)
    model = GraphPrompterModel(8, 1, GraphPrompterConfig(hidden_dim=10))
    prompt_emb = rng.normal(size=(6, 10))
    labels = np.repeat(np.arange(2), 3)
    query_emb = rng.normal(size=(3, 10))
    base = _episode_logits(model, prompt_emb, labels, query_emb, 2)
    doubled = _episode_logits(
        model,
        np.concatenate([prompt_emb, prompt_emb]),
        np.concatenate([labels, labels]),
        query_emb, 2)
    np.testing.assert_allclose(base, doubled, rtol=1e-8, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=999),
    scale=st.floats(min_value=0.5, max_value=20.0),
)
def test_property_query_scale_invariance(seed, scale):
    """Cosine-based prediction is invariant to positive query scaling."""
    rng = np.random.default_rng(seed)
    model = GraphPrompterModel(8, 1, GraphPrompterConfig(hidden_dim=10))
    prompt_emb = rng.normal(size=(6, 10))
    labels = np.repeat(np.arange(2), 3)
    query_emb = rng.normal(size=(3, 10))
    base = _episode_logits(model, prompt_emb, labels, query_emb, 2)
    scaled = _episode_logits(model, prompt_emb, labels, query_emb * scale, 2)
    # argmax-invariance is the behavioural guarantee (LayerNorm keeps the
    # geometry but not the exact values).
    np.testing.assert_array_equal(base.argmax(axis=1), scaled.argmax(axis=1))
