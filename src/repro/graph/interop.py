"""networkx interoperability for the :class:`~repro.graph.graph.Graph`.

Downstream users usually hold their graphs as ``networkx`` objects; these
converters bridge them into the library (and back for inspection with the
networkx algorithm zoo).  networkx is imported only inside
:func:`to_networkx`, so importing the library never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["from_networkx", "to_networkx"]


def from_networkx(
    nx_graph: "nx.Graph | nx.DiGraph | nx.MultiDiGraph",
    feature_attr: str = "features",
    label_attr: str = "label",
    relation_attr: str = "relation",
    feature_dim: int | None = None,
    name: str | None = None,
) -> Graph:
    """Convert a networkx graph into a :class:`Graph`.

    Node features are read from ``feature_attr`` (array-like per node;
    nodes missing the attribute get zeros), integer node labels from
    ``label_attr`` (used only when at least one node has it), and integer
    edge relation types from ``relation_attr`` (default 0).  Node ids may
    be arbitrary hashables; they are re-indexed densely in iteration order
    and the mapping is stored in ``graph.nx_node_order``.
    """
    nodes = list(nx_graph.nodes())
    if not nodes:
        raise ValueError("cannot convert an empty networkx graph")
    index_of = {node: i for i, node in enumerate(nodes)}

    # Features: infer dimension from the first node that has them.
    inferred_dim = feature_dim
    for node in nodes:
        value = nx_graph.nodes[node].get(feature_attr)
        if value is not None:
            inferred_dim = inferred_dim or len(np.atleast_1d(value))
            break
    inferred_dim = inferred_dim or 1
    features = np.zeros((len(nodes), inferred_dim))
    for node in nodes:
        value = nx_graph.nodes[node].get(feature_attr)
        if value is not None:
            features[index_of[node]] = np.asarray(value, dtype=np.float64)

    # Labels: only when present somewhere.
    has_labels = any(label_attr in nx_graph.nodes[node] for node in nodes)
    labels = None
    if has_labels:
        labels = np.zeros(len(nodes), dtype=np.int64)
        for node in nodes:
            labels[index_of[node]] = int(
                nx_graph.nodes[node].get(label_attr, 0))

    src, dst, rel = [], [], []
    for edge in nx_graph.edges(data=True):
        u, v, attrs = edge
        src.append(index_of[u])
        dst.append(index_of[v])
        rel.append(int(attrs.get(relation_attr, 0)))

    graph = Graph(
        len(nodes),
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        rel=np.asarray(rel, dtype=np.int64),
        node_features=features,
        node_labels=labels,
        name=name or getattr(nx_graph, "name", None) or "networkx-import",
    )
    graph.nx_node_order = nodes
    return graph


def to_networkx(graph: Graph) -> "nx.MultiDiGraph":
    """Convert a :class:`Graph` to a ``networkx.MultiDiGraph``.

    Node features/labels and edge relations are attached as attributes, so
    the full networkx algorithm suite (components, centralities, …) can be
    used for inspection.
    """
    import networkx as nx

    out = nx.MultiDiGraph(name=graph.name)
    for i in range(graph.num_nodes):
        attrs = {"features": graph.node_features[i]}
        if graph.node_labels is not None:
            attrs["label"] = int(graph.node_labels[i])
        out.add_node(i, **attrs)
    src, dst, rel, _ = graph.live_edges()
    for u, v, r in zip(src.tolist(), dst.tolist(), rel.tolist()):
        out.add_edge(u, v, relation=r)
    return out
