"""Equivalence suite: batched subgraph induction == the per-row reference.

``induced_subgraph`` reads every out-row of the node set with one
``neighbor_edges_rows`` call and maps ids with ``searchsorted``.  The
reference below is the per-node loop it replaced: one ``neighbor_edges``
read and one ``np.isin`` per row, and a dict for local ids.  Every
``Subgraph`` field must match byte for byte on all three adjacency
surfaces:

* plain ``CSRAdjacency`` over 50 random graphs;
* ``DeltaAdjacency`` after seeded mutation streams, with tiering on and
  off, on node sets that span clean, promoted and unpromoted dirty rows;
* ``ShardedGraphView`` at 1, 2 and 3 shards, against the monolithic graph.

Plus counter parity: one ``neighbor_edges_rows`` call advances the shard
store's halo-fetch count and the overlay's read streaks and promotions
exactly as the same rows read one at a time do.
"""

import numpy as np
import pytest

from repro.graph import Graph, GraphUpdate, Subgraph, induced_subgraph
from repro.shard import ShardedGraphStore

FIELDS = ("nodes", "src", "dst", "rel", "node_features", "centers",
          "edge_weights", "rel_features")


def reference_induced_subgraph(graph, node_set, centers,
                               center_relation=None) -> Subgraph:
    """The per-node induction loop, kept as the bit-identity oracle."""
    node_set = np.asarray(node_set, dtype=np.int64)
    unique_nodes = np.unique(node_set)
    local_of = {int(g): i for i, g in enumerate(unique_nodes)}
    adj = graph.adjacency
    src_parts, dst_parts, rel_parts = [], [], []
    for u in unique_nodes:
        dsts, eids = adj.neighbor_edges(int(u))
        if dsts.size == 0:
            continue
        inside = np.isin(dsts, unique_nodes)
        if not inside.any():
            continue
        kept_dsts = dsts[inside]
        kept_eids = eids[inside]
        src_parts.append(np.full(kept_dsts.size, local_of[int(u)],
                                 dtype=np.int64))
        dst_parts.append(np.array([local_of[int(v)] for v in kept_dsts],
                                  dtype=np.int64))
        rel_parts.append(graph.rel[kept_eids])
    if src_parts:
        src_local = np.concatenate(src_parts)
        dst_local = np.concatenate(dst_parts)
        rel = np.concatenate(rel_parts)
    else:
        src_local = np.array([], dtype=np.int64)
        dst_local = np.array([], dtype=np.int64)
        rel = np.array([], dtype=np.int64)
    src_sym = np.concatenate([src_local, dst_local])
    dst_sym = np.concatenate([dst_local, src_local])
    rel_sym = np.concatenate([rel, rel])
    centers = np.asarray(centers, dtype=np.int64)
    try:
        centers_local = np.array([local_of[int(c)] for c in centers],
                                 dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"center node {exc} not inside the node set") from exc
    rel_features = None
    if graph.relation_features is not None:
        rel_features = graph.relation_features[rel_sym]
    return Subgraph(
        nodes=unique_nodes, src=src_sym, dst=dst_sym, rel=rel_sym,
        node_features=graph.node_features[unique_nodes],
        centers=centers_local, center_relation=center_relation,
        rel_features=rel_features)


def assert_identical(got: Subgraph, want: Subgraph, context) -> None:
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, (context, field)
            continue
        assert a.dtype == b.dtype, (context, field)
        assert a.shape == b.shape, (context, field)
        assert a.tobytes() == b.tobytes(), (context, field)
    assert got.center_relation == want.center_relation, context


def random_graph(trial: int, rel_features: bool | None = None) -> Graph:
    """Multigraph with self-loops and isolated nodes (the last two ids)."""
    r = np.random.default_rng(trial)
    n = int(r.integers(3, 120))
    m = int(r.integers(0, 5 * n))
    src = r.integers(0, n, size=m)
    dst = r.integers(0, n, size=m)
    if m >= 4:
        src[0], dst[0] = 1, 1                 # self-loop
        src[1], dst[1] = src[2], dst[2]       # parallel edge
    num_rel = int(r.integers(1, 5))
    if rel_features is None:
        rel_features = bool(trial % 2)
    return Graph(n + 2, src, dst, rel=r.integers(0, num_rel, size=m),
                 num_relations=num_rel,
                 node_features=r.normal(size=(n + 2, 3)),
                 relation_features=(r.normal(size=(num_rel, 2))
                                    if rel_features else None))


def node_sets(num_nodes: int, r: np.random.Generator):
    """One node, small and large sets with repeats, every node (reversed),
    and a set holding the two isolated nodes."""
    yield np.array([int(r.integers(num_nodes))])
    for size in (3, 12, 2 * num_nodes):
        yield r.integers(0, num_nodes, size=size)
    yield np.arange(num_nodes)[::-1]
    yield np.array([num_nodes - 1, num_nodes - 2, 0])


def check_induction(graph, ref, r: np.random.Generator, context) -> None:
    """``induced_subgraph(graph)`` == the oracle over ``ref``, same sets."""
    for i, node_set in enumerate(node_sets(ref.num_nodes, r)):
        unique = np.unique(node_set)
        centers = r.choice(unique, size=min(2, unique.size), replace=False)
        relation = int(r.integers(3)) if centers.size == 2 else None
        got = induced_subgraph(graph, node_set, centers, relation)
        want = reference_induced_subgraph(ref, node_set, centers, relation)
        assert_identical(got, want, (context, i))


def mutate(graph: Graph, r: np.random.Generator, steps: int) -> None:
    """Seeded update stream: adds (self-loops, parallels), removals, nodes."""
    for _ in range(steps):
        live = graph.live_edges()[3]
        k = int(r.integers(1, 8))
        add_src = r.integers(0, graph.num_nodes, size=k)
        add_dst = r.integers(0, graph.num_nodes, size=k)
        add_dst[0] = add_src[0]
        remove = (r.choice(live, size=min(3, live.size), replace=False)
                  if live.size else ())
        graph.apply_updates(GraphUpdate(
            add_src=add_src, add_dst=add_dst,
            add_rel=r.integers(0, graph.num_relations, size=k),
            remove_edges=remove,
            add_node_features=r.normal(size=(1, graph.feature_dim))))


def twin_mutated(trial: int, tier: bool) -> tuple[Graph, Graph]:
    """Two identically built and mutated graphs (seeded, same stream)."""
    twins = []
    for _ in range(2):
        graph = random_graph(trial)
        graph.tier_enabled = tier
        graph.adjacency  # build the overlay base before the first write
        mutate(graph, np.random.default_rng(500 + trial), 1 + trial % 4)
        twins.append(graph)
    return twins[0], twins[1]


def overlay_counters(graph: Graph) -> tuple:
    adj = graph.adjacency
    return (adj._reads.tobytes(), (adj._side_start >= 0).tobytes(),
            adj.overlay_stats()["promotions"])


class TestCSRInduction:
    @pytest.mark.parametrize("trial", range(50))
    def test_bit_identical_to_reference(self, trial):
        graph = random_graph(trial)
        check_induction(graph, graph, np.random.default_rng(trial), "csr")

    @pytest.mark.parametrize("rel_features", (False, True))
    def test_relation_features_present_and_absent(self, rel_features):
        graph = random_graph(7, rel_features=rel_features)
        sub = induced_subgraph(graph, np.arange(graph.num_nodes), [0])
        assert (sub.rel_features is not None) == rel_features
        assert_identical(sub, reference_induced_subgraph(
            graph, np.arange(graph.num_nodes), [0]), rel_features)

    def test_isolated_single_node(self):
        graph = random_graph(3)
        isolated = graph.num_nodes - 1
        sub = induced_subgraph(graph, [isolated], [isolated])
        assert sub.num_nodes == 1 and sub.num_edges == 0
        assert_identical(sub, reference_induced_subgraph(
            graph, [isolated], [isolated]), "isolated")

    def test_self_loops_and_multi_edges_kept(self):
        graph = Graph(3, np.array([0, 0, 0, 1, 2]), np.array([0, 1, 1, 1, 0]),
                      rel=np.array([0, 1, 2, 0, 1]))
        sub = induced_subgraph(graph, [0, 1], [1])
        # Directed edges 0->0, 0->1 (twice) and 1->1, each mirrored.
        assert sub.num_edges == 8
        assert_identical(sub, reference_induced_subgraph(graph, [0, 1], [1]),
                         "loops")

    @pytest.mark.parametrize("centers", ([5], [0, 5], [-1], [99]))
    def test_center_outside_the_set_raises(self, centers):
        graph = random_graph(11)
        with pytest.raises(ValueError, match="not inside the node set"):
            reference_induced_subgraph(graph, [0, 1, 2], centers)
        with pytest.raises(ValueError, match="not inside the node set"):
            induced_subgraph(graph, [0, 1, 2], centers)

    def test_empty_node_set(self):
        graph = random_graph(2)
        assert_identical(induced_subgraph(graph, [], []),
                         reference_induced_subgraph(graph, [], []), "empty")


class TestDeltaInduction:
    @pytest.mark.parametrize("tier", (True, False))
    @pytest.mark.parametrize("trial", range(20))
    def test_overlay_matches_reference_and_rebuild(self, trial, tier):
        """Batched over one twin == oracle over the other (so counters
        must stay in lockstep) == batched over a rebuild."""
        graph, twin = twin_mutated(trial, tier)
        rebuilt = graph.rebuild()
        r = np.random.default_rng(trial)
        for i, node_set in enumerate(node_sets(graph.num_nodes, r)):
            centers = np.unique(node_set)[:1]
            got = induced_subgraph(graph, node_set, centers)
            want = reference_induced_subgraph(twin, node_set, centers)
            assert_identical(got, want, (trial, tier, i))
            assert overlay_counters(graph) == overlay_counters(twin)
            assert_identical(got, induced_subgraph(rebuilt, node_set, centers),
                             (trial, tier, i, "rebuild"))

    @pytest.mark.parametrize("trial", range(10))
    def test_promoted_and_unpromoted_rows_in_one_call(self, trial):
        graph, twin = twin_mutated(trial, tier=True)
        dirty = np.flatnonzero(graph.adjacency._dirty)
        assert dirty.size >= 2
        for g in (graph, twin):
            for node in dirty[::2]:
                g.adjacency.neighbor_edges(int(node))
                g.adjacency.neighbor_edges(int(node))
        adj = graph.adjacency
        promoted = adj._side_start[dirty] >= 0
        assert promoted.any() and not promoted.all()
        clean = np.flatnonzero(~adj._dirty)[:5]
        node_set = np.concatenate([dirty, clean])
        centers = dirty[:1]
        assert_identical(induced_subgraph(graph, node_set, centers),
                         reference_induced_subgraph(twin, node_set, centers),
                         trial)
        assert overlay_counters(graph) == overlay_counters(twin)


class TestShardedInduction:
    @pytest.mark.parametrize("num_shards", (1, 2, 3))
    @pytest.mark.parametrize("trial", range(12))
    def test_sharded_matches_monolithic_reference(self, trial, num_shards):
        graph = random_graph(trial)
        if trial % 3 == 2:
            graph.adjacency  # the monolithic reference reads an overlay
            mutate(graph, np.random.default_rng(trial), 2)
        view = ShardedGraphStore.from_graph(graph, num_shards).view()
        check_induction(view, graph, np.random.default_rng(trial),
                        (trial, num_shards))


class TestCounterParity:
    @pytest.mark.parametrize("promote_after", (1, 2, 3))
    @pytest.mark.parametrize("trial", range(8))
    def test_overlay_reads_and_promotions(self, trial, promote_after):
        graph, twin = twin_mutated(trial, tier=True)
        r = np.random.default_rng(trial)
        for g in (graph, twin):
            g.adjacency.promote_after = promote_after
        dirty = np.flatnonzero(graph.adjacency._dirty)
        for _ in range(3):
            # Repeats included: a row may promote part-way through a call.
            rows = np.concatenate([
                r.choice(dirty, size=2 * dirty.size),
                r.integers(0, graph.num_nodes, size=8)])
            dst, eid, lens = graph.adjacency.neighbor_edges_rows(rows)
            parts = [twin.adjacency.neighbor_edges(int(u)) for u in rows]
            assert np.array_equal(lens, [p[0].size for p in parts])
            assert np.array_equal(dst, np.concatenate([p[0] for p in parts]))
            assert np.array_equal(eid, np.concatenate([p[1] for p in parts]))
            assert overlay_counters(graph) == overlay_counters(twin)

    @pytest.mark.parametrize("num_shards", (2, 3))
    @pytest.mark.parametrize("trial", range(6))
    def test_halo_fetches(self, trial, num_shards):
        graph = random_graph(trial)
        batched = ShardedGraphStore.from_graph(graph, num_shards)
        single = ShardedGraphStore.from_graph(graph, num_shards)
        rows = np.random.default_rng(trial).integers(
            0, graph.num_nodes, size=40)
        for home in range(num_shards):
            for store in (batched, single):
                store.reset_counters()
                store.home_shard = home
            dst, eid, lens = batched.neighbor_edges_rows(rows)
            parts = [single.neighbor_edges(int(u)) for u in rows]
            assert batched.halo_fetches == single.halo_fetches
            assert batched.halo_fetches == int(
                (batched.owner[rows] != home).sum())
            assert np.array_equal(lens, [p[0].size for p in parts])
            assert np.array_equal(dst, np.concatenate([p[0] for p in parts]))
            assert np.array_equal(eid, np.concatenate([p[1] for p in parts]))
