"""Tests for connected components and subgraph extraction."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    connected_components,
    extract_subgraph,
    from_edge_list,
    is_connected,
    largest_component,
    num_components,
)
from tests.conftest import path_graph, two_triangles


class TestComponents:
    def test_connected_path(self):
        g = path_graph(6)
        assert num_components(g) == 1
        assert is_connected(g)
        assert np.all(connected_components(g) == 0)

    def test_two_triangles(self):
        g = two_triangles()
        comp = connected_components(g)
        assert num_components(g) == 2
        assert comp[0] == comp[1] == comp[2] == 0
        assert comp[3] == comp[4] == comp[5] == 1

    def test_isolated_vertices(self):
        g = from_edge_list(4, [(0, 1)])
        assert num_components(g) == 3

    def test_empty_graph(self):
        g = from_edge_list(0, [])
        assert num_components(g) == 0
        assert is_connected(g)  # vacuously

    def test_component_ids_in_discovery_order(self):
        g = from_edge_list(4, [(2, 3)])
        comp = connected_components(g)
        assert comp[0] == 0 and comp[1] == 1 and comp[2] == comp[3] == 2

    def test_deep_path_no_recursion_error(self):
        g = path_graph(20000)
        assert is_connected(g)


class TestExtractSubgraph:
    def test_induced_edges_only(self):
        g = path_graph(5)
        sub, vmap = extract_subgraph(g, np.array([0, 1, 3]))
        assert sub.nvtxs == 3
        assert sub.nedges == 1  # only (0,1); 3 is isolated in the subgraph
        assert vmap.tolist() == [0, 1, 3]

    def test_weights_inherited(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], [7, 8], vwgt=[1, 2, 3])
        sub, _ = extract_subgraph(g, np.array([1, 2]))
        assert sub.vwgt.tolist() == [2, 3]
        assert sub.edge_weight(0, 1) == 8

    def test_order_of_vertices_defines_renumbering(self):
        g = path_graph(3)
        sub, vmap = extract_subgraph(g, np.array([2, 1]))
        assert vmap.tolist() == [2, 1]
        assert sub.has_edge(0, 1)  # old (1,2) renumbered

    def test_coords_sliced(self):
        g = path_graph(3)
        g.coords = np.array([[0.0, 0], [1, 0], [2, 0]])
        sub, _ = extract_subgraph(g, np.array([2, 0]))
        assert np.array_equal(sub.coords, np.array([[2.0, 0], [0, 0]]))

    def test_empty_selection(self):
        g = path_graph(3)
        sub, vmap = extract_subgraph(g, np.array([], dtype=np.int64))
        assert sub.nvtxs == 0
        assert len(vmap) == 0

    def test_full_selection_is_identity(self):
        g = path_graph(4)
        sub, _ = extract_subgraph(g, np.arange(4))
        assert sub.sorted_adjacency() == g.sorted_adjacency()


class TestLargestComponent:
    def test_picks_largest(self):
        # Triangle + single edge.
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        sub, vmap = largest_component(g)
        assert sub.nvtxs == 3
        assert sorted(vmap.tolist()) == [0, 1, 2]

    def test_already_connected(self):
        g = path_graph(4)
        sub, vmap = largest_component(g)
        assert sub.nvtxs == 4
        assert sub.sorted_adjacency() == g.sorted_adjacency()


# --------------------------------------------------------------------------
# Reference oracles: the per-vertex loops the numpy kernels replaced.
# --------------------------------------------------------------------------


def loop_connected_components(graph):
    """Iterative BFS labelling, components numbered in discovery order."""
    n = graph.nvtxs
    comp = np.full(n, -1, dtype=np.int32)
    xadj, adjncy = graph.xadj, graph.adjncy
    current = 0
    stack = np.empty(n, dtype=np.int64)
    for root in range(n):
        if comp[root] != -1:
            continue
        comp[root] = current
        stack[0] = root
        top = 1
        while top:
            top -= 1
            v = stack[top]
            for u in adjncy[xadj[v] : xadj[v + 1]]:
                if comp[u] == -1:
                    comp[u] = current
                    stack[top] = u
                    top += 1
        current += 1
    return comp


def loop_extract_subgraph(graph, vertices):
    """Induced subgraph built one kept vertex's adjacency at a time."""
    vertices = np.asarray(vertices, dtype=np.int64)
    local = np.full(graph.nvtxs, -1, dtype=np.int64)
    local[vertices] = np.arange(len(vertices), dtype=np.int64)
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    sub_xadj = np.zeros(len(vertices) + 1, dtype=np.int64)
    chunks_n = []
    chunks_w = []
    for i, v in enumerate(vertices):
        s, e = xadj[v], xadj[v + 1]
        nbrs = local[adjncy[s:e]]
        keep = nbrs >= 0
        chunks_n.append(nbrs[keep])
        chunks_w.append(adjwgt[s:e][keep])
        sub_xadj[i + 1] = sub_xadj[i] + int(keep.sum())
    sub_adjncy = (
        np.concatenate(chunks_n).astype(np.int32)
        if chunks_n
        else np.empty(0, dtype=np.int32)
    )
    sub_adjwgt = (
        np.concatenate(chunks_w) if chunks_w else np.empty(0, dtype=np.int64)
    )
    sub = CSRGraph(
        sub_xadj, sub_adjncy, sub_adjwgt, graph.vwgt[vertices].copy(),
        validate=False,
    )
    if graph.coords is not None:
        sub.coords = graph.coords[vertices].copy()
    return sub, vertices


def _assert_same_array(ours, ref):
    assert ours.dtype == ref.dtype
    assert ours.shape == ref.shape
    assert np.array_equal(ours, ref)


def _assert_same_subgraph(ours, ref):
    (sub, vmap), (ref_sub, ref_vmap) = ours, ref
    for name in ("xadj", "adjncy", "adjwgt", "vwgt"):
        _assert_same_array(getattr(sub, name), getattr(ref_sub, name))
    _assert_same_array(vmap, ref_vmap)
    if ref_sub.coords is None:
        assert sub.coords is None
    else:
        _assert_same_array(sub.coords, ref_sub.coords)


@st.composite
def oracle_cases(draw):
    """A graph (possibly disconnected, with isolated vertices, unsorted
    adjacency rows, coordinates and weights near 2**53) and a vertex set
    (empty, full, or an unsorted subset)."""
    n = draw(st.integers(0, 30))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=40)
    ) if pairs else []
    big = st.integers(2**53 - 64, 2**53)
    weight = st.one_of(st.integers(1, 9), big)
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    vwgt = draw(st.lists(weight, min_size=n, max_size=n))
    g = from_edge_list(n, edges, weights or None, vwgt=vwgt)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Shuffle within each adjacency row: no kernel may assume sorted rows.
        order = np.lexsort((rng.random(len(g.adjncy)), g.edge_sources()))
        g = CSRGraph(g.xadj, g.adjncy[order], g.adjwgt[order], g.vwgt)
    if draw(st.booleans()):
        g.coords = rng.random((n, 2))
    kind = draw(st.sampled_from(["empty", "full", "subset"]))
    if kind == "empty":
        vertices = np.empty(0, dtype=np.int64)
    elif kind == "full":
        vertices = np.arange(n)
    else:
        vertices = rng.permutation(n)[: draw(st.integers(0, n))]
    return g, vertices


class TestAgainstLoopOracle:
    """The numpy kernels equal the loop references: values and dtypes."""

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(oracle_cases())
    def test_extract_and_components_match(self, case):
        g, vertices = case
        _assert_same_array(
            connected_components(g), loop_connected_components(g)
        )
        ours = extract_subgraph(g, vertices)
        _assert_same_subgraph(ours, loop_extract_subgraph(g, vertices))
        _assert_same_array(
            connected_components(ours[0]),
            loop_connected_components(ours[0]),
        )

    def test_long_path(self):
        """10^5-vertex path with scrambled ids: no recursion or iteration
        blow-up, and the labels and a half extraction match the loops."""
        n = 100_000
        ids = np.random.default_rng(0).permutation(n)
        g = from_edge_list(n, np.column_stack([ids[:-1], ids[1:]]))
        _assert_same_array(
            connected_components(g), loop_connected_components(g)
        )
        half = np.flatnonzero(ids < n // 2)
        _assert_same_subgraph(
            extract_subgraph(g, half), loop_extract_subgraph(g, half)
        )
