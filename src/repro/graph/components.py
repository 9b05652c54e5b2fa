"""Connected components and subgraph extraction.

Recursive bisection and nested dissection repeatedly carve subgraphs out of
a parent graph; :func:`extract_subgraph` is the shared kernel for that, and
:func:`connected_components` supports both the generators (which guarantee
connected outputs) and the partitioners (GGP/GGGP need a starting vertex per
component) and nested dissection (which splits a node into its components).
Both are numpy-only, with no per-vertex Python loop; their outputs, dtypes
included, equal those of the BFS and gather loops the tests keep as oracle.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, INDEX_DTYPE


def connected_components(graph) -> np.ndarray:
    """Label vertices by connected component.

    Returns an int32 array ``comp`` with ``comp[v]`` in ``[0, ncomp)``;
    component ids are assigned in order of discovery (lowest vertex id
    first), i.e. by each component's smallest vertex.

    Min-label hooking with pointer jumping: each tree root adopts the
    smallest root across its edges, then every tree is compressed to a
    star.  ``root[v] <= v`` throughout, so trees stay acyclic and end
    rooted at their component's smallest vertex.  A root that neither
    hooks nor absorbs a tree in a round hooks in the next, so the tree
    count halves every two rounds: O(log n) rounds, even on paths.
    """
    root = np.arange(graph.nvtxs, dtype=np.int64)
    src, dst = graph.edge_sources(), graph.adjncy
    while True:
        rs, rd = root[src], root[dst]
        cross = rs < rd
        if not cross.any():
            break
        np.minimum.at(root, rd[cross], rs[cross])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # Number the components by their smallest vertex (the roots).
    ids = np.cumsum(root == np.arange(len(root)), dtype=np.int32) - 1
    return ids[root]


def num_components(graph) -> int:
    """Number of connected components."""
    if graph.nvtxs == 0:
        return 0
    return int(connected_components(graph).max()) + 1


def is_connected(graph) -> bool:
    """True when the graph has exactly one connected component."""
    return num_components(graph) <= 1


def extract_subgraph(graph, vertices):
    """Induced subgraph on ``vertices``.

    Parameters
    ----------
    graph:
        The parent :class:`CSRGraph`.
    vertices:
        Array of vertex ids (need not be sorted; must be unique).

    Returns
    -------
    (sub, vmap):
        ``sub`` is the induced subgraph with vertices renumbered
        ``0..len(vertices)-1`` in the order given; ``vmap`` is the input
        array (so ``vmap[i]`` is the parent id of subgraph vertex ``i``).
        Edge and vertex weights are inherited; coordinates, if present, are
        sliced through.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    local = np.full(graph.nvtxs, -1, dtype=INDEX_DTYPE)
    local[vertices] = np.arange(len(vertices), dtype=INDEX_DTYPE)
    # Gather every kept vertex's edge range, rows in the order given.
    starts = graph.xadj[vertices]
    counts = graph.xadj[vertices + 1] - starts
    bounds = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    pos = np.arange(bounds[-1], dtype=np.int64)
    pos += np.repeat(starts - bounds[:-1], counts)
    # Keep only in-subgraph targets; a row's kept count is the running
    # count of kept entries sampled at the row bounds.
    nbrs = local[graph.adjncy[pos]]
    keep = nbrs >= 0
    kept = np.zeros(len(pos) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    sub = CSRGraph(
        kept[bounds],
        nbrs[keep],
        graph.adjwgt[pos[keep]],
        graph.vwgt[vertices],
        validate=False,
    )
    if graph.coords is not None:
        sub.coords = graph.coords[vertices]
    return sub, vertices


def largest_component(graph):
    """Induced subgraph on the largest connected component.

    Returns ``(sub, vmap)`` as in :func:`extract_subgraph`.  Generators use
    this to guarantee connected benchmark graphs, as the paper's matrices
    are (pattern-)connected.
    """
    comp = connected_components(graph)
    if graph.nvtxs == 0:
        return graph, np.empty(0, dtype=np.int64)
    sizes = np.bincount(comp)
    keep = np.flatnonzero(comp == sizes.argmax()).astype(np.int64)
    return extract_subgraph(graph, keep)
