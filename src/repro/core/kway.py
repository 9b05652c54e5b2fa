"""k-way partitioning by recursive bisection (§2).

"The k-way partition problem is most frequently solved by recursive
bisection … After log k phases, graph G is partitioned into k parts."  For
non-power-of-two ``k`` the split targets ⌈k/2⌉ : ⌊k/2⌋ of the vertex
weight, so every leaf ends up with ≈ 1/k of the total — the same device
METIS uses.

The recursion extracts induced subgraphs (boundary edges between already
separated parts can never be un-cut, so dropping them is exact).  It runs
on the shared divide-and-conquer engine, :func:`repro.core.recursion.walk`,
which also drives nested dissection: the engine owns the traversal, the
per-node RNG streams, deadline degradation and the supervised
``workers=N`` fan-out (bit-identical to ``workers=1``).  This module
supplies only the k-way steps: the base cases, the bisection at
⌈k/2⌉ : ⌊k/2⌋ with the top-up of a too-small side, the
``SpectralConvergenceError`` fallback of a caller-supplied bisector, the
weight-contiguous assignment of a subtree once the deadline has expired,
and the ``kway.branch`` spans.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.initial import split_at_weighted_median
from repro.core.multilevel import bisect
from repro.core.options import DEFAULT_OPTIONS
from repro.core.recursion import Node, Run, Tree, walk
from repro.graph.components import extract_subgraph
from repro.graph.partition import KWayPartition, edge_cut, part_weights
from repro.obs.tracer import resolve_tracer
from repro.resilience.deadline import DeadlineGuard
from repro.resilience.faults import fault_injector
from repro.resilience.report import ResilienceReport
from repro.utils.errors import (
    DeadlineExceededError,
    PartitionError,
    SpectralConvergenceError,
)
from repro.utils.rng import as_generator, spawn_child
from repro.utils.timing import PhaseTimer


def partition(
    graph,
    nparts: int,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    bisector=None,
) -> KWayPartition:
    """Partition ``graph`` into ``nparts`` parts of roughly equal weight.

    Parameters
    ----------
    graph:
        The graph to partition.
    nparts:
        Number of parts ``k ≥ 1``.
    options:
        Multilevel configuration used for every bisection.
    bisector:
        Optional override: a callable ``(graph, options, rng, target0) →
        MultilevelResult``-like object with a ``bisection`` attribute and a
        ``timers`` :class:`PhaseTimer`.  The spectral baselines plug in
        here so Figures 1–4 compare k-way against k-way.

    Returns
    -------
    repro.graph.partition.KWayPartition
        With ``timers`` carrying the accumulated CTime/ITime/RTime/PTime
        and ``resilience`` holding the run's
        :class:`~repro.resilience.report.ResilienceReport`.  Unlike
        :func:`~repro.core.multilevel.bisect`, an expired deadline never
        raises here: the remaining subproblems degrade to weight-contiguous
        assignment and the partition completes.
    """
    if nparts < 1:
        raise PartitionError(f"nparts must be >= 1, got {nparts}")
    if nparts > graph.nvtxs:
        raise PartitionError(
            f"cannot cut {graph.nvtxs} vertices into {nparts} parts"
        )
    rng = as_generator(rng if rng is not None else options.seed)
    # Imbalance compounds multiplicatively down the ⌈log₂ k⌉ bisection
    # levels, so give each level the root of the overall tolerance.
    depth = max(1, int(np.ceil(np.log2(nparts)))) if nparts > 1 else 1
    options = options.with_(ubfactor=float(options.ubfactor) ** (1.0 / depth))
    timers = PhaseTimer()
    faults = fault_injector(options)
    report = ResilienceReport()
    guard = None
    if options.deadline is not None:
        guard = DeadlineGuard(options.deadline, timer=timers)
    trc, owned_trace = resolve_tracer(
        None, options, run="partition",
        nvtxs=graph.nvtxs, nedges=graph.nedges, nparts=nparts,
    )
    tree = Tree(
        options, np.int32, partial(_leaf), partial(_degrade),
        partial(_split, options=options, bisector=bisector),
        shippable=bisector is None,
    )
    try:
        with trc.span("partition", nparts=nparts) as root:
            run = Run(timers, report, faults, guard, trc, root)
            where = walk(tree, graph, (nparts, 0), rng, run)
            result = KWayPartition(
                where=where,
                nparts=nparts,
                cut=edge_cut(graph, where),
                pwgts=part_weights(graph, where, nparts),
            )
            if root:
                root.set(cut=int(result.cut))
        result.timers = timers.totals()
        result.resilience = report
        return result
    finally:
        if owned_trace:
            trc.close()


def _assign_by_weight(graph, k) -> np.ndarray:
    """Deadline-degraded k-way assignment: contiguous vertex-id ranges of
    roughly equal weight — O(n), no bisections, never fails."""
    total = max(int(graph.total_vwgt()), 1)
    cum = np.cumsum(graph.vwgt) - graph.vwgt  # exclusive prefix weights
    part = (cum * k) // total
    return np.minimum(part, k - 1).astype(np.int32)


def _leaf(run, out, node):
    """Base cases: one part, or one vertex per part (k = n)."""
    k, first_part = node.key
    if k == 1:
        out[node.vmap] = first_part
    elif k == node.graph.nvtxs:
        out[node.vmap] = first_part + np.arange(k, dtype=np.int32)
    else:
        return False
    return True


def _degrade(run, out, node):
    """Budget gone: finish this whole subtree with the cheap assignment."""
    k, first_part = node.key
    out[node.vmap] = first_part + _assign_by_weight(node.graph, k)
    run.report.record(
        "degradation",
        "kway",
        f"deadline expired; weight-contiguous assignment of parts "
        f"{first_part}..{first_part + k - 1}",
    )


def _split(run, out, node, streams, *, options, bisector):
    """Bisect ``node`` into ⌈k/2⌉ and ⌊k/2⌋ parts' worth of weight."""
    graph = node.graph
    k, first_part = node.key
    k_left = (k + 1) // 2
    target0 = (graph.total_vwgt() * k_left) // k
    child_rng = next(streams)
    try:
        if bisector is None:
            result = bisect(graph, options, child_rng, target0=target0,
                            faults=run.faults, report=run.report,
                            guard=run.guard, tracer=run.trc)
        else:
            try:
                result = bisector(graph, options, child_rng, target0)
            except SpectralConvergenceError as exc:
                run.report.record(
                    "fallback",
                    "kway",
                    f"bisector failed ({exc}); multilevel bisection fallback",
                )
                result = bisect(graph, options, spawn_child(child_rng),
                                target0=target0, faults=run.faults,
                                report=run.report, guard=run.guard,
                                tracer=run.trc)
        run.timers.merge(result.timers)
        side = np.asarray(result.bisection.where).copy()
    except DeadlineExceededError as exc:
        run.report.record(
            "degradation",
            "kway",
            "deadline expired mid-bisection; continuing from "
            + ("best-so-far split" if exc.best is not None
               else "weighted-median split"),
        )
        if exc.best is not None:
            side = np.asarray(exc.best.where).copy()
        else:
            side = np.asarray(
                split_at_weighted_median(graph, np.arange(graph.nvtxs), target0).where
            ).copy()

    # Each side must hold at least as many vertices as parts it will be
    # split into; top up a too-small side from the other (k close to n).
    k_right = k - k_left
    for needy, donor_label, needed in ((0, 1, k_left), (1, 0, k_right)):
        ids = np.flatnonzero(side == needy)
        if len(ids) < needed:
            donors = np.flatnonzero(side == donor_label)
            take = needed - len(ids)
            side[donors[:take]] = needy

    left = np.flatnonzero(side == 0).astype(np.int64)
    right = np.flatnonzero(side == 1).astype(np.int64)
    if len(left) == 0 or len(right) == 0:
        raise PartitionError("bisection produced an empty side")

    sub_left, _ = extract_subgraph(graph, left)
    sub_right, _ = extract_subgraph(graph, right)
    return [
        Node(sub_left, node.vmap[left], (k_left, first_part), node.depth + 1,
             run.trc.span("kway.branch", side=0, k=k_left, nvtxs=len(left),
                          depth=node.depth)),
        Node(sub_right, node.vmap[right], (k_right, first_part + k_left),
             node.depth + 1,
             run.trc.span("kway.branch", side=1, k=k_right, nvtxs=len(right),
                          depth=node.depth)),
    ]
