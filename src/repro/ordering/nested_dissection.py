"""Nested dissection orderings: MLND (the paper's) and the generic driver.

"Nested dissection recursively splits a graph into almost equal halves by
selecting a vertex separator … The vertices of the graph are numbered such
that at each level of recursion, the separator vertices are numbered after
the vertices in the partitions." (§2)

The driver is parametric in the bisection routine, so the paper's MLND
(multilevel bisection + minimum-vertex-cover separator) and the SND
baseline (spectral bisection + the same separator construction) share all
of the recursion, numbering and leaf handling:

* separators are numbered **last** within their range, recursively;
* recursion stops at ``leaf_size`` vertices; leaves are ordered by MMD,
  the standard practice (and what METIS does) — on tiny subgraphs minimum
  degree is excellent and dissection overhead is pure loss;
* disconnected subgraphs are split into components first (a component
  boundary is a free separator of size zero).

The dissection runs on the divide-and-conquer engine it shares with k-way
partitioning, :func:`repro.core.recursion.walk`, which owns the traversal,
the per-node RNG streams, deadline degradation and the supervised
``workers=N`` fan-out (bit-identical to ``workers=1``; only MLND's
multilevel bisector can be shipped to pool workers — a caller's bisector
closure keeps the walk in-process).  This module supplies the ordering
steps: the component split, the separator with its node-FM refinement, the
MMD leaf and the MMD fallbacks, and the ``nd.*`` trace events.  Each node
writes the elimination positions of the vertices it settles, so the walk
returns the inverse permutation.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.sanitize import sanitizer
from repro.core.multilevel import bisect as ml_bisect
from repro.core.options import DEFAULT_OPTIONS
from repro.core.recursion import Node, Run, Tree, walk
from repro.graph.components import connected_components, extract_subgraph
from repro.obs.tracer import resolve_tracer
from repro.ordering.base import Ordering
from repro.ordering.mmd import mmd_ordering
from repro.ordering.vertex_cover import vertex_separator_from_bisection
from repro.resilience.deadline import DeadlineGuard
from repro.resilience.faults import fault_injector
from repro.resilience.report import ResilienceReport
from repro.utils.errors import DeadlineExceededError, ReproError, SanitizerError
from repro.utils.rng import as_generator
from repro.utils.timing import PhaseTimer


def mlnd_ordering(
    graph,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    leaf_size: int = 120,
    refine_separator: bool = True,
) -> Ordering:
    """Multilevel nested dissection (MLND) — the paper's ordering algorithm.

    Uses the multilevel bisector (HEM + GGGP + BKLGR by default) for the
    edge separator at every level and minimum vertex cover for the vertex
    separator.  One fault injector, resilience report and deadline guard
    span the whole dissection; the report lands in
    ``ordering.meta["resilience"]``.
    """
    return nested_dissection_ordering(
        graph, None, rng if rng is not None else options.seed,
        leaf_size=leaf_size, method="mlnd",
        refine_separator=refine_separator, options=options,
    )


def nested_dissection_ordering(
    graph,
    bisector=None,
    rng=None,
    *,
    leaf_size: int = 120,
    method: str = "nd",
    refine_separator: bool = True,
    options=None,
    report=None,
    guard=None,
    tracer=None,
) -> Ordering:
    """Generic nested-dissection driver.

    Parameters
    ----------
    bisector:
        Callable ``(subgraph, rng) → where`` returning a 0/1 assignment, or
        ``None`` for the multilevel bisector configured by ``options``
        (MLND).  Only ``None`` lets independent subtrees fan out across
        pool workers (``options.workers`` / ``REPRO_WORKERS``); a closure
        cannot be shipped, so it always runs in-process.
    leaf_size:
        Subgraphs at or below this size are ordered with MMD.
    refine_separator:
        Shrink each minimum-vertex-cover separator further with greedy
        node-FM refinement (see :mod:`repro.ordering.separator_refine`)
        before recursing — what the released METIS does.
    options:
        :class:`~repro.core.options.MultilevelOptions` (default
        :data:`~repro.core.options.DEFAULT_OPTIONS`): the multilevel
        bisector's configuration, ``deadline``, ``faults``, ``workers`` and
        worker supervision, and ``sanitize`` — when set (or
        ``REPRO_SANITIZE=1``) every separator is checked to actually
        separate its subgraph.
    report:
        Optional :class:`~repro.resilience.report.ResilienceReport`; a
        fresh one is created otherwise.  Attached to the result as
        ``ordering.meta["resilience"]``.  A subgraph whose bisector raises
        a :class:`~repro.utils.errors.ReproError` is ordered with MMD
        instead (recorded as a fallback); sanitizer failures still
        propagate — they mean the pipeline is broken, not the input.
    guard:
        Optional :class:`~repro.resilience.deadline.DeadlineGuard`
        (default: one armed with ``options.deadline``, if set); once it
        expires, every remaining subgraph is ordered with MMD (recorded as
        a degradation) — dissection never raises on deadline.
    tracer:
        Optional threaded :class:`~repro.obs.tracer.Tracer` (default:
        ``options.trace`` / ``REPRO_TRACE``).  The dissection runs inside
        one ``dissect`` span carrying ``nd.separator`` / ``nd.fallback`` /
        ``nd.degraded`` events, with each sub-bisection's phase spans
        nested under it.

    Returns
    -------
    Ordering
    """
    if options is None:
        options = DEFAULT_OPTIONS
    rng = as_generator(rng)
    faults = fault_injector(options)
    if report is None:
        report = ResilienceReport()
    if guard is None and options.deadline is not None:
        guard = DeadlineGuard(options.deadline)
    n = graph.nvtxs
    trc, owned_trace = resolve_tracer(
        tracer, options, run=method, nvtxs=n, nedges=graph.nedges
    )
    tree = Tree(
        options, np.int64, partial(_leaf, leaf_size=leaf_size),
        partial(_degrade),
        partial(_split, options=options, bisector=bisector,
                refine_separator=refine_separator),
        shippable=bisector is None,
    )
    try:
        with trc.span("dissect", method=method) as sp:
            run = Run(PhaseTimer(), report, faults, guard, trc, sp)
            iperm = walk(tree, graph, 0, rng, run)
    finally:
        if owned_trace:
            trc.close()

    perm = np.full(n, -1, dtype=np.int64)
    perm[iperm] = np.arange(n)
    ordering = Ordering.from_perm(perm, method)
    ordering.meta["resilience"] = report
    return ordering


def _order_by_mmd(out, node):
    """Number ``node``'s vertices by MMD into its position range."""
    leaf = mmd_ordering(node.graph)
    out[node.vmap[leaf.perm]] = node.key + np.arange(node.graph.nvtxs)


def _leaf(run, out, node, *, leaf_size):
    """Subgraphs of at most ``leaf_size`` vertices are ordered by MMD."""
    if node.graph.nvtxs > leaf_size:
        return False
    if node.graph.nvtxs:
        _order_by_mmd(out, node)
    return True


def _mmd_instead(run, out, node, event, reason):
    """Order ``node`` with MMD instead of dissecting it (the caller records why)."""
    _order_by_mmd(out, node)
    if run.span:
        run.span.event(
            event, reason=reason, nvtxs=node.graph.nvtxs, depth=node.depth
        )
    return []


def _degrade(run, out, node):
    # Budget gone: MMD the rest of the tree — valid ordering, no more
    # dissection levels.
    run.report.record(
        "degradation", "ordering",
        f"deadline expired; MMD on remaining {node.graph.nvtxs}-vertex "
        "subgraph",
        level=node.depth,
    )
    _mmd_instead(run, out, node, "nd.degraded", "deadline")


def _split(run, out, node, streams, *, options, bisector, refine_separator):
    """Split ``node`` into its components, or dissect it by a separator.

    Separator vertices are numbered last within the node's range; the
    two sides (or the components, side by side) become the children.
    """
    sub, vmap, lo, depth = node.graph, node.vmap, node.key, node.depth
    nv = sub.nvtxs
    comp = connected_components(sub)
    ncomp = int(comp.max()) + 1
    if ncomp > 1:
        # Order components independently, side by side.  One stable sort
        # groups every component's vertex ids, ascending within each.
        order = np.argsort(comp, kind="stable")
        bounds = np.cumsum(np.bincount(comp))[:-1]
        children = []
        for ids in np.split(order, bounds):
            csub, _ = extract_subgraph(sub, ids)
            children.append(Node(csub, vmap[ids], lo, depth))
            lo += len(ids)
        return children

    rng_bisect = next(streams)
    rng_refine = next(streams)
    try:
        if bisector is None:
            where = ml_bisect(
                sub, options, rng_bisect, faults=run.faults,
                report=run.report, guard=run.guard, tracer=run.trc,
            ).bisection.where
        else:
            where = bisector(sub, rng_bisect)
        where = np.asarray(where)
    except SanitizerError:
        raise  # a broken invariant is a bug, not a recoverable fault
    except DeadlineExceededError:
        run.report.record(
            "degradation", "ordering",
            f"deadline expired mid-bisection; MMD on {nv}-vertex subgraph",
            level=depth,
        )
        return _mmd_instead(
            run, out, node, "nd.degraded", "deadline-mid-bisection"
        )
    except ReproError as exc:
        run.report.record(
            "fallback", "ordering",
            f"bisector failed ({exc}); MMD on {nv}-vertex subgraph",
            level=depth,
        )
        return _mmd_instead(run, out, node, "nd.fallback", "bisector-error")
    sep = vertex_separator_from_bisection(sub, where)
    if refine_separator and len(sep):
        from repro.ordering.separator_refine import (
            build_labelling,
            refine_vertex_separator,
        )

        where3 = build_labelling(sub, where, sep)
        cap = int(np.ceil(0.55 * sub.total_vwgt()))
        refine_vertex_separator(
            sub, where3, rng_refine, maxpwgt=(cap, cap)
        )
        a_ids = np.flatnonzero(where3 == 0).astype(np.int64)
        b_ids = np.flatnonzero(where3 == 1).astype(np.int64)
        sep = np.flatnonzero(where3 == 2).astype(np.int64)
    else:
        in_sep = np.zeros(nv, dtype=bool)
        in_sep[sep] = True
        a_ids = np.flatnonzero((where == 0) & ~in_sep).astype(np.int64)
        b_ids = np.flatnonzero((where == 1) & ~in_sep).astype(np.int64)
    san = sanitizer(options)
    if san:
        san.check_separator(sub, a_ids, b_ids, sep, level=depth)
    if len(a_ids) == 0 or len(b_ids) == 0:
        # Degenerate split (can happen on cliques where the separator
        # swallows a side): fall back to MMD on the whole subgraph.
        run.report.record(
            "fallback", "ordering",
            f"degenerate split (separator swallowed a side); MMD on "
            f"{nv}-vertex subgraph",
            level=depth,
        )
        return _mmd_instead(run, out, node, "nd.fallback", "degenerate-split")

    if run.span:
        run.span.event(
            "nd.separator",
            depth=depth,
            nvtxs=nv,
            sep=len(sep),
            a=len(a_ids),
            b=len(b_ids),
        )
    # Separator vertices are numbered last within the node's range.
    sep_lo = lo + nv - len(sep)
    out[vmap[sep]] = sep_lo + np.arange(len(sep))
    a_sub, _ = extract_subgraph(sub, a_ids)
    b_sub, _ = extract_subgraph(sub, b_ids)
    return [
        Node(a_sub, vmap[a_ids], lo, depth + 1),
        Node(b_sub, vmap[b_ids], lo + len(a_ids), depth + 1),
    ]
