"""One divide-and-conquer engine for both recursive drivers (§2).

The paper builds both of its products by the same tree walk: k-way
partitioning is recursive bisection of induced subgraphs, and MLND is
recursive bisection plus a vertex separator, with leaves ordered by MMD.
:func:`walk` is that walk.  :mod:`repro.core.kway` and
:mod:`repro.ordering.nested_dissection` supply only the steps that differ,
as a :class:`Tree`; the walk owns the rest:

* **traversal** — an explicit work stack (deep dissections never hit the
  Python recursion limit); children run in the order the split returns
  them;
* **randomness** — every node owns a generator.  The split draws the
  streams its own step needs from ``streams``, then the walk spawns one
  stream per child, in child order, before any child runs — so the
  output does not depend on the order, or the process, subtrees run in;
* **deadline** — once ``run.guard`` has expired, every node not yet split
  goes to the tree's ``degrade`` step;
* **fan-out** — with ``workers > 1`` (``options.workers`` /
  ``REPRO_WORKERS``), a shippable tree and no fault spec naming in-process
  phase sites, subtrees at depth ``fan_depth_for(workers)`` run as
  :func:`_subtree` jobs under a
  :class:`~repro.resilience.supervisor.BranchSupervisor`; their labels,
  phase timers and resilience events are merged back in submission order,
  bit-identical to ``workers=1``.

The output is one label per vertex (a part number for k-way, an
elimination position for nested dissection), so merging a subtree is
``out[vmap] = labels`` for either driver.  The walk never touches a graph:
every graph operation is in the tree's steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.obs.tracer import NULL as NULL_TRACER
from repro.obs.tracer import NULL_SPAN
from repro.perf.workers import (
    fan_depth_for,
    resolve_worker_timeout,
    resolve_workers,
)
from repro.resilience.faults import fault_injector, worker_faults_only
from repro.resilience.report import ResilienceReport
from repro.resilience.supervisor import BranchSupervisor
from repro.utils.rng import spawn_child
from repro.utils.timing import PhaseTimer

__all__ = ["Tree", "Node", "Run", "walk"]


@dataclass(frozen=True)
class Tree:
    """A driver's steps; shipped to pool workers whenever ``shippable``.

    ``leaf(run, out, node) -> bool`` finishes a base case in place.
    ``degrade(run, out, node)`` finishes a subtree cheaply once the
    deadline has expired.  ``split(run, out, node, streams)`` writes the
    labels the split settles (a separator) and returns the child
    :class:`Node` list — empty when it finished the node itself.
    ``shippable`` is False when a step closes over caller state (a custom
    bisector); such a tree always runs in-process.  Drivers pass every
    step as a :func:`functools.partial`: the static call graph
    (:mod:`repro.analysis.callgraph`) treats partial targets as code that
    runs in pool workers, so the worker lint rules check the steps.
    """

    options: object
    dtype: type
    leaf: Callable
    degrade: Callable
    split: Callable
    shippable: bool = True


@dataclass(slots=True)
class Node:
    """One subproblem: ``graph`` is the subgraph induced on root ``vmap``.

    ``key`` places the node's labels (k-way: ``(k, first_part)``; nested
    dissection: the first position of its range).  ``span``, when given,
    is an unentered tracer span wrapping the node's whole subtree.
    """

    graph: object
    vmap: np.ndarray
    key: object
    depth: int
    span: object = None
    rng: object = None


@dataclass
class Run:
    """What every node of one walk shares."""

    timers: PhaseTimer
    report: ResilienceReport
    faults: object
    guard: object = None
    trc: object = NULL_TRACER
    span: object = NULL_SPAN  #: the driver's span: events, worker splices


def walk(tree, graph, key, rng, run) -> np.ndarray:
    """Label every vertex of ``graph``, starting from the root ``key``."""
    workers = resolve_workers(tree.options)
    # A caller's closure cannot be pickled, and in-process fault sites
    # carry injector countdowns workers could not share.
    if not (workers > 1 and tree.shippable and worker_faults_only(run.faults)):
        return _walk(tree, graph, key, 0, rng, run)
    with BranchSupervisor(
        workers,
        fan_depth=fan_depth_for(workers),
        timeout=resolve_worker_timeout(tree.options),
        guard=run.guard,
        max_retries=tree.options.worker_retries,
        report=run.report,
        span=run.span,
        faults=run.faults,
    ) as par:
        out = _walk(tree, graph, key, 0, rng, run, par)
        for vmap, (labels, totals, report) in par.drain():
            out[vmap] = labels
            for phase, seconds in totals.items():
                run.timers.add(phase, seconds)
                # Splice the worker-measured phase time into the span tree
                # so a traced workers=N run still reconciles with timers.
                run.span.record("worker.phase", seconds, phase=phase)
            run.report.merge(report)
    return out


def _subtree(tree, graph, key, depth, rng, *, guard=None):
    """Walk one subtree with fresh accumulators: the pool job.

    Returns the labels, phase-timer totals and resilience events for the
    parent to merge.  Tracing is off: the parent owns the span tree.
    ``guard`` is only passed by the supervisor's in-process demotion,
    under the remaining deadline budget; a pool worker gets none, because
    the supervisor bounds its time from the parent.
    """
    run = Run(PhaseTimer(), ResilienceReport(), fault_injector(tree.options),
              guard)
    out = _walk(tree, graph, key, depth, rng, run)
    return out, run.timers.totals(), run.report


def _streams(rng):
    """Child generators of ``rng``, spawned on demand in a fixed order."""
    while True:
        yield spawn_child(rng)


def _walk(tree, graph, key, depth, rng, run, par=None):
    out = np.zeros(graph.nvtxs, dtype=tree.dtype)
    # The stack holds nodes still to visit and, below each node's children,
    # the span it entered: popping the span means its subtree is done.
    stack = [Node(graph, np.arange(graph.nvtxs, dtype=np.int64), key, depth,
                  rng=rng)]
    try:
        while stack:
            node = stack.pop()
            if not isinstance(node, Node):
                node.__exit__(None, None, None)
                continue
            if node.span is not None:
                node.span.__enter__()
                stack.append(node.span)
            if tree.leaf(run, out, node):
                continue
            expired = run.guard is not None and run.guard.expired()
            if par is not None and node.depth >= par.fan_depth and not expired:
                par.submit(_subtree, tree, node.graph, node.key, node.depth,
                           node.rng, meta=node.vmap)
                continue
            if expired:
                tree.degrade(run, out, node)
                continue
            streams = _streams(node.rng)
            children = tree.split(run, out, node, streams)
            for child in children:
                child.rng = next(streams)
            stack.extend(reversed(children))
    finally:
        # After an error, close the spans still open, innermost first.
        for item in reversed(stack):
            if not isinstance(item, Node):
                item.__exit__(None, None, None)
    return out
