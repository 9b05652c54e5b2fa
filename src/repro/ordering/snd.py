"""Spectral nested dissection (SND) — Pothen, Simon & Wang baseline.

§4.3: "Spectral nested dissection (SND) [32] is a widely used ordering
algorithm for ordering matrices for parallel factorization.  As in the case
of MLND, the minimum vertex cover algorithm was used to compute a vertex
separator from the edge separator."  The only difference from MLND is the
bisector: the Fiedler-median split of each subgraph, which also makes SND
far slower — every dissection level pays for Fiedler vectors of
еach subgraph instead of a multilevel cut.
"""

from __future__ import annotations

from repro.core.options import DEFAULT_OPTIONS
from repro.ordering.base import Ordering
from repro.ordering.nested_dissection import nested_dissection_ordering
from repro.resilience.faults import fault_injector
from repro.spectral.bisection import spectral_bisection
from repro.utils.rng import as_generator


def snd_ordering(
    graph,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    leaf_size: int = 120,
) -> Ordering:
    """Spectral nested dissection ordering of ``graph``.

    An injected ``lanczos`` fault (or a genuine spectral non-convergence)
    on a subgraph makes the driver fall back to MMD for that subtree — SND
    never dies on a hard eigenproblem.
    """
    rng = as_generator(rng if rng is not None else options.seed)
    faults = fault_injector(options)

    def bisector(subgraph, child_rng):
        return spectral_bisection(subgraph, rng=child_rng, faults=faults).where

    return nested_dissection_ordering(
        graph, bisector, rng, leaf_size=leaf_size, method="snd",
        options=options,
    )
