"""Process-pool plumbing for parallel recursive bisection / dissection.

The recursion trees of :func:`repro.core.kway.partition` and nested
dissection split a graph into *independent* subgraphs: once the separator
(or bisection) of a node is fixed, the two sides never exchange
information.  The shared recursion engine (:mod:`repro.core.recursion`)
therefore gives every branch its own pre-spawned RNG stream (see
:func:`repro.utils.rng.spawn_child`) and may evaluate branches in any
order — or in other processes — without changing a single bit of the
result.  This module holds the configuration and pool helpers it uses:

* :func:`resolve_workers` — ``options.workers`` falling back to the
  ``REPRO_WORKERS`` environment variable, defaulting to 1;
* :func:`fan_depth_for` — how many top recursion levels to fan out so at
  least ``workers`` independent branch jobs exist;
* :func:`branch_executor` — a ``ProcessPoolExecutor`` on the cheapest
  start method the platform offers;
* :func:`resolve_worker_timeout` — ``options.worker_timeout`` falling
  back to the ``REPRO_WORKER_TIMEOUT`` environment variable, defaulting
  to ``None`` (no per-branch timeout).

Branch jobs run under the supervised runtime in
:mod:`repro.resilience.supervisor`, which builds its pools with
:func:`branch_executor`, slices time budgets from the deadline guard,
retries crashed or hung workers and degrades stubborn branches to
in-process sequential execution.

Only two configurations keep the engine sequential: a caller-supplied
bisector closure (unpicklable) and a fault spec naming in-process phase
sites (injector countdowns are process-local state; see
:func:`repro.resilience.faults.worker_faults_only`).  Results are
identical either way.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from repro.utils.errors import ConfigurationError

#: Environment variable consulted when ``options.workers`` is unset.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable consulted when ``options.worker_timeout`` is unset.
WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"


def resolve_workers(options=None) -> int:
    """Effective worker count: option field, else ``REPRO_WORKERS``, else 1."""
    if options is not None and getattr(options, "workers", None) is not None:
        return int(options.workers)
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ConfigurationError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def resolve_worker_timeout(options=None):
    """Per-branch timeout: option field, else ``REPRO_WORKER_TIMEOUT``, else None."""
    if options is not None and getattr(options, "worker_timeout", None) is not None:
        return float(options.worker_timeout)
    raw = os.environ.get(WORKER_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKER_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    if timeout <= 0:
        raise ConfigurationError(
            f"{WORKER_TIMEOUT_ENV} must be positive, got {timeout}"
        )
    return timeout


def fan_depth_for(workers: int) -> int:
    """Recursion depth to fan out so ≥ ``workers`` branch jobs exist.

    Depth ``d`` of a binary recursion tree exposes ``2**d`` independent
    branches; the smallest ``d`` with ``2**d >= workers`` keeps every
    worker busy with at most 2× oversubscription.
    """
    depth = 0
    while (1 << depth) < workers:
        depth += 1
    return depth


def branch_executor(workers: int) -> ProcessPoolExecutor:
    """A process pool using ``fork`` when available (cheap), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


__all__ = [
    "WORKERS_ENV",
    "WORKER_TIMEOUT_ENV",
    "resolve_workers",
    "resolve_worker_timeout",
    "fan_depth_for",
    "branch_executor",
]
