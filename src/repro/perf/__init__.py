"""Process-parallel execution helpers.

:mod:`repro.perf.workers` holds the ``ProcessPoolExecutor`` plumbing for
fanning the independent subgraph branches of recursive bisection and
nested dissection across processes (``MultilevelOptions.workers`` /
``REPRO_WORKERS`` / ``--workers``).  The fan-out itself lives in the
shared recursion engine (:mod:`repro.core.recursion`), which gives every
branch its own pre-spawned RNG stream so ``workers=N`` is bit-identical
to ``workers=1``, and runs branch jobs under the supervised runtime in
:mod:`repro.resilience.supervisor` (per-branch timeouts via
``worker_timeout`` / ``REPRO_WORKER_TIMEOUT``, crash recovery, deadline
propagation).  The vectorized kernels live in the :mod:`repro.kernels`
registry.
"""

from repro.perf.workers import (
    branch_executor,
    fan_depth_for,
    resolve_worker_timeout,
    resolve_workers,
)

__all__ = [
    "resolve_workers",
    "resolve_worker_timeout",
    "fan_depth_for",
    "branch_executor",
]
