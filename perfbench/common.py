"""Helpers shared by the benchmark's processes: layout, checks, digests.

Nothing here imports ``repro``; the output checks recompute cut, part
weights and permutation inverses with plain NumPy so they do not trust the
code they check.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"


#: Cold starts per run: at least this many, and more while they have taken
#: less than COLD_START_SECONDS, so cheap set-ups get a steadier median.
COLD_STARTS = 5
COLD_START_SECONDS = 3.0


def more_cold_starts(done: int, spent: float) -> bool:
    return done < COLD_STARTS or spent < COLD_START_SECONDS


class LayoutError(Exception):
    """The checkout does not hold the program the benchmark measures."""


def check_layout() -> None:
    """Fail unless ``src/repro`` sits next to the benchmark directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LayoutError(f"no program sources at {SRC / 'repro'}")


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    ``PYTHONPATH`` points at the checkout's ``src`` only, and every
    ``REPRO_*`` knob is removed so kernels, workers, tracing and fault
    injection run at their defaults whatever the caller's shell sets.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def import_repro():
    """Import ``repro`` from the checkout, refusing any other copy."""
    import sys

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise LayoutError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def source_digest() -> str:
    """SHA-256 over the program sources and the benchmark code.

    Keys the cross-run repeat record, so a record written by other code
    is never compared against this code's outputs.
    """
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def array_digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        data = np.ascontiguousarray(array)
        digest.update(str(data.dtype).encode())
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data.tobytes())
    return digest.hexdigest()


def edge_sources(xadj) -> np.ndarray:
    xadj = np.asarray(xadj, dtype=np.int64)
    return np.repeat(np.arange(len(xadj) - 1, dtype=np.int64), np.diff(xadj))


def check_partition(xadj, adjncy, adjwgt, vwgt, where, nparts, cut, pwgts):
    """Problems with a k-way partition, as a list of strings (empty = ok).

    Every ``where`` value must be in ``[0, nparts)``, every part non-empty,
    the recomputed edge cut equal to ``cut`` and the recomputed part
    weights equal to ``pwgts``.
    """
    where = np.asarray(where, dtype=np.int64)
    n = len(xadj) - 1
    problems = []
    if len(where) != n:
        return [f"where has {len(where)} entries for {n} vertices"]
    if n and (where.min() < 0 or where.max() >= nparts):
        return [f"where values outside [0, {nparts})"]
    counts = np.bincount(where, minlength=nparts)
    if np.any(counts == 0):
        problems.append(f"{int(np.sum(counts == 0))} empty parts")
    adjncy = np.asarray(adjncy, dtype=np.int64)
    crossing = where[edge_sources(xadj)] != where[adjncy]
    real_cut = int(np.asarray(adjwgt, dtype=np.int64)[crossing].sum()) // 2
    if real_cut != int(cut):
        problems.append(f"reported cut {cut} != recomputed {real_cut}")
    real_pwgts = np.zeros(nparts, dtype=np.int64)
    np.add.at(real_pwgts, where, np.asarray(vwgt, dtype=np.int64))
    if not np.array_equal(real_pwgts, np.asarray(pwgts, dtype=np.int64)):
        problems.append("reported part weights differ from recomputed")
    return problems


def check_ordering(perm, iperm, n):
    """Problems with an ordering: ``perm`` and ``iperm`` must be inverse
    permutations of ``0..n-1``."""
    perm = np.asarray(perm, dtype=np.int64)
    iperm = np.asarray(iperm, dtype=np.int64)
    if len(perm) != n or len(iperm) != n:
        return [f"perm/iperm lengths {len(perm)}/{len(iperm)} for {n} vertices"]
    if not np.array_equal(np.sort(perm), np.arange(n)):
        return ["perm is not a permutation"]
    if not np.array_equal(iperm[perm], np.arange(n)):
        return ["iperm is not the inverse of perm"]
    return []


class HostProbe:
    """Samples the host's speed while the program runs, from a timer signal.

    Every ``period`` seconds a ``SIGALRM`` handler, which Python runs in
    the main thread between two bytecodes of whatever is running, times a
    fixed piece of pure-Python work owned by the benchmark: an arithmetic
    loop and a heavy-edge matching sweep over a small fixed CSR graph, the
    kind of work the program's hot loops do, but none of its code.  The
    probe thus samples the speed of the very core the program runs on, at
    the moments it runs, about 40 times a second, for under 2% of the time.

    ``op_ref`` divides an operation's wall time by the mean probe time
    during it: a slower host slows both by about the same share, and a
    slower program raises it in full.
    """

    def __init__(self, period: float = 0.025, vertices: int = 600):
        rng = np.random.default_rng(12345)
        src = np.repeat(np.arange(vertices, dtype=np.int64), 5)
        dst = rng.integers(0, vertices, len(src))
        keep = src != dst
        u = np.concatenate([src[keep], dst[keep]])
        v = np.concatenate([dst[keep], src[keep]])
        order = np.lexsort((v, u))
        self.xadj = np.concatenate(
            [[0], np.cumsum(np.bincount(u[order], minlength=vertices))]
        ).tolist()
        self.adjncy = v[order].tolist()
        self.adjwgt = rng.integers(1, 10, len(v)).tolist()
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def work(self) -> None:
        acc = 0
        for i in range(1000):
            acc += (i * i) % 7
        xadj, adjncy, adjwgt = self.xadj, self.adjncy, self.adjwgt
        match = [-1] * (len(xadj) - 1)
        for u in range(len(match)):
            if match[u] != -1:
                continue
            best, heaviest = u, -1
            for j in range(xadj[u], xadj[u + 1]):
                v = adjncy[j]
                if match[v] == -1 and adjwgt[j] > heaviest:
                    best, heaviest = v, adjwgt[j]
            match[u] = best
            match[best] = u
        if acc < 0 or min(match) < 0:  # keep the work observable
            raise AssertionError("unreachable")

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self.work()  # warm-up
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # Ignore, not default: a signal already on its way must not kill us.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def mean_between(self, t0: float, t1: float) -> float:
        """Mean probe time of the samples taken between ``t0`` and ``t1``."""
        return mean_probe(self.samples, t0, t1)


def mean_probe(samples, t0: float, t1: float) -> float:
    inside = [seconds for start, seconds in samples if t0 <= start <= t1]
    if not inside:
        raise RuntimeError("no host probe sample inside an operation")
    return sum(inside) / len(inside)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def repeat_record(workload: str, seed: int, outputs: dict) -> list[str]:
    """Compare ``outputs`` with the record of an earlier run at this seed.

    The first run of a (code, workload, seed) writes the record; later
    runs, traced or not, must match it exactly.  Returns the mismatches.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"repeat-{workload}-{seed}.json"
    record = {"code": source_digest(), "outputs": outputs}
    if path.is_file():
        try:
            old = json.loads(path.read_text())
        except (OSError, ValueError):
            old = None
        if old and old.get("code") == record["code"]:
            return [
                f"{key}: {old['outputs'].get(key)!r} in an earlier run, "
                f"{value!r} now"
                for key, value in outputs.items()
                if old["outputs"].get(key) != value
            ]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    tmp.replace(path)
    return []
