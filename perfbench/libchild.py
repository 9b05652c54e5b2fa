"""One library-workload process: set up, then (in ``run`` mode) measure.

Started by ``run.py`` in a fresh interpreter.  It imports ``repro``, reads
the workload's ``.graph`` file and prints ``READY <import_s> <read_s>``;
the parent times spawn-to-READY as one cold start.  ``probe`` mode exits
there.  ``run`` mode goes on:

1. one warm-up call, then timed calls with ``gc.collect()`` before each,
   for ``--seconds``, with the host probe (``common.HostProbe``) running;
   each call's wall time is also divided by the mean probe time during it;
2. with ``--trace 1``, installs the span wrappers and makes timed, traced
   calls for half as long again.

Every call's output is checked and digested; the last stdout line is one
JSON object for the parent.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

T_START = time.perf_counter()

from common import (  # noqa: E402 - the clock starts before any import
    HostProbe,
    array_digest,
    check_ordering,
    check_partition,
    import_repro,
    median,
)

#: workload → (public function, extra positional args)
CALLS = {
    "kway64-mesh3d": ("partition", (64,)),
    "bisect-circuit": ("bisect", ()),
    "mlnd-mesh2d": ("nested_dissection", ()),
}
MIN_CALLS = 3


def check_output(workload, graph, result):
    """(problems, digest, quality) for one call's output."""
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt
    if workload == "mlnd-mesh2d":
        problems = check_ordering(result.perm, result.iperm, graph.nvtxs)
        return problems, array_digest(result.perm, result.iperm), None
    if workload == "bisect-circuit":
        part, nparts = result.bisection, 2
    else:
        part, nparts = result, result.nparts
    problems = check_partition(
        xadj, adjncy, adjwgt, vwgt, part.where, nparts, part.cut, part.pwgts
    )
    return problems, array_digest(part.where), int(part.cut)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(CALLS))
    ap.add_argument("--graph", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    repro = import_repro()
    t_import = time.perf_counter()
    graph = repro.read_graph(args.graph)
    t_read = time.perf_counter()
    print(f"READY {t_import - T_START:.6f} {t_read - t_import:.6f}", flush=True)
    if args.mode == "probe":
        return 0

    name, extra = CALLS[args.workload]
    options = repro.DEFAULT_OPTIONS.with_(seed=args.seed, workers=1)
    outputs = {"problems": [], "digests": set(), "quality": set()}
    attempted = 0

    def call(fn):
        nonlocal attempted
        gc.collect()
        start = time.perf_counter()
        result = fn(graph, *extra, options=options)
        end = time.perf_counter()
        wall = end - start
        attempted += 1
        problems, digest, quality = check_output(args.workload, graph, result)
        outputs["problems"].extend(problems)
        outputs["digests"].add(digest)
        if quality is None and not outputs["quality"]:
            from repro.ordering.elimination import factor_stats

            quality = factor_stats(graph, result.perm).opcount
        if quality is not None:
            outputs["quality"].add(quality)
        return wall, not problems, (start, end)

    public = getattr(repro, name)
    _, ok, _ = call(public)  # warm-up: lazy imports, kernel loading
    walls, ratios = [], []
    probe = HostProbe()
    probe.start()
    try:
        begin = time.perf_counter()
        while len(walls) < MIN_CALLS or time.perf_counter() - begin < args.seconds:
            wall, good, window = call(public)
            walls.append(wall)
            ratios.append(wall / probe.mean_between(*window))
            ok += good
    finally:
        probe.stop()
    report = {
        "walls": walls,
        "ratios": ratios,
        "calib": median(seconds for _, seconds in probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install_library(rec, repro)
        traced = rec.wrap("api", getattr(repro, name))
        per_op, traced_walls = [], []
        begin = time.perf_counter()
        while len(per_op) < 2 or time.perf_counter() - begin < args.seconds / 2:
            wall, good, _ = call(traced)
            spans = rec.take()
            tree = tracing.tree_problems(spans, wall)
            outputs["problems"].extend(tree)
            ok += good and not tree
            per_op.append(tracing.library_metrics(spans))
            traced_walls.append(wall)
        report["layers"] = tracing.median_metrics(per_op)
        report["layers"]["trace.overhead_ratio"] = median(traced_walls) / median(walls)

    report.update(
        attempted=attempted,
        ok=ok,
        problems=sorted(set(outputs["problems"])),
        digests=sorted(outputs["digests"]),
        quality=sorted(outputs["quality"]),
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
