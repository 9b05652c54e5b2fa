"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The seed fixes the generated graphs, the
program's ``options.seed`` and the service script, never input sizes.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` additionally
makes a traced run at the same seed and prints the per-layer metrics.
Every output is checked.  The last stdout line is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

A human-readable summary, with the raw ``op_s`` and the host probe's time
``host.calib_s``, goes to stderr.
See README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    WORK,
    LayoutError,
    check_layout,
    child_env,
    import_repro,
    median,
    more_cold_starts,
    repeat_record,
)

#: library workload → (suite matrix, scale); sizes never depend on the seed.
LIBRARY = {
    "kway64-mesh3d": ("BRACK2", 2.0),
    "bisect-circuit": ("MEMPLUS", 16.0),
    "mlnd-mesh2d": ("4ELT", 2.0),
}
WORKLOADS = [*LIBRARY, "service-mix"]
CHILD_TIMEOUT = 150.0

UNITS = {
    "setup_s": "s", "op_ref": "ratio", "quality": "count",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def per_layer_units():
    import service
    import tracing

    units = {}
    for name in tracing.LIBRARY_METRICS:
        units[name] = "s" if name.endswith("_s") or name.endswith(".s") else (
            "ratio" if name.endswith("ratio") else "count"
        )
    for name in tracing.SERVICE_METRICS:
        units[name] = "ms" if name.endswith("_ms") else "count"
    units.update({
        "service.hit_ratio": "ratio",
        "service.rejected": "count",
        "service.miss_p50_ms": "ms",
        f"service.miss_p{service.MISS_HIGH}_ms": "ms",
        "service.hit_p50_ms": "ms",
        f"service.hit_p{service.HIT_HIGH}_ms": "ms",
        "op_s": "s",
        "setup.import_s": "s",
        "io.read_graph_s": "s",
        "trace.overhead_ratio": "ratio",
        "host.calib_s": "s",
    })
    return units


def spawn_child(mode, workload, graph_path, seed, seconds, trace):
    """Start a libchild process; return (process, spawn-to-READY seconds,
    import seconds, read seconds)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "libchild.py"), mode,
        "--workload", workload, "--graph", str(graph_path),
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} child failed to start: {line!r}")
    _, import_s, read_s = line.split()
    return proc, ready, float(import_s), float(read_s)


def finish_child(proc, result=True):
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if result else None


def run_library(workload, seed, seconds, trace):
    repro = import_repro()
    from repro.matrices import suite

    name, scale = LIBRARY[workload]
    WORK.mkdir(parents=True, exist_ok=True)
    graph_path = WORK / f"{workload}-{seed}.graph"
    repro.write_graph(suite.load(name, scale=scale, seed=seed, cache=False), graph_path)

    args = (workload, graph_path, seed, seconds, trace)
    setups, imports, reads = [], [], []
    child = None
    try:
        while child is None:
            # The measuring process is the last cold start.
            last = not more_cold_starts(len(setups) + 1, sum(setups))
            proc, ready, import_s, read_s = spawn_child("run" if last else "probe", *args)
            setups.append(ready)
            imports.append(import_s)
            reads.append(read_s)
            child = finish_child(proc, last)
    finally:
        graph_path.unlink(missing_ok=True)

    problems = list(child["problems"])
    if len(child["digests"]) != 1 or len(child["quality"]) != 1:
        problems.append(
            f"outputs differ between calls: {len(child['digests'])} digests, "
            f"qualities {child['quality']}"
        )
    quality = child["quality"][0]
    problems += repeat_record(
        workload, seed, {"digest": child["digests"][0], "quality": quality}
    )
    metrics = {
        "setup_s": median(setups),
        "op_ref": median(child["ratios"]),
        "quality": quality,
        "peak_rss_mb": child["peak_rss_mb"],
        "ok_ratio": child["ok"] / child["attempted"],
    }
    layers = dict(child.get("layers", {}))
    layers.update({
        "op_s": median(child["walls"]),
        "setup.import_s": median(imports),
        "io.read_graph_s": median(reads),
        "host.calib_s": child["calib"],
    })
    notes = {"calls": len(child["walls"])}
    return metrics, layers, child["attempted"], child["ok"], problems, notes


def run_service(seed, seconds, trace):
    import service

    repro = import_repro()
    out = service.run(repro, seed, seconds, trace)
    problems = list(out["problems"])
    problems += repeat_record(
        "service-mix", seed, {"digest": out["digest"], "quality": out["metrics"]["quality"]}
    )
    metrics = dict(out["metrics"], ok_ratio=out["ok"] / out["attempted"])
    layers = dict(out.get("layers", {}))
    layers.update({f"service.{k}": v for k, v in out["latency"].items()})
    layers["op_s"] = out["op_s"]
    layers["host.calib_s"] = out["calib"]
    notes = dict(out["samples"], **out["latency"])
    return metrics, layers, out["attempted"], out["ok"], problems, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_layout()
        # Byte-compile up front, so no timed cold start pays for it.
        compileall.compile_dir(SRC, quiet=1)
        compileall.compile_dir(BENCH_DIR, quiet=1)
        if args.workload == "service-mix":
            result = run_service(args.seed, args.seconds, args.trace)
        else:
            result = run_library(args.workload, args.seed, args.seconds, args.trace)
    except LayoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics, layers, attempted, ok, problems, notes = result

    units = per_layer_units()
    for name in units:
        layers.setdefault(name, 0.0)  # a layer this workload never enters
    if args.trace:
        chosen = {k: {"value": layers[k], "unit": units[k]} for k in sorted(units)}
    else:
        chosen = {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS}

    print(f"perfbench {args.workload} seed={args.seed}", file=sys.stderr)
    for k in UNITS:
        print(f"  {k:<16} {metrics[k]:>14.6g} {UNITS[k]}", file=sys.stderr)
    for k in ("op_s", "host.calib_s"):
        print(f"  {k:<16} {layers[k]:>14.6g} s", file=sys.stderr)
    for k, v in notes.items():
        print(f"  {k:<16} {v:>14.6g}", file=sys.stderr)
    for problem in problems:
        print(f"  PROBLEM: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems and ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
