"""The ``service-mix`` workload: a closed loop against ``repro serve``.

The server runs in its own process; one client process drives it over two
keep-alive connections in lock step: each step sends at most one request
per connection and waits for both answers before the next step.  The
script is fixed by the seed.  It holds inline-CSR ``/partition`` (16 and
32 parts) and ``/order`` requests on graphs of 2k-4k vertices.  Every
distinct request is first seen once per pass, some of them sent on both
connections at once (the server coalesces those), and is then repeated,
which the result cache answers.  The cache is cleared before each pass.
The cold starts time plain ``repro serve`` processes; the passes are then
measured against one started through ``probed_server.py``, which runs the
host probe.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from common import (
    BENCH_DIR,
    WORK,
    check_ordering,
    check_partition,
    child_env,
    mean_probe,
    median,
    more_cold_starts,
    percentile,
)

#: (suite matrix, scale): 2k-4k vertices at every seed.
GRAPHS = [("4ELT", 0.5), ("MEMPLUS", 0.6), ("BCSPWR10", 0.5)]
#: Products requested on every graph: (path, extra body fields).
PRODUCTS = [
    ("/partition", {"nparts": 16}),
    ("/partition", {"nparts": 32}),
    ("/order", {"method": "mlnd"}),
]
MIN_PASSES = 3
#: Latency percentiles reported; a run makes passes until at least ten
#: samples of each kind lie beyond the higher one.
MISS_HIGH, HIT_HIGH = 80, 90


class ServiceError(Exception):
    pass


def build_requests(seed):
    """Distinct request bodies (pre-encoded) with what checking needs."""
    from repro.matrices import suite

    requests = []
    for name, scale in GRAPHS:
        graph = suite.load(name, scale=scale, seed=seed, cache=False)
        csr = {
            "xadj": graph.xadj.tolist(),
            "adjncy": graph.adjncy.tolist(),
            "adjwgt": graph.adjwgt.tolist(),
            "vwgt": graph.vwgt.tolist(),
        }
        for path, extra in PRODUCTS:
            body = {"graph": csr, "options": {"seed": seed, "workers": 1}, **extra}
            requests.append({
                "path": path,
                "body": json.dumps(body).encode(),
                "graph": graph,
                "nparts": extra.get("nparts"),
            })
    return requests


def build_script(n_distinct, seed):
    """Steps of (request index or None, request index or None), one slot
    per connection, and the kind ("miss"/"hit") of every slot.

    Each distinct request appears first as a miss; every third one is sent
    on both connections at once.  Otherwise the other connection repeats
    an answered request meanwhile, and every new request is followed by a
    step of two repeats: two repeats per miss, which buys the hit samples
    the higher percentile needs for the price of cheap requests.
    """
    rng = np.random.default_rng([seed, 7])
    order = [int(i) for i in rng.permutation(n_distinct)]
    answered, steps = [], []
    for i, req in enumerate(order):
        if i % 3 == 0:
            steps.append((req, req))
        else:
            other = int(rng.choice(answered)) if answered else None
            steps.append((req, other) if i % 2 else (other, req))
        answered.append(req)
        steps.append(tuple(int(x) for x in rng.choice(answered, 2)))
    kinds, seen = [], set()
    for step in steps:
        kinds.append(tuple(
            None if r is None else ("hit" if r in seen else "miss") for r in step
        ))
        seen.update(r for r in step if r is not None)
    return steps, kinds


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A server process on a fresh port, timed from spawn to ``/healthz``."""

    def __init__(self, cmd_tail, log):
        self.port = free_port()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *cmd_tail(self.port)],
            cwd=BENCH_DIR.parent, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=log,
        )
        try:
            self._wait_healthy(start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self, deadline):
        while True:
            if self.proc.poll() is not None:
                raise ServiceError(f"server exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise ServiceError("server did not answer /healthz in 60 s")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServiceError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def repro_serve(port):
    return ["-m", "repro", "serve", "--port", str(port)]


def probed_serve(samples_path):
    def tail(port):
        return [str(BENCH_DIR / "probed_server.py"), "--port", str(port),
                "--samples", str(samples_path)]
    return tail


def traced_serve(spans_path):
    def tail(port):
        return [str(BENCH_DIR / "traced_server.py"), "--port", str(port),
                "--spans", str(spans_path)]
    return tail


class Client:
    """Two keep-alive connections, driven from two threads in lock step."""

    def __init__(self, port):
        self.conns = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            for _ in range(2)
        ]
        self.pool = ThreadPoolExecutor(max_workers=2)

    def send(self, index, method, path, body=None):
        conn = self.conns[index]
        start = time.perf_counter()
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def stats(self):
        status, data, _ = self.send(0, "GET", "/stats")
        if status != 200:
            raise ServiceError(f"/stats answered {status}")
        return json.loads(data)

    def run_pass(self, requests, steps):
        """One pass of the script; returns (start, makespan, [(slot,
        status, body, latency)]) with slot = (step, connection)."""
        status, _, _ = self.send(0, "DELETE", "/cache")
        if status != 200:
            raise ServiceError(f"DELETE /cache answered {status}")
        results = []
        start = time.perf_counter()
        for s, step in enumerate(steps):
            futures = [
                (c, self.pool.submit(
                    self.send, c, "POST", requests[r]["path"], requests[r]["body"]
                ))
                for c, r in enumerate(step) if r is not None
            ]
            for c, future in futures:
                results.append(((s, c),) + future.result())
        return start, time.perf_counter() - start, results

    def close(self):
        for conn in self.conns:
            conn.close()
        self.pool.shutdown(wait=True)


def where_sha256(values, dtype):
    data = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    digest = hashlib.sha256()
    digest.update(str(data.dtype).encode("ascii"))
    digest.update(data.tobytes())
    return digest.hexdigest()


def check_pass(requests, steps, results):
    """Check one pass; returns (ok count, problems, digests by request).

    Every answer must be a 200 whose digest matches its vector and whose
    vector is a valid partition or ordering; every repeat must be the
    bytes of the answer that computed it, apart from the ``cached`` flag.
    """
    ok, problems, digests, first = 0, [], {}, {}
    for (s, c), status, data, _ in sorted(results, key=lambda r: r[0]):
        r = steps[s][c]
        req = requests[r]
        if status != 200:
            problems.append(f"{req['path']} answered {status}")
            continue
        bad = []
        if r in first:
            if data != first[r] and data != first[r].replace(
                b'"cached": false}', b'"cached": true}'
            ):
                bad.append("repeat differs from the answer that computed it")
        else:
            first[r] = data
            body = json.loads(data)
            graph = req["graph"]
            if req["path"] == "/partition":
                bad += check_partition(
                    graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt,
                    body["where"], req["nparts"], body["cut"], body["pwgts"],
                )
                if where_sha256(body["where"], np.int32) != body["where_sha256"]:
                    bad.append("where_sha256 does not match where")
                digests[r] = (body["where_sha256"], body["cut"])
            else:
                bad += check_ordering(body["perm"], body["iperm"], graph.nvtxs)
                if where_sha256(body["perm"], np.int64) != body["perm_sha256"]:
                    bad.append("perm_sha256 does not match perm")
                digests[r] = (body["perm_sha256"], None)
        problems += bad
        ok += not bad
    if len(digests) != len(requests):
        problems.append("a distinct request got no answer")
    return ok, problems, digests


def in_process_problems(repro, requests, digests, seed):
    """Compare one sampled /partition answer with an in-process call."""
    rng = np.random.default_rng([seed, 11])
    candidates = [i for i, r in enumerate(requests) if r["path"] == "/partition"]
    r = int(rng.choice(candidates))
    req = requests[r]
    result = repro.partition(req["graph"], req["nparts"], seed=seed, workers=1)
    local = where_sha256(result.where, np.int32)
    if (local, int(result.cut)) != tuple(digests[r]):
        return [f"request {r}: service answer differs from the in-process call"]
    return []


def run(repro, seed, seconds, trace):
    """Measure the workload; returns the parent's result pieces."""
    requests = build_requests(seed)
    steps, kinds = build_script(len(requests), seed)
    WORK.mkdir(parents=True, exist_ok=True)
    log = open(WORK / "server.log", "wb")
    out = {"problems": [], "attempted": 0, "ok": 0}
    digests = None
    servers = []

    def enough(latencies):
        return (len(latencies["miss"]) * (100 - MISS_HIGH) >= 1000
                and len(latencies["hit"]) * (100 - HIT_HIGH) >= 1000)

    def warm_up(server):
        """One /partition and one /order request: lazy imports, first jobs."""
        client = Client(server.port)
        try:
            for path in ("/partition", "/order"):
                req = next(r for r in requests if r["path"] == path)
                status, _, _ = client.send(0, "POST", path, req["body"])
                out["attempted"] += 1
                out["ok"] += status == 200
        finally:
            client.close()

    def passes(server, seconds, minimum, samples=True):
        nonlocal digests
        client = Client(server.port)
        try:
            makespans, latencies, windows, stats = [], {"miss": [], "hit": []}, [], []
            begin = time.perf_counter()
            while (len(makespans) < minimum or time.perf_counter() - begin < seconds
                   or (samples and not enough(latencies))):
                before = client.stats()
                start, makespan, results = client.run_pass(requests, steps)
                windows.append((start, start + makespan))
                stats.append((before, client.stats()))
                ok, problems, pass_digests = check_pass(requests, steps, results)
                out["attempted"] += len(results)
                out["ok"] += ok
                out["problems"] += problems
                if digests is None:
                    digests = pass_digests
                elif pass_digests != digests:
                    out["problems"].append("a pass answered differently from the first")
                makespans.append(makespan)
                for (s, c), _, _, latency in results:
                    latencies[kinds[s][c]].append(latency)
            return makespans, latencies, windows, stats
        finally:
            client.close()

    try:
        setups = []
        while not setups or more_cold_starts(len(setups), sum(setups)):
            server = Server(repro_serve, log)
            servers.append(server)
            setups.append(server.setup_s)
            server.stop()
        samples_path = WORK / "probe.json"
        samples_path.unlink(missing_ok=True)
        server = Server(probed_serve(samples_path), log)
        servers.append(server)
        warm_up(server)
        makespans, latencies, windows, _ = passes(server, seconds, MIN_PASSES)
        peak_rss = server.peak_rss_mb()
        server.stop()
        samples = json.loads(samples_path.read_text())
        ratios = [
            makespan / mean_probe(samples, *window)
            for makespan, window in zip(makespans, windows)
        ]
        out["calib"] = median(seconds for _, seconds in samples)
        out["problems"] += in_process_problems(repro, requests, digests, seed)
        out["digest"] = hashlib.sha256(
            json.dumps(sorted(digests.items())).encode()
        ).hexdigest()
        quality = sum(
            cut for r, (_, cut) in digests.items()
            if requests[r]["path"] == "/partition"
        )
        out["metrics"] = {
            "setup_s": median(setups),
            "op_ref": median(ratios),
            "quality": quality,
            "peak_rss_mb": peak_rss,
        }
        out["op_s"] = median(makespans)
        n_miss, n_hit = len(latencies["miss"]), len(latencies["hit"])
        out["latency"] = {
            "miss_p50_ms": 1000 * percentile(latencies["miss"], 50),
            f"miss_p{MISS_HIGH}_ms": 1000 * percentile(latencies["miss"], MISS_HIGH),
            "hit_p50_ms": 1000 * percentile(latencies["hit"], 50),
            f"hit_p{HIT_HIGH}_ms": 1000 * percentile(latencies["hit"], HIT_HIGH),
        }
        out["samples"] = {"miss": n_miss, "hit": n_hit, "passes": len(makespans)}
        if trace:
            out["layers"] = traced(seconds, passes, warm_up, log, servers,
                                   median(makespans))
    finally:
        for server in servers:
            server.stop()
        log.close()
    return out


def traced(seconds, passes, warm_up, log, servers, untraced_op_s):
    """Per-layer metrics from a second server with the span wrappers."""
    import tracing

    spans_path = WORK / "spans.json"
    if spans_path.exists():
        spans_path.unlink()
    server = Server(traced_serve(spans_path), log)
    servers.append(server)
    warm_up(server)
    server.proc.send_signal(signal.SIGUSR1)
    makespans, _, windows, stats = passes(server, seconds / 2, 2, samples=False)
    server.stop()
    spans, extra = tracing.load_spans(spans_path)
    per_pass = []
    for (t0, t1), (before, after) in zip(windows, stats):
        window = [s for s in spans if t0 <= s.start <= t1]
        metrics = tracing.library_metrics(window)
        metrics.update(tracing.service_metrics(window))
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        metrics.update({
            "service.hit_ratio": hits / (hits + misses),
            "service.rejected": after["queue"]["rejected"] - before["queue"]["rejected"],
        })
        per_pass.append(metrics)
    layers = tracing.median_metrics(per_pass)
    layers["trace.overhead_ratio"] = median(makespans) / untraced_op_s
    layers["setup.import_s"] = extra["import_s"]
    return layers
