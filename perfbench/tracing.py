"""Span recording for the traced runs, from outside the program.

The benchmark wraps the public function at each layer boundary, at the
place the consuming module looks the name up (``extract_subgraph`` in
``repro.core.kway`` and in ``repro.ordering.nested_dissection``, the
kernels as :meth:`repro.kernels.KernelSelection.kernel` hands them out,
and so on).  A span records its name, start, end, parent and the id of
the request it belongs to; spans stay in memory until the run ends.

A span's self time is its duration minus its children's, so the self
times of a tree sum to its root's duration.  Counts come from what the
wrapped calls return: ``MultilevelResult.stats`` and ``.resilience``,
hierarchy sizes, separator and subgraph sizes.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, field

from common import median


@dataclass
class Span:
    sid: int
    parent: int | None
    parent_name: str | None
    name: str
    start: float
    end: float = 0.0
    rid: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``enabled`` off makes every wrapper a pass-through."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)

    def open(self, name: str) -> tuple[Span, contextvars.Token]:
        parent = self._current.get()
        span = Span(
            next(self._ids),
            parent.sid if parent else None,
            parent.name if parent else None,
            name,
            time.perf_counter(),
            rid=parent.rid if parent else None,
        )
        return span, self._current.set(span)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(span, result, args)`` adds counts
        once the span has ended."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span, token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span, token)
            if after is not None:
                after(span, result, args)
            return result

        return wrapper

    def wrap_async(self, name: str, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.enabled:
                return await fn(*args, **kwargs)
            span, token = self.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(span, token)

        return wrapper

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> dict[int, float]:
    """Span id → self time (duration minus the children's durations)."""
    own = {s.sid: s.dur for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.dur
    return own


# -- library layers -------------------------------------------------------


def _count_resilience(span, report):
    for event in report or ():
        if event.kind == "stall" and event.phase == "coarsen":
            span.info["stalls"] = span.info.get("stalls", 0) + 1
        elif event.kind == "retry" and event.phase == "initial":
            span.info["retries"] = span.info.get("retries", 0) + 1


def _after_bisect(span, result, args):
    span.info["tried"] = result.stats.moves_tried
    span.info["kept"] = result.stats.moves_kept
    # k-way and nested dissection share one report across their
    # bisections; count it once, at the outermost call.
    if span.parent_name not in ("kway", "nd"):
        _count_resilience(span, result.resilience)


def _after_kway(span, result, args):
    _count_resilience(span, result.resilience)


def _after_nd(span, result, args):
    _count_resilience(span, result.meta.get("resilience"))


def _after_coarsen(span, hierarchy, args):
    span.info["levels"] = hierarchy.nlevels
    span.info["coarsest"] = hierarchy.coarsest.nvtxs


def _after_match(span, match, args):
    import numpy as np

    match = np.asarray(match)
    n = len(match)
    span.info["n"] = n
    span.info["matched"] = int(np.count_nonzero(
        (match >= 0) & (match != np.arange(n))
    ))


def _after_extract(span, result, args):
    span.info["n"] = len(args[1])


def _after_separator(span, sep, args):
    span.info["n"] = len(sep)


def install_library(rec: Recorder, repro) -> None:
    """Wrap every library layer boundary the workloads cross."""
    import repro.core.kway as kway
    import repro.core.multilevel as multilevel
    import repro.ordering as ordering
    import repro.ordering.nested_dissection as nd
    import repro.ordering.separator_refine as sepref
    from repro.kernels import KernelSelection

    bisect = rec.wrap("bisect", multilevel.bisect, _after_bisect)
    repro._ml_bisect = bisect
    kway.bisect = bisect
    nd.ml_bisect = bisect
    repro._ml_partition = rec.wrap("kway", kway.partition, _after_kway)
    ordering.mlnd_ordering = rec.wrap("nd", ordering.mlnd_ordering, _after_nd)

    multilevel.coarsen = rec.wrap("coarsen", multilevel.coarsen, _after_coarsen)
    multilevel.initial_bisection = rec.wrap("initial", multilevel.initial_bisection)
    multilevel.refine_bisection = rec.wrap("refine", multilevel.refine_bisection)
    multilevel.project_where = rec.wrap("project", multilevel.project_where)

    extract = rec.wrap("extract", kway.extract_subgraph, _after_extract)
    kway.extract_subgraph = extract
    nd.extract_subgraph = extract
    nd.connected_components = rec.wrap("cc", nd.connected_components)
    nd.vertex_separator_from_bisection = rec.wrap(
        "separator", nd.vertex_separator_from_bisection, _after_separator
    )
    sepref.refine_vertex_separator = rec.wrap(
        "sepref", sepref.refine_vertex_separator
    )
    nd.mmd_ordering = rec.wrap("mmd", nd.mmd_ordering)

    # The registry caches loaded kernels, so wrap what ``kernel()`` hands
    # out rather than the defining modules.
    kernel = KernelSelection.kernel
    wrapped = {}
    names = {"matching": ("match", _after_match), "contract": ("contract", None)}

    def traced_kernel(self, phase):
        fn = kernel(self, phase)
        if phase not in names:
            return fn
        if (phase, fn) not in wrapped:
            wrapped[(phase, fn)] = rec.wrap(names[phase][0], fn, names[phase][1])
        return wrapped[(phase, fn)]

    KernelSelection.kernel = traced_kernel


#: Per-layer metric → span name whose self times, summed over one
#: operation, it reports (seconds).
_TIMES = {
    "api.self_s": "api",
    "kway.self_s": "kway",
    "components.extract_s": "extract",
    "components.cc_s": "cc",
    "bisect.self_s": "bisect",
    "project.s": "project",
    "coarsen.self_s": "coarsen",
    "match.s": "match",
    "contract.s": "contract",
    "initial.s": "initial",
    "refine.s": "refine",
    "nd.self_s": "nd",
    "separator.s": "separator",
    "sepref.s": "sepref",
    "mmd.s": "mmd",
}
#: Per-layer metric → span name whose spans it counts per operation.
_COUNTS = {
    "components.extract_calls": "extract",
    "bisect.calls": "bisect",
    "match.calls": "match",
    "contract.calls": "contract",
    "initial.calls": "initial",
    "refine.calls": "refine",
    "nd.separators": "separator",
    "mmd.leaves": "mmd",
}

LIBRARY_METRICS = sorted(
    list(_TIMES) + list(_COUNTS) + [
        "kway.bisections", "components.extract_vertices",
        "coarsen.levels", "coarsen.coarsest_nvtxs", "coarsen.stalls",
        "match.matched_ratio", "initial.retries",
        "fm.moves_tried", "fm.kept_ratio", "separator.vertices",
    ]
)


def library_metrics(spans) -> dict:
    """Per-layer metrics of one operation (or one service pass)."""
    own = self_times(spans)
    selfsum = defaultdict(float)
    count = defaultdict(int)
    info = defaultdict(lambda: defaultdict(float))
    bisections = 0
    for s in spans:
        selfsum[s.name] += own[s.sid]
        count[s.name] += 1
        for key, value in s.info.items():
            info[key][s.name] += value
            info[key]["*"] += value
        if s.name == "bisect" and s.parent_name == "kway":
            bisections += 1
    out = {m: selfsum.get(n, 0.0) for m, n in _TIMES.items()}
    out.update({m: count.get(n, 0) for m, n in _COUNTS.items()})
    coarsenings = count.get("coarsen", 0)
    matched_n = info["n"]["match"]
    tried = info["tried"]["bisect"]
    out.update({
        "kway.bisections": bisections,
        "components.extract_vertices": int(info["n"]["extract"]),
        "coarsen.levels": info["levels"]["coarsen"] / coarsenings if coarsenings else 0.0,
        "coarsen.coarsest_nvtxs": info["coarsest"]["coarsen"] / coarsenings if coarsenings else 0.0,
        "coarsen.stalls": int(info["stalls"]["*"]),
        "match.matched_ratio": info["matched"]["match"] / matched_n if matched_n else 0.0,
        "initial.retries": int(info["retries"]["*"]),
        "fm.moves_tried": int(tried),
        "fm.kept_ratio": info["kept"]["bisect"] / tried if tried else 0.0,
        "separator.vertices": int(info["n"]["separator"]),
    })
    return out


def median_metrics(per_op: list[dict]) -> dict:
    return {key: median([m[key] for m in per_op]) for key in per_op[0]}


def tree_problems(spans, wall: float) -> list[str]:
    """Check one operation's span tree against its measured wall time.

    No child may outlast its parent (every self time is non-negative),
    and the self times, which sum to the root's duration, must cover the
    wall time measured around the call to within 1%.
    """
    own = self_times(spans)
    roots = [s for s in spans if s.parent is None]
    problems = []
    if len(roots) != 1:
        return [f"{len(roots)} root spans in one operation"]
    negative = [s.name for s in spans if own[s.sid] < -1e-6]
    if negative:
        problems.append(f"children outlast their parent in {sorted(set(negative))}")
    covered = sum(own.values()) / wall
    if abs(covered - 1.0) > 0.01:
        problems.append(f"self times cover {covered:.4f} of the wall time")
    return problems


# -- service layers -------------------------------------------------------

#: Per-connection state: the request span left open until its response
#: body has been encoded.
_connection = contextvars.ContextVar("perfbench_connection", default=None)


def install_service(rec: Recorder) -> None:
    """Wrap the service layers; the library wrappers cover the jobs.

    A request's root span opens in ``PartitionService.handle_request`` and
    closes once ``_handle_connection`` has encoded the response body, so
    decoding, cache lookup, queueing, the job and encoding all sit under
    it.  Jobs run on pool threads; the queue wrapper carries the request's
    context into the thread so their spans keep the request id.
    """
    import json

    import repro.service.app as app
    from repro.service.cache import ResultCache
    from repro.service.jobs import JobQueue

    class TracedJson:
        JSONDecodeError = json.JSONDecodeError
        loads = staticmethod(rec.wrap("parse", json.loads))
        _dumps = staticmethod(rec.wrap("encode", json.dumps))

        @staticmethod
        def dumps(obj, *args, **kwargs):
            state = _connection.get()
            span = state.pop("open", None) if state else None
            if span is None:
                return TracedJson._dumps(obj, *args, **kwargs)
            token = rec._current.set(span)
            try:
                return TracedJson._dumps(obj, *args, **kwargs)
            finally:
                rec.close(span, token)

    app.json = TracedJson
    app.kway_partition = rec.wrap("kway", app.kway_partition, _after_kway)
    for name in ("graph_from_request", "parse_options"):
        setattr(app, name, rec.wrap("parse", getattr(app, name)))
    for name in ("partition_response", "ordering_response"):
        setattr(app, name, rec.wrap("encode", getattr(app, name)))
    app.request_key = rec.wrap("key", app.request_key)
    ResultCache.get = rec.wrap("key", ResultCache.get)
    app.PartitionService._run_coalesced = rec.wrap_async(
        "flight", app.PartitionService._run_coalesced
    )

    handle_connection = app._handle_connection

    async def traced_connection(service, reader, writer):
        _connection.set({})
        return await handle_connection(service, reader, writer)

    app._handle_connection = traced_connection

    handle_request = app.PartitionService.handle_request

    async def traced_request(self, method, path, raw_body):
        if not rec.enabled:
            return await handle_request(self, method, path, raw_body)
        span, token = rec.open("request")
        span.rid = span.sid
        try:
            result = await handle_request(self, method, path, raw_body)
        except BaseException:
            rec.close(span, token)
            raise
        rec._current.reset(token)
        _connection.get()["open"] = span
        return result

    app.PartitionService.handle_request = traced_request

    run = JobQueue.run
    job_span = rec.wrap("job", lambda fn, *args: fn(*args))

    async def traced_run(self, fn, *args):
        if not rec.enabled:
            return await run(self, fn, *args)
        span, token = rec.open("queue")
        context = contextvars.copy_context()

        def job():
            span.info["wait"] = time.perf_counter() - span.start
            return context.run(job_span, fn, *args)

        try:
            return await run(self, job)
        finally:
            rec.close(span, token)

    JobQueue.run = traced_run


SERVICE_METRICS = [
    "service.parse_ms", "service.encode_ms", "service.key_ms",
    "service.queue_wait_ms", "service.job_ms", "service.http_self_ms",
    "service.coalesced",
]


def service_metrics(spans) -> dict:
    """Per-request medians, in ms, of the service layers' time."""
    own = self_times(spans)
    requests = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.rid is None:
            continue
        r = requests[s.rid]
        if s.name in ("parse", "encode", "key"):
            r[s.name] += own[s.sid]
        elif s.name == "queue":
            r["wait"] += s.info["wait"]
        elif s.name == "job":
            r["job"] += s.dur
        elif s.name == "request":
            r["http_self"] += own[s.sid]
        elif s.name == "flight":
            r["flight"] = 1.0
    rows = list(requests.values())
    jobs = [r for r in rows if "job" in r]

    def ms(rows, key):
        return 1000.0 * median([r[key] for r in rows]) if rows else 0.0

    return {
        "service.parse_ms": ms(rows, "parse"),
        "service.encode_ms": ms(rows, "encode"),
        "service.key_ms": ms(rows, "key"),
        "service.http_self_ms": ms(rows, "http_self"),
        "service.queue_wait_ms": ms(jobs, "wait"),
        "service.job_ms": ms(jobs, "job"),
        # Waited for another request's job instead of running one.
        "service.coalesced": sum(1 for r in rows if "flight" in r and "job" not in r),
    }


def dump_spans(spans, path, **extra) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(dict(extra, spans=[vars(s) for s in spans]), fh)


def load_spans(path) -> tuple[list[Span], dict]:
    import json

    with open(path) as fh:
        data = json.load(fh)
    return [Span(**row) for row in data.pop("spans")], data
