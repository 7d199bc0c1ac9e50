"""Span tracing of the serving stack, from outside ``src/``.

Every process of a traced run keeps its spans in memory -- name, start
and end ``time.monotonic_ns``, parent span, request id and pid -- and
writes them as JSON lines to ``<dir>/spans-<pid>.jsonl`` when it ends.
The spans wrap the public entry points of each layer, so nothing under
``src/`` knows it is traced. ``CLOCK_MONOTONIC`` is system-wide on
Linux, which puts the spans of every process on one time base.

Forked pool workers inherit the wrappers. They leave through
``os._exit``, so a worker appends each span to its file as it closes.

:func:`attribute` turns the spans into per-request self time by layer:
each instant of a request's latency goes to the deepest layer active on
its path at that instant, so the layer times of a request add up to the
time its spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

Span = dict[str, Any]

#: Span name -> (layer, depth). Deeper layers win the instants they cover.
LAYERS: dict[str, tuple[str, int]] = {
    "client.query": ("service.client.codec", 1),
    "client.design": ("service.client.codec", 1),
    # client.roundtrip is the router hop when routed, else the wire.
    "router.exchange": ("service.server.wire", 3),
    "design.run": ("design.pipeline", 4),
    "design.enumerate": ("design.enumerate", 5),
    "design.vet": ("design.vet", 5),
    "design.score": ("design.score", 5),
    "service.query": ("service.scheduler.queue_wait", 6),
    "scheduler.flush": ("service.scheduler.batch", 7),
    "scheduler.plan": ("service.scheduler.plan", 8),
    "cache.get": ("service.cache.hit", 8),
    "parallel.search": ("core.parallel.overhead", 8),
    "parallel.pack": ("core.parallel.pack", 9),
    "parallel.merge": ("core.parallel.merge", 9),
    "parallel.shard": ("core.parallel.shard", 9),
    "panel.compile": ("core.bitparallel.panel_compile", 10),
    "panel.scan": ("core.bitparallel.kernel", 10),
}

#: Open-loop requests that found both connections busy: due to sent.
BACKLOG = "bench.backlog"
#: Latency nothing accounts for: generator bookkeeping and trace gaps.
UNATTRIBUTED = "bench.unattributed"


class Tracer:
    """In-memory span store of one process."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._parent_pid = 0
        self._stream: Any = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def new_span(self, name: str, rid: str = "", parent: Span | None = None) -> Span:
        return {
            "name": name,
            "id": next(self._ids),
            "parent": parent["id"] if parent else 0,
            "rid": rid,
            "start": time.monotonic_ns(),
            "end": 0,
        }

    def open(self, name: str, rid: str = "") -> Span:
        span = self.new_span(name, rid, self.current())
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span["end"] = time.monotonic_ns()
        self._stack().pop()
        self.keep(span)

    def keep(self, span: Span) -> None:
        span["pid"] = self._pid
        if self._stream is None:
            self.spans.append(span)
            return
        span["ppid"] = self._parent_pid
        self._stream.write(json.dumps(span) + "\n")
        self._stream.flush()

    def forked(self) -> None:
        """Reset in a forked child: fresh store, spans go straight to disk."""
        self._parent_pid = self._pid
        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._stream = open(self.directory / f"spans-{self._pid}.jsonl", "a")

    def dump(self) -> None:
        """Write every span kept in memory."""
        path = self.directory / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def _wrap(
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str,
    *,
    rid: Callable[[tuple, dict], str] | None = None,
    before: Callable[[tuple, dict], dict[str, Any]] | None = None,
) -> None:
    """Replace ``owner.attr`` by a version that records one span per call."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(name, str(rid(args, kwargs)) if rid else "")
        if before is not None:
            span.update(before(args, kwargs))
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(span)

    setattr(owner, attr, traced)


def _request_id(args: tuple, kwargs: dict) -> str:
    return kwargs.get("request_id", "")


def _payload_id(args: tuple, kwargs: dict) -> str:
    return args[1].get("id", "")


def install_client(tracer: Tracer) -> None:
    """Spans of the benchmark's own client calls."""
    from repro.service import ServiceClient

    _wrap(tracer, ServiceClient, "query", "client.query", rid=_request_id)
    _wrap(tracer, ServiceClient, "design", "client.design", rid=_request_id)
    _wrap(tracer, ServiceClient, "roundtrip", "client.roundtrip", rid=_payload_id)


def install_router(tracer: Tracer) -> None:
    """Spans of the router's backend exchanges (the forward hop)."""
    from repro.service import ServiceClient

    _wrap(tracer, ServiceClient, "exchange", "router.exchange", rid=_payload_id)


def install_server(tracer: Tracer) -> None:
    """Spans of every layer a ``serve`` process runs a request through."""
    import multiprocessing.util

    import repro.core.parallel as parallel
    import repro.design.pipeline as pipeline
    import repro.service.scheduler as scheduler
    from repro.core.bitparallel import BitParallelPanel
    from repro.service.api import OffTargetService
    from repro.service.cache import CompiledGuideCache, cache_key
    from repro.service.sessions import SessionRegistry

    _wrap(tracer, SessionRegistry, "add_fasta", "sessions.load")
    _wrap(
        tracer,
        scheduler.RequestScheduler,
        "flush",
        "scheduler.flush",
        before=lambda args, kwargs: {"resolved": []},
    )
    # Pass planning prices every guide's STEs, which builds the homogeneous
    # automaton of a freshly compiled guide.
    _wrap(tracer, scheduler, "split_into_passes", "scheduler.plan")
    _wrap(
        tracer,
        CompiledGuideCache,
        "get",
        "cache.get",
        before=lambda args, kwargs: {"miss": cache_key(args[1], args[2]) not in args[0]},
    )
    _wrap(tracer, parallel.ParallelSearch, "shard_tasks", "parallel.pack")
    _wrap(tracer, parallel, "merge_shards", "parallel.merge")
    _wrap(tracer, parallel, "_search_shard", "parallel.shard")
    _wrap(tracer, BitParallelPanel, "__init__", "panel.compile")
    _wrap(
        tracer,
        BitParallelPanel,
        "find_hits",
        "panel.scan",
        before=lambda args, kwargs: {"symbols": len(args[1])},
    )
    _wrap(tracer, pipeline, "run_design", "design.run", rid=_request_id)
    _wrap(tracer, pipeline, "enumerate_candidates", "design.enumerate")
    _wrap(tracer, pipeline, "vet_candidates_via_service", "design.vet")
    _wrap(tracer, pipeline, "score_candidates", "design.score")

    def search_many(self: parallel.ParallelSearch, genomes: Any) -> list:
        # The stats variant returns the same hits and says whether a pool ran.
        span = tracer.open("parallel.search")
        try:
            hits, stats = self.search_many_with_stats(genomes)
            span["pooled"] = any(entry["pooled"] for entry in stats)
            return hits
        finally:
            tracer.close(span)

    parallel.ParallelSearch.search_many = search_many  # type: ignore[method-assign]

    query_async = OffTargetService.query_async

    def traced_query_async(self: OffTargetService, *args: Any, **kwargs: Any) -> Any:
        # Admission to future resolution. The resolving thread is inside
        # the scheduler flush that ran the request's batch; the flush span
        # lists the ids it resolved, which joins the two threads.
        span = tracer.new_span("service.query", _request_id(args, kwargs), tracer.current())
        future = query_async(self, *args, **kwargs)

        def resolved(_future: Any) -> None:
            span["end"] = time.monotonic_ns()
            batch = tracer.current()
            if batch is not None and batch["name"] == "scheduler.flush":
                batch["resolved"].append(span["rid"])
            tracer.keep(span)

        future.add_done_callback(resolved)
        return future

    OffTargetService.query_async = traced_query_async  # type: ignore[method-assign]
    multiprocessing.util.register_after_fork(tracer, Tracer.forked)


# -- analysis -------------------------------------------------------------------


def load(directory: str | Path) -> list[Span]:
    """Every span every process of a traced run wrote."""
    spans: list[Span] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="ascii") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


class Trace:
    """Spans indexed for joining one request's path across processes."""

    def __init__(self, spans: list[Span], *, routed: bool) -> None:
        self.routed = routed
        self.children: dict[tuple[int, int], list[Span]] = defaultdict(list)
        self.by_rid: dict[str, dict[str, Span]] = defaultdict(dict)
        self.flush_of: dict[str, Span] = {}
        searches: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            if span["parent"]:
                self.children[(span["pid"], span["parent"])].append(span)
            if span["rid"]:
                self.by_rid[span["rid"]][span["name"]] = span
            if span["name"] == "scheduler.flush":
                for rid in span["resolved"]:
                    self.flush_of[rid] = span
            elif span["name"] == "parallel.search":
                searches[span["pid"]].append(span)
        # A pool worker's shard runs inside its parent's search span.
        for span in spans:
            if span.get("ppid") and not span["parent"]:
                for search in searches.get(span["ppid"], ()):
                    if search["start"] <= span["start"] and span["end"] <= search["end"]:
                        self.children[(search["pid"], search["id"])].append(span)
                        break

    def _subtree(self, span: Span) -> Iterator[Span]:
        yield span
        for child in self.children.get((span["pid"], span["id"]), ()):
            yield from self._subtree(child)

    def path(self, rid: str) -> tuple[list[Span], list[Span]] | None:
        """(spans on the request's own path, its batch subtree) or None."""
        named = self.by_rid.get(rid, {})
        query = named.get("service.query")
        flush = self.flush_of.get(rid)
        if query is None or flush is None:
            return None
        own = [named[name] for name in ("client.query", "client.design", "client.roundtrip",
                                        "router.exchange") if name in named]
        if "design.run" in named:
            own.extend(self._subtree(named["design.run"]))
        else:
            own.append(query)
        return own, list(self._subtree(flush))

    def layer(self, span: Span) -> tuple[str, int]:
        if span["name"] == "client.roundtrip":
            return ("cluster.router.hop" if self.routed else "service.server.wire", 2)
        if span["name"] == "cache.get" and span.get("miss"):
            return ("service.cache.miss", 8)
        return LAYERS[span["name"]]


def attribute(
    trace: Trace, rid: str, due: int, sent: int, done: int
) -> dict[str, int] | None:
    """Nanoseconds of ``[due, done]`` per layer for request *rid*.

    ``[due, sent]`` is generator backlog. The batch subtree is clipped
    to the part of the batch the request waited through: from the later
    of its admission and the batch start to its own resolution. ``None``
    when the request's spans do not join.
    """
    found = trace.path(rid)
    if found is None:
        return None
    own, batch = found
    query = trace.by_rid[rid]["service.query"]
    intervals: list[tuple[int, str, int, int]] = [(0, BACKLOG, due, sent)]

    def add(span: Span, lo: int, hi: int) -> None:
        start, end = max(span["start"], lo), min(span["end"], hi)
        if end > start:
            layer, depth = trace.layer(span)
            intervals.append((depth, layer, start, end))

    for span in own:
        add(span, due, done)
    batch_lo = max(query["start"], batch[0]["start"], due)
    for span in batch:
        add(span, batch_lo, min(query["end"], done))
    bounds = sorted({due, done, *(s for _, _, s, _ in intervals), *(e for _, _, _, e in intervals)})
    totals: dict[str, int] = defaultdict(int)
    for lo, hi in zip(bounds, bounds[1:]):
        deepest = max(
            ((depth, layer) for depth, layer, start, end in intervals if start <= lo and hi <= end),
            default=(0, UNATTRIBUTED),
        )
        totals[deepest[1]] += hi - lo
    return dict(totals)
