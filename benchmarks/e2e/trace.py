"""The benchmark's own tracer: spans recorded from outside the engine.

``Tracer.install()`` replaces the public entry points listed in
:data:`TARGETS` with timing wrappers and ``uninstall()`` puts the
originals back; nothing under ``src/`` knows it is being watched.  A
span is ``(id, name, start, end, parent, query, phase, note)``; spans
stay in memory and are written as JSON lines when the run ends.

A span's **self time** is its duration minus the part of that interval
its child spans cover, so the per-layer rows add up to the root spans
by construction and what no wrapper claimed stays visible as the
roots' own self time.  A layer is the part of a span name before the
first dot and is named after the module it measures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[int]
    phase: str
    note: Optional[tuple]


class Target(NamedTuple):
    """One public function to wrap: ``module[.owner].attr`` -> span name."""

    module: str
    owner: Optional[str]
    attr: str
    span: str
    #: "call", "generator" (timed per resumption), "submit" (tags the
    #: returned handle with the caller's span), "drain" (adopts that
    #: tag on the worker thread) or "map" (carries the caller's span
    #: into pool threads)
    kind: str = "call"
    #: numbers read off the return value at the boundary
    note: Optional[Callable[[object], tuple]] = None


def _select_note(result) -> tuple:
    stats = result[1]
    return (stats.tuples_in, stats.blocks_scanned, stats.blocks_pruned)


def _select_shared_note(result) -> tuple:
    served = [entry[1] for entry in result if isinstance(entry, tuple)]
    return (
        sum(s.tuples_in for s in served),
        sum(s.blocks_scanned for s in served),
        sum(s.blocks_pruned for s in served),
    )


_ESTIMATORS = ("srs_count", "srs_sum", "srs_mean", "ht_count", "ht_sum", "hajek_mean")

TARGETS: tuple[Target, ...] = (
    Target("repro.core.session", "Session", "submit", "server.session_submit"),
    Target("repro.core.session", "Session", "execute", "server.session_execute"),
    Target("repro.core.server", "SciBorqServer", "ingest", "server.ingest"),
    Target("repro.core.server", "SciBorqServer", "maintain", "server.maintain"),
    Target("repro.core.handle", "QueryHandle", "drain", "handle.drain", "drain"),
    Target("repro.core.engine", "SciBorq", "submit", "engine.submit", "submit"),
    Target("repro.core.engine", "SciBorq", "execute", "engine.execute"),
    Target("repro.core.engine", "SciBorq", "execute_exact", "engine.execute_exact"),
    Target("repro.core.engine", "SciBorq", "ingest", "engine.ingest"),
    Target("repro.core.engine", "SciBorq", "maintain", "engine.maintain"),
    Target("repro.core.engine", "SciBorq", "enforce_memory", "engine.enforce_memory"),
    Target("repro.core.bounded", "BoundedQueryProcessor", "run", "bounded.run", "generator"),
    Target("repro.core.impression", "Impression", "materialise", "impression.materialise"),
    Target("repro.core.impression", "Impression", "materialise_delta", "impression.materialise_delta"),
    Target("repro.core.impression", "Impression", "materialise_complement", "impression.materialise_complement"),
    Target("repro.core.quality", "ImpressionEstimator", "estimate", "quality.estimate"),
    Target("repro.core.quality", "ImpressionEstimator", "estimate_from_working", "quality.estimate_from_working"),
    # quality.py imports the estimators by name, so its names are the
    # ones the query path calls
    *(Target("repro.core.quality", None, fn, f"estimators.{fn}") for fn in _ESTIMATORS),
    Target("repro.columnstore.executor", "Executor", "select_indices", "executor.select_indices"),
    Target("repro.columnstore.recycler", "Recycler", "lookup", "recycler.lookup"),
    Target("repro.columnstore.recycler", "Recycler", "store", "recycler.store"),
    Target("repro.core.scheduler", "SharedScanScheduler", "scan", "scheduler.scan"),
    Target("repro.columnstore.operators", None, "select", "operators.select", note=_select_note),
    Target("repro.columnstore.operators", None, "select_shared", "operators.select_shared", note=_select_shared_note),
    Target("repro.columnstore.operators", None, "aggregate", "operators.aggregate"),
    Target("repro.columnstore.operators", None, "group_aggregate", "operators.group_aggregate"),
    Target("repro.util.concurrency", "MorselPool", "map", "", "map"),
    Target("repro.columnstore.column", "Column", "read_range", "column.read_range"),
    Target("repro.columnstore.column", "Column", "gather_with_error", "column.gather_with_error"),
    Target("repro.columnstore.column", "Column", "take", "column.take"),
    Target("repro.columnstore.column", "Column", "promote", "column.promote"),
    Target("repro.columnstore.column", "Column", "demote", "column.demote"),
    Target("repro.columnstore.table", "Table", "take", "table.take"),
    Target("repro.columnstore.table", "Table", "append_batch", "table.append_batch"),
    Target("repro.core.governor", "MemoryGovernor", "enforce", "governor.enforce"),
    Target("repro.core.monitor", "ContractMonitor", "observe", "monitor.observe"),
    Target("repro.core.monitor", "ContractMonitor", "observe_exact", "monitor.observe_exact"),
    Target("repro.core.monitor", "ContractMonitor", "observe_settled", "monitor.observe_settled"),
    Target("repro.workload.log", "QueryLog", "record", "workload.log_record"),
    Target("repro.workload.log", "QueryLog", "settle", "workload.log_settle"),
    Target("repro.columnstore.loader", "Loader", "load_batch", "loader.load_batch"),
    Target("repro.sampling.base", "ReservoirBase", "offer_batch", "sampling.offer_batch"),
    Target("repro.core.builder", "ImpressionBuilder", "on_batch", "builder.on_batch"),
)


class Tracer:
    """Collects spans from every thread; one instance per traced run."""

    def __init__(self) -> None:
        # plain tuples while recording: building a Span costs as much
        # as the rest of the wrapper
        self._raw: List[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: List[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.query = None
            return self._local.stack

    @property
    def spans(self) -> List[Span]:
        return [Span._make(raw) for raw in self._raw]

    @contextlib.contextmanager
    def span(self, name: str, query: Optional[int] = None) -> Iterator[None]:
        """Record one span on the calling thread round the ``with`` body.

        The benchmark's client loop opens its root span with this,
        giving the query's identifier; wrapped calls nest below it.
        """
        stack, local = self._stack(), self._local
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        saved = local.query
        if query is not None:
            local.query = query
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._raw.append(
                (span_id, name, start, end, parent, local.query, self.phase, None)
            )
            local.query = saved

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        """The timing wrapper for ``fn``, by the target's kind."""
        tracer, local, raw, ids = self, self._local, self._raw, self._ids
        name, note = target.span, target.note
        clock = time.perf_counter

        if target.kind == "map":

            @functools.wraps(fn)
            def traced_map(pool, task, items):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                query = local.query

                def carried(item):
                    inner = tracer._stack()
                    saved = local.query
                    inner.append(parent)
                    local.query = query
                    try:
                        return task(item)
                    finally:
                        inner.pop()
                        local.query = saved

                return fn(pool, carried, items)

            return traced_map

        if target.kind == "generator":

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        stack = tracer._stack()
                        span_id = next(ids)
                        parent = stack[-1] if stack else None
                        stack.append(span_id)
                        start = clock()
                        try:
                            value = next(inner)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            stack.pop()
                            raw.append(
                                (span_id, name, start, clock(), parent, local.query, tracer.phase, None)
                            )
                        yield value
                finally:
                    inner.close()

            return traced_generator

        # the hot path: a few dozen of these run per query
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                raw.append(
                    (
                        span_id,
                        name,
                        start,
                        end,
                        parent,
                        local.query,
                        tracer.phase,
                        note(result) if note is not None and result is not None else None,
                    )
                )

        if target.kind == "submit":

            @functools.wraps(fn)
            def traced_submit(*args, **kwargs):
                handle = traced(*args, **kwargs)
                stack = tracer._stack()
                if stack:
                    # whoever drains the handle continues this client's span
                    handle._e2e_link = (stack[0], local.query)
                return handle

            return traced_submit

        if target.kind == "drain":

            @functools.wraps(fn)
            def traced_drain(handle):
                stack = tracer._stack()
                link = getattr(handle, "_e2e_link", None)
                if stack or link is None:
                    return traced(handle)
                stack.append(link[0])  # a pool worker, on the client's behalf
                local.query = link[1]
                try:
                    return traced(handle)
                finally:
                    stack.pop()
                    local.query = None

            return traced_drain

        return traced

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            if target.owner is not None:
                owner = getattr(owner, target.owner)
            original = owner.__dict__[target.attr]
            self._originals.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    Children may overlap (morsel threads run side by side) and may sit
    on another thread (a pool worker draining a client's handle), so
    the covered part is the union of the child intervals clipped to
    the parent's own interval.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Row(NamedTuple):
    calls: int
    self_seconds: float


def span_table(
    spans: Iterable[Span], phase: str, own: Optional[Dict[int, float]] = None
) -> Dict[str, Row]:
    """Calls and summed self time per span name, for spans of one phase.

    Self times are computed over all spans (pass ``own`` to reuse
    them), so a parent in this phase still has its children subtracted.
    """
    spans = list(spans)
    if own is None:
        own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    seconds: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.phase == phase:
            calls[span.name] += 1
            seconds[span.name] += own[span.id]
    return {name: Row(calls[name], seconds[name]) for name in calls}


def total(table: Dict[str, Row], *prefixes: str) -> Row:
    """The rows whose span name starts with one of ``prefixes``, summed."""
    rows = [row for name, row in table.items() if name.startswith(prefixes)]
    return Row(sum(r.calls for r in rows), sum(r.self_seconds for r in rows))


def layer_table(table: Dict[str, Row]) -> Dict[str, Row]:
    """A span table summed by layer."""
    return {
        layer: total(table, layer + ".") for layer in {layer_of(name) for name in table}
    }
