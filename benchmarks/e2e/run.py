"""End-to-end benchmark: SkyServer workloads through a default SciBorqServer.

One workload, as the benchmark driver runs it (the last line of
standard output is the result object)::

    python3 benchmarks/e2e/run.py --workload explore_focal --seed 11 --seconds 10 --trace 0

All four workloads, each untraced and traced in a fresh subprocess,
tables printed, ``results.json`` and ``trace-<workload>.jsonl`` written
to ``--out``::

    python3 benchmarks/e2e/run.py [--seed 11] [--out DIR] [--repeat N]

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` reports the per-layer metrics: the timed phase alternates
between segments with :mod:`trace` installed and segments without, on
one server, so the two halves see the same state and what tracing
costs is their throughput ratio.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e needs the engine under {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import trace as e2e_trace  # noqa: E402  (benchmarks/e2e/trace.py: the script's directory leads sys.path)
import verify  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SECONDS = 10
SETUPS_PER_RUN = 3
THROWAWAY_ROWS = 100_000
#: a ``--trace 1`` timed phase alternates untraced and traced segments
#: of this many queries per client: one contract block and one ingest
#: cycle, so both halves see the same mix of work
TRACE_SEGMENT_QUERIES = 20

#: name -> unit, in print order.  BENCHMARK.json carries the same names
#: with direction and bound; test_harness.py holds the two equal.
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "tuples_per_query": "tuples",
    "contract_met_ratio": "ratio",
    "ci_coverage": "ratio",
    "peak_rss_mb": "MB",
}

#: layer -> the metric carrying its timed-phase self time per query
SELF_MS_PQ = {
    "server": "server.self_ms_pq",
    "handle": "handle.self_ms_pq",
    "engine": "engine.self_ms_pq",
    "bounded": "bounded.self_ms_pq",
    "impression": "impression.materialise_ms_pq",
    "quality": "quality.estimate_self_ms_pq",
    "estimators": "estimators.ms_pq",
    "executor": "executor.select_indices_self_ms_pq",
    "recycler": "recycler.ms_pq",
    "scheduler": "scheduler.scan_self_ms_pq",
    "governor": "governor.enforce_ms_pq",
    "monitor": "monitor.observe_ms_pq",
    "workload": "workload.log_ms_pq",
}

PER_LAYER = {
    **{name: "ms" for name in SELF_MS_PQ.values()},
    "server.ingest_self_ms": "ms",
    "server.ingest_rows_per_s": "rows/s",
    "handle.queue_ms_p50": "ms",
    "handle.run_ms_p50": "ms",
    "handle.updates_pq": "count",
    "bounded.rungs_pq": "count",
    "bounded.delta_rows_pq": "rows",
    "impression.materialise_calls": "count",
    "quality.true_error_p95": "ratio",
    "executor.scans_pq": "count",
    "recycler.hit_ratio": "ratio",
    "recycler.evictions": "count",
    "scheduler.mean_batch_size": "scans",
    "scheduler.dedup_ratio": "ratio",
    "scheduler.tuples_saved_pq": "tuples",
    "operators.select_ms_pq": "ms",
    "operators.aggregate_ms_pq": "ms",
    "operators.rows_scanned_pq": "rows",
    "operators.blocks_pruned_ratio": "ratio",
    "column.read_ms_pq": "ms",
    "column.promote_ms_pq": "ms",
    "column.decompressions_pq": "count",
    "table.take_ms_pq": "ms",
    "table.append_ms_per_batch": "ms",
    "governor.demotions": "count",
    "governor.promotions": "count",
    "governor.resident_bytes": "bytes",
    "loader.load_batch_ms_per_batch": "ms",
    "sampling.offer_ms_per_batch": "ms",
    "builder.on_batch_ms_per_batch": "ms",
    "maintenance.maintain_ms_per_call": "ms",
    "maintenance.refreshes": "count",
    "setup.loader_self_ms": "ms",
    "setup.sampling_self_ms": "ms",
    "setup.builder_self_ms": "ms",
    "setup.table_self_ms": "ms",
    "setup.impression_self_ms": "ms",
    "setup.column_self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


def percentile(values, p: float) -> Optional[float]:
    """The ``p``-th percentile, or None with fewer than ten samples beyond it."""
    if len(values) * (1.0 - p / 100.0) < 10:
        return None
    return float(np.percentile(values, p))


# ----------------------------------------------------------------------
# the timed phase
# ----------------------------------------------------------------------
@dataclass
class Record:
    """One attempted query, as its client saw it."""

    op: wl.Op
    #: rows of the table when the query ran (ingest_mixed grows it)
    visible_rows: int
    latency: float = 0.0
    #: ``time.perf_counter()`` when the answer arrived
    finished: float = 0.0
    outcome: object = None
    error: Optional[BaseException] = None
    queue_seconds: Optional[float] = None
    run_seconds: Optional[float] = None
    updates: int = 0


@dataclass
class Client:
    """One closed-loop session and its place in its query stream."""

    index: int
    session: object
    ops: Iterator[wl.Op]
    asked: int = 0


@dataclass
class Phase:
    """What the timed phase produced, summed over its segments."""

    #: ``time.perf_counter()`` when the latest segment started
    started: float = 0.0
    wall_seconds: float = 0.0
    #: answered queries per second of each segment, in order
    segment_qps: List[float] = field(default_factory=list)
    records: List[Record] = field(default_factory=list)
    ingest_rows: int = 0
    ingest_seconds: float = 0.0
    maintain_calls: int = 0
    maintain_seconds: float = 0.0
    refreshes: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    checks: verify.Checks = field(default_factory=verify.Checks)

    @property
    def answered(self) -> List[Record]:
        return [r for r in self.records if r.error is None]

    @property
    def failed(self) -> int:
        return len(self.records) - len(self.answered) + len(self.checks.failures)


def counters(built: wl.Built) -> Dict[str, float]:
    """The engine's own counts, read at a segment boundary."""
    engine, server = built.engine, built.server
    tables = [engine.catalog.table(name) for name in engine.catalog.table_names]
    for layer in engine.hierarchy(wl.TABLE).layers:
        cached = layer.cached_table()
        if cached is not None:
            tables.append(cached)
    recycled, scans = engine.recycler.stats, server.scheduler.stats
    out = {
        "decompressions": sum(
            t.column(name).decompressions for t in tables for name in t.column_names
        ),
        "recycler_hits": recycled.hits,
        "recycler_misses": recycled.misses,
        "recycler_evictions": recycled.evictions,
        "scans": scans.scans,
        "batches": scans.batches,
        "convoy_scans": scans.convoy_scans,
        "deduped_scans": scans.deduped_scans,
        "tuples_saved": scans.tuples_saved,
    }
    governor = server.memory_governor
    if governor is not None:
        out["demotions"] = governor.stats.demotions_warm + governor.stats.demotions_cold
        out["promotions"] = governor.stats.promotions
    return out


def run_client(
    built: wl.Built,
    workload: wl.Workload,
    client: Client,
    deadline: float,
    queries: float,
    phase: Phase,
    tracer: Optional[e2e_trace.Tracer],
    lock: threading.Lock,
) -> None:
    """Ask, wait for the answer, ask again: ``queries`` times or until the deadline."""
    server, session = built.server, client.session
    table = built.engine.catalog.table(wl.TABLE)
    mine = Phase()  # this thread's share, merged under the lock at the end
    clock = time.perf_counter
    while len(mine.records) < queries and clock() < deadline:
        op = next(client.ops)
        client.asked += 1
        if workload.ingest_every and client.asked % workload.ingest_every == 0:
            batch = built.generator.photoobj_batch(wl.INGEST_ROWS)
            start = clock()
            mine.ingest_rows += server.ingest(wl.TABLE, batch)
            mine.ingest_seconds += clock() - start
        if workload.maintain_every and client.asked % workload.maintain_every == 0:
            start = clock()
            reports = server.maintain()
            mine.maintain_seconds += clock() - start
            mine.maintain_calls += 1
            mine.refreshes += sum(len(r) for r in reports.values())
        record = Record(op, table.num_rows)
        root = (
            tracer.span("client.query", client.index * 10_000_000 + client.asked)
            if tracer is not None
            else contextlib.nullcontext()
        )
        start = clock()
        try:
            with root:
                if workload.issue == "submit":
                    handle = session.submit(op.query, op.contract)
                    record.outcome = handle.result()
                else:
                    record.outcome = session.execute(op.query, op.contract)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            record.error = exc
        record.finished = clock()
        record.latency = record.finished - start
        if workload.issue == "submit" and record.error is None:
            record.queue_seconds = handle.queue_seconds
            record.run_seconds = handle.run_seconds
            record.updates = len(handle.updates)
        mine.records.append(record)
    with lock:
        phase.records.extend(mine.records)
        for tally in ("ingest_rows", "ingest_seconds", "maintain_calls", "maintain_seconds", "refreshes"):
            setattr(phase, tally, getattr(phase, tally) + getattr(mine, tally))


def run_segment(
    built: wl.Built,
    workload: wl.Workload,
    clients: List[Client],
    phase: Phase,
    seconds: float = float("inf"),
    queries: float = float("inf"),
    tracer: Optional[e2e_trace.Tracer] = None,
) -> None:
    """Drive every client for ``seconds`` or ``queries`` each; add to ``phase``."""
    before = counters(built)
    answered_before = len(phase.answered)
    lock = threading.Lock()
    start = phase.started = time.perf_counter()
    threads = [
        threading.Thread(
            target=run_client,
            args=(built, workload, c, start + seconds, queries, phase, tracer, lock),
        )
        for c in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    phase.wall_seconds += wall
    phase.segment_qps.append((len(phase.answered) - answered_before) / wall)
    for key, value in counters(built).items():
        phase.counters[key] = phase.counters.get(key, 0) + value - before[key]
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(built: wl.Built, *phases: Phase) -> None:
    """The untimed pass: every answer against the benchmark's own truth."""
    truth = verify.Truth(built.generator.truth())
    for phase in phases:
        for record in phase.answered:
            verify.check_answer(truth, record, phase.checks)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
THROUGHPUT_SLICES = 10


def throughput(phase: Phase) -> float:
    """Answers per second: the median over ten equal slices of the phase.

    The box stalls for a second or two now and then.  That moves one
    slice; it would move the plain quotient by a tenth or more.
    """
    width = phase.wall_seconds / THROUGHPUT_SLICES
    finished = np.array([r.finished - phase.started for r in phase.answered])
    counts = np.bincount(
        np.minimum((finished / width).astype(int), THROUGHPUT_SLICES - 1),
        minlength=THROUGHPUT_SLICES,
    )
    return float(np.median(counts)) / width


def end_to_end(phase: Phase, setups: List[float]) -> Dict[str, Optional[float]]:
    answered = phase.answered
    latencies = [r.latency * 1e3 for r in answered]
    return {
        "setup_s": statistics.median(setups),
        "throughput_qps": throughput(phase),
        "latency_p50_ms": float(np.median(latencies)),
        "latency_p95_ms": percentile(latencies, 95),
        "tuples_per_query": float(np.mean([r.outcome.total_cost for r in answered])),
        "contract_met_ratio": float(np.mean([r.outcome.met_quality for r in answered])),
        "ci_coverage": float(np.mean(phase.checks.covered)),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    built: wl.Built, traced: Phase, untraced: Phase, tracer: e2e_trace.Tracer
) -> Dict[str, float]:
    spans = tracer.spans
    own = e2e_trace.self_times(spans)
    timed = [s for s in spans if s.phase == "timed"]
    table = e2e_trace.span_table(spans, "timed", own)
    layers = e2e_trace.layer_table(table)
    setup = e2e_trace.layer_table(e2e_trace.span_table(spans, "setup", own))
    answered = traced.answered
    queries = len(answered)
    c = traced.counters

    def calls(prefix: str) -> int:
        return e2e_trace.total(table, prefix).calls

    def self_ms(*prefixes: str) -> float:
        return e2e_trace.total(table, *prefixes).self_seconds * 1e3

    metrics = {
        name: (layers[layer].self_seconds * 1e3 / queries if layer in layers else 0.0)
        for layer, name in SELF_MS_PQ.items()
    }
    roots = [s for s in timed if s.name == "client.query"]
    gathering = {s.parent for s in timed if s.name == "column.take"}
    selects = [s.note for s in timed if s.name.startswith("operators.select")]
    queue = [r.queue_seconds * 1e3 for r in answered if r.queue_seconds is not None]
    run = [r.run_seconds * 1e3 for r in answered if r.run_seconds is not None]
    attempts = [a for r in answered for a in r.outcome.attempts]
    governor = built.server.memory_governor
    metrics.update(
        {
            "server.ingest_self_ms": _ratio(self_ms("server.ingest"), calls("server.ingest")),
            "server.ingest_rows_per_s": _ratio(traced.ingest_rows, traced.ingest_seconds),
            "handle.queue_ms_p50": float(np.median(queue)) if queue else 0.0,
            "handle.run_ms_p50": float(np.median(run)) if run else 0.0,
            "handle.updates_pq": sum(r.updates for r in answered) / queries,
            "bounded.rungs_pq": len(attempts) / queries,
            "bounded.delta_rows_pq": sum(a.delta_rows or 0 for a in attempts) / queries,
            # a call that gathers rows; a cached table costs nothing
            "impression.materialise_calls": sum(
                1 for s in timed if s.name.startswith("impression.") and s.id in gathering
            ),
            "quality.true_error_p95": percentile(traced.checks.relative_errors, 95),
            "executor.scans_pq": calls("executor.select_indices") / queries,
            "recycler.hit_ratio": _ratio(
                c["recycler_hits"], c["recycler_hits"] + c["recycler_misses"]
            ),
            "recycler.evictions": c["recycler_evictions"],
            "scheduler.mean_batch_size": _ratio(c["convoy_scans"], c["batches"]),
            "scheduler.dedup_ratio": _ratio(c["deduped_scans"], c["scans"]),
            "scheduler.tuples_saved_pq": c["tuples_saved"] / queries,
            "operators.select_ms_pq": self_ms("operators.select") / queries,
            "operators.aggregate_ms_pq": self_ms(
                "operators.aggregate", "operators.group_aggregate"
            )
            / queries,
            "operators.rows_scanned_pq": sum(n[0] for n in selects) / queries,
            "operators.blocks_pruned_ratio": _ratio(
                sum(n[2] for n in selects), sum(n[1] + n[2] for n in selects)
            ),
            "column.read_ms_pq": self_ms(
                "column.read_range", "column.gather_with_error", "column.take"
            )
            / queries,
            "column.promote_ms_pq": self_ms("column.promote") / queries,
            "column.decompressions_pq": c["decompressions"] / queries,
            "table.take_ms_pq": self_ms("table.take") / queries,
            "table.append_ms_per_batch": _ratio(
                self_ms("table.append_batch"), calls("table.append_batch")
            ),
            "governor.demotions": c.get("demotions", 0),
            "governor.promotions": c.get("promotions", 0),
            "governor.resident_bytes": (
                governor.stats.last_footprint if governor is not None else 0
            ),
            "loader.load_batch_ms_per_batch": _ratio(self_ms("loader."), calls("loader.")),
            "sampling.offer_ms_per_batch": _ratio(self_ms("sampling."), calls("sampling.")),
            "builder.on_batch_ms_per_batch": _ratio(self_ms("builder."), calls("builder.")),
            "maintenance.maintain_ms_per_call": _ratio(
                traced.maintain_seconds * 1e3, traced.maintain_calls
            ),
            "maintenance.refreshes": traced.refreshes,
        }
    )
    for layer in ("loader", "sampling", "builder", "table", "impression", "column"):
        metrics[f"setup.{layer}_self_ms"] = (
            setup[layer].self_seconds * 1e3 if layer in setup else 0.0
        )
    # median over the untraced/traced segment pairs: a segment that
    # caught a re-materialisation or a promotion is several times slower
    # than its neighbour, whichever kind it is
    metrics["trace.overhead_ratio"] = (
        statistics.median(
            _ratio(u, t) for u, t in zip(untraced.segment_qps, traced.segment_qps)
        )
        - 1.0
    )
    metrics["trace.unattributed_share"] = _ratio(
        sum(own[s.id] for s in roots), sum(s.end - s.start for s in roots)
    )
    return metrics


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def timed_setup(workload: wl.Workload, rows: int, seed: int) -> tuple[wl.Built, float]:
    gc.collect()
    start = time.perf_counter()
    built = wl.build(workload, rows, seed)
    return built, time.perf_counter() - start


def clients_of(built: wl.Built, workload: wl.Workload, seed: int) -> List[Client]:
    return [
        Client(index, session, wl.stream_for(workload, seed, index))
        for index, session in enumerate(built.sessions)
    ]


def measure_untraced(workload: wl.Workload, args) -> tuple[dict, List[Phase], wl.Built]:
    setups = []
    for _ in range(SETUPS_PER_RUN - 1):
        built, seconds = timed_setup(workload, args.rows, args.seed)
        setups.append(seconds)
        built.server.shutdown()
        del built
    built, seconds = timed_setup(workload, args.rows, args.seed)
    setups.append(seconds)
    phase = Phase()
    clients = clients_of(built, workload, args.seed)
    run_segment(built, workload, clients, phase, seconds=args.seconds)
    check(built, phase)
    return end_to_end(phase, setups), [phase], built


def measure_traced(workload: wl.Workload, args) -> tuple[dict, List[Phase], wl.Built]:
    tracer = e2e_trace.Tracer()
    with tracer:
        built, _ = timed_setup(workload, args.rows, args.seed)
    tracer.phase = "timed"
    clients = clients_of(built, workload, args.seed)
    untraced, traced = Phase(), Phase()
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        run_segment(built, workload, clients, untraced, queries=TRACE_SEGMENT_QUERIES)
        with tracer:
            run_segment(
                built, workload, clients, traced, queries=TRACE_SEGMENT_QUERIES, tracer=tracer
            )
    check(built, untraced, traced)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(Path(args.out) / f"trace-{workload.name}.jsonl")
    return per_layer(built, traced, untraced, tracer), [untraced, traced], built


def run_workload(args) -> int:
    workload = wl.workloads()[args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    with tempfile.TemporaryDirectory(prefix=".e2e-tmp-", dir=HERE) as scratch:
        # cold blocks spill to anonymous temporary files: keep them in here
        tempfile.tempdir = scratch
        try:
            wl.build_engine(THROWAWAY_ROWS, args.seed)  # imports and allocator warm
            measure = measure_traced if args.trace else measure_untraced
            metrics, phases, built = measure(workload, args)
            built.server.shutdown()
        finally:
            tempfile.tempdir = None
    assert list(metrics) == list(units), "metric list and unit table disagree"
    attempted = sum(len(p.records) for p in phases)
    failed = sum(p.failed for p in phases)
    samples = len(phases[-1].answered)
    estimates = len(phases[-1].checks.covered)
    print(
        f"# {workload.name}: seed={args.seed} rows={args.rows} seconds={args.seconds:g} "
        f"trace={args.trace} clients={workload.clients} nproc={os.cpu_count()} "
        f"max_workers={built.server.max_workers} queries={samples} "
        f"estimates_checked={estimates} exact_checked={phases[-1].checks.exact_checked} "
        f"failed_ratio={failed / max(attempted, 1):g}"
    )
    for name, value in metrics.items():
        shown = "refused: too few samples" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>14s} {units[name]}")
    if not args.trace:
        # printed, not reported: neither repeats within a tenth across seeds
        for name, value, unit in (
            ("latency_p99_ms", percentile([r.latency * 1e3 for r in phases[0].answered], 99), "ms"),
            ("true_error_p95", percentile(phases[0].checks.relative_errors, 95), "ratio"),
        ):
            if value is not None:
                print(f"{'(' + name + ', information only)':36s} {value:>14.6g} {unit}")
    for phase in phases:
        for failure in phase.checks.failures[:10]:
            print(f"FAILED CHECK: {failure}")
        for record in [r for r in phase.records if r.error is not None][:10]:
            print(f"FAILED QUERY: {record.error!r}")
    correct = failed == 0 and attempted > 0 and None not in metrics.values()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if value is not None
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# all workloads, one subprocess each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    out = Path(args.out or HERE / "out")
    out.mkdir(parents=True, exist_ok=True)
    results = {
        "seed": args.seed,
        "rows": args.rows,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    status = 0
    for name in wl.workloads():
        entry = results["workloads"][name] = {"end_to_end": [], "per_layer": None}
        for trace in [0] * args.repeat + [1]:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--trace", str(trace)]
                + ["--seed", str(args.seed), "--seconds", str(args.seconds)]
                + ["--rows", str(args.rows), "--out", str(out)],
                stdout=subprocess.PIPE,
                text=True,
            )
            *table, last = child.stdout.rstrip("\n").split("\n")
            print("\n".join(table), flush=True)
            status = status or child.returncode
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                print(last)
                continue
            if trace:
                entry["per_layer"] = result
            else:
                entry["end_to_end"].append(result)
    (out / "results.json").write_text(json.dumps(results, indent=1))
    print(f"# wrote {out / 'results.json'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.workloads()))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=wl.DEFAULT_ROWS)
    parser.add_argument("--out", help="directory for results.json and trace-*.jsonl")
    parser.add_argument(
        "--repeat", type=int, default=1, help="untraced runs per workload (all-workloads mode)"
    )
    args = parser.parse_args(argv)
    return run_all(args) if args.workload is None else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
