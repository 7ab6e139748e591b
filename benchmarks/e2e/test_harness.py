"""Tests of the benchmark harness itself (not part of tier-1).

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run
import trace as e2e_trace
import workloads as wl

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _head(workload, seed, client, count=200):
    ops = itertools.islice(wl.stream_for(workload, seed, client), count)
    return [(op.query.fingerprint(), repr(op.contract)) for op in ops]


@pytest.mark.parametrize("name", list(wl.workloads()))
def test_same_seed_gives_the_same_queries_and_contracts(name):
    workload = wl.workloads()[name]
    for client in range(workload.clients):
        assert _head(workload, 11, client) == _head(workload, 11, client)
    assert _head(workload, 11, 0) != _head(workload, 12, 0)
    if workload.clients > 1:
        assert _head(workload, 11, 0) != _head(workload, 11, 1)


def test_memory_pressure_asks_what_explore_focal_asks_but_no_hot_query_exactly():
    both = wl.workloads()
    pressure = _head(both["memory_pressure"], 11, 0, 2000)
    explore = _head(both["explore_focal"], 11, 0, 2000)
    differing = [(p, e) for p, e in zip(pressure, explore) if p != e]
    assert 0 < len(differing) < 0.03 * len(explore)
    assert all("exact" in p[1] and p[1] == e[1] for p, e in differing)
    hot = {query.fingerprint() for query in wl.hot_pool(11)}
    assert all(e[0] in hot and p[0] not in hot for p, e in differing)


def test_contract_mix_is_dealt_in_exact_shares():
    ops = itertools.islice(wl.explore_stream(11, 0), 400)
    contracts = [repr(op.contract) for op in ops]
    assert contracts.count("None") == 200
    assert sum("bronze" in c for c in contracts) == 100
    assert sum("gold" in c for c in contracts) == 80
    assert sum("exact" in c for c in contracts) == 20


def test_self_time_is_duration_minus_what_children_cover():
    def span(id, name, start, end, parent):
        return e2e_trace.Span(id, name, start, end, parent, 1, "timed", None)

    spans = [
        span(0, "client.query", 0.0, 10.0, None),
        span(1, "server.session_execute", 1.0, 9.0, 0),
        span(2, "operators.select", 2.0, 5.0, 1),
        # two morsel threads side by side: covered once, from 2.5 to 4.5
        span(3, "column.read_range", 2.5, 4.0, 2),
        span(4, "column.read_range", 3.0, 4.5, 2),
        # a worker on another thread that outlives its parent is clipped
        span(5, "handle.drain", 8.0, 9.5, 1),
    ]
    own = e2e_trace.self_times(spans)
    assert own[0] == pytest.approx(2.0)
    assert own[1] == pytest.approx(8.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[3] == pytest.approx(1.5)
    assert own[5] == pytest.approx(1.5)
    table = e2e_trace.layer_table(e2e_trace.span_table(spans, "timed"))
    assert table["column"] == e2e_trace.Row(2, pytest.approx(3.0))
    assert table["client"].self_seconds == pytest.approx(2.0)
    assert e2e_trace.span_table(spans, "setup") == {}


def _targets():
    for target in e2e_trace.TARGETS:
        owner = importlib.import_module(target.module)
        if target.owner is not None:
            owner = getattr(owner, target.owner)
        yield owner, target.attr


def test_wrappers_are_removed_on_exit():
    before = [owner.__dict__[attr] for owner, attr in _targets()]
    tracer = e2e_trace.Tracer()
    with tracer:
        during = [owner.__dict__[attr] for owner, attr in _targets()]
        built = wl.build(wl.workloads()["explore_focal"], 20_000, 11)
        built.server.shutdown()
    after = [owner.__dict__[attr] for owner, attr in _targets()]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))
    assert {"loader", "sampling", "server", "engine", "bounded"} <= {
        e2e_trace.layer_of(span.name) for span in tracer.spans
    }
    # untraced again in the same process: nothing records
    recorded = len(tracer.spans)
    built = wl.build(wl.workloads()["explore_focal"], 20_000, 11)
    built.server.shutdown()
    assert len(tracer.spans) == recorded


def test_percentile_refuses_with_fewer_than_ten_samples_beyond_it():
    assert run.percentile(list(range(199)), 95) is None
    assert run.percentile(list(range(200)), 95) == pytest.approx(189.05)
    assert run.percentile(list(range(999)), 99) is None


def test_benchmark_json_lists_what_the_runner_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.workloads())
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


def test_compare_verdicts():
    tight = [100.0, 101.0, 99.0, 100.5]
    noisy = [100.0, 140.0, 70.0, 120.0, 90.0]
    assert compare.verdict(tight, [102.0], "lower", 0.10) == "same"
    assert compare.verdict(tight, [115.0], "lower", 0.10) == "worse"
    assert compare.verdict(tight, [85.0], "lower", 0.10) == "better"
    assert compare.verdict(tight, [85.0], "higher", 0.10) == "worse"
    assert compare.verdict(noisy, [115.0], "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [60.0, 65.0], "lower", 0.10) == "better"


def test_smoke_of_all_four_workloads():
    started = time.perf_counter()
    for name in wl.workloads():
        for trace in ("0", "1") if name == "ingest_mixed" else ("0",):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name]
                + ["--rows", "100000", "--seconds", "1", "--trace", trace],
                stdout=subprocess.PIPE,
                text=True,
            )
            result = json.loads(child.stdout.rstrip("\n").split("\n")[-1])
            assert result["attempted"] > 0 and result["failed"] == 0, child.stdout
            names = run.PER_LAYER if trace == "1" else run.END_TO_END
            assert set(result["metrics"]) <= set(names)
    assert time.perf_counter() - started < 30
