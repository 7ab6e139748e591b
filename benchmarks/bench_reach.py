"""E13 — reach: how much of the engine the repo benchmark runs.

A module earns its place by being imported from the served system
(``tests/test_reachability.py``); code the benchmark never *runs*
passes that bar all the same.  This benchmark measures the gap: it
runs the repo benchmark's driver in-process on every workload
(``benchmarks/e2e/run.py --workload W --seconds 3 --trace 0 --seed 5``
under ``--smoke``, 10 s per workload otherwise), records every Python
call event with ``sys.setprofile`` / ``threading.setprofile``, and
counts, per ``def`` under ``src/repro`` (found by AST), the lines from
the ``def`` line to its last.  A def whose code was never
entered contributes all its lines to ``never_entered_lines``.  Nested
defs count in their parent too, so the figures are approximate; they
are a work count, not a wall time.

Standalone (``python benchmarks/bench_reach.py [--smoke]``).  Writes
``BENCH_reach.json``: the totals under ``reach`` and, under
``modules``, the executed and never-entered lines of every module
with its never-entered defs (``never_entered``: qualified name, line
of the ``def``, line count), so an earn-or-delete verdict reads its
candidates off the report.  Thread
interleaving moves the figure by a few lines between runs, so it is
recorded, not gated.
"""

import argparse
import ast
import contextlib
import io
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
E2E = ROOT / "benchmarks" / "e2e"
WORKLOADS = ("explore_focal", "base_scan", "memory_pressure", "ingest_mixed")
SEED = 5


def function_lines(path: Path) -> dict:
    """``{first line of the def's code object: (qualified name, def
    line, lines)}`` for every def of one source file, nested ones
    included (``Class.method``, ``outer.inner``).

    A decorated function's code object starts at its first decorator,
    so that is the key the profiler's call events are matched on.
    """
    spans = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                spans[first] = (name, child.lineno, child.end_lineno - child.lineno + 1)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return spans


def record_calls(seconds: float) -> tuple:
    """Run every workload under the call recorder.

    Returns the code objects entered and each workload's exit status.
    The driver is imported only now, so the engine's own imports run
    under the recorder too.
    """
    entered = set()

    def recorder(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # benchmarks/e2e/trace.py shadows the standard library's ``trace``
    sys.path.insert(0, str(E2E))
    sys.modules.pop("trace", None)
    statuses = {}
    threading.setprofile(recorder)
    sys.setprofile(recorder)
    try:
        import run as e2e_run

        for workload in WORKLOADS:
            argv = [
                "--workload", workload, "--seconds", f"{seconds:g}",
                "--trace", "0", "--seed", str(SEED),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                statuses[workload] = e2e_run.main(argv)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return entered, statuses


def reach(entered: set) -> dict:
    """Executed and never-entered function lines, per module, with
    the defs never entered."""
    starts = {}
    for code in entered:
        path = os.path.realpath(code.co_filename)
        starts.setdefault(path, set()).add(code.co_firstlineno)
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        spans = function_lines(path)
        if not spans:
            continue
        hit = starts.get(os.path.realpath(path), set())
        total = sum(lines for _, _, lines in spans.values())
        never = [
            {"name": name, "line": line, "lines": lines}
            for first, (name, line, lines) in sorted(spans.items())
            if first not in hit
        ]
        never_lines = sum(entry["lines"] for entry in never)
        modules[path.relative_to(PACKAGE).as_posix()] = {
            "function_lines": total,
            "executed_lines": total - never_lines,
            "never_entered_lines": never_lines,
            "never_entered": never,
        }
    return modules


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="3 s per workload (the recipe the figures are quoted on)",
    )
    args = parser.parse_args()
    seconds = 3.0 if args.smoke else 10.0
    started = time.perf_counter()
    entered, statuses = record_calls(seconds)
    elapsed = time.perf_counter() - started
    modules = reach(entered)
    totals = {
        key: sum(module[key] for module in modules.values())
        for key in ("function_lines", "executed_lines", "never_entered_lines")
    }

    print(
        f"reach benchmark: {len(WORKLOADS)} workloads x {seconds:g} s, "
        f"seed {SEED} ({'smoke' if args.smoke else 'full'}), "
        f"{elapsed:.1f} s wall"
    )
    for workload, status in statuses.items():
        print(f"  {workload}: run.py exit {status}")
    print("== most never-entered function lines ==")
    ranked = sorted(
        modules.items(), key=lambda item: -item[1]["never_entered_lines"]
    )
    for name, module in ranked[:15]:
        print(
            f"  {name:36s} {module['never_entered_lines']:5d} of "
            f"{module['function_lines']:5d}"
        )
    print(
        f"never entered: {totals['never_entered_lines']} of "
        f"{totals['function_lines']} function lines"
    )

    from repro.bench.report import write_bench_report

    write_bench_report(
        "reach",
        {
            "mode": "smoke" if args.smoke else "full",
            "seconds_per_workload": seconds,
            "seed": SEED,
            "run_exit_status": statuses,
            "reach": totals,
            "modules": modules,
        },
    )


if __name__ == "__main__":
    main()
