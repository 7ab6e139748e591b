"""Benchmark harness: experiment records, fixtures, shape checks.

Every benchmark in ``benchmarks/`` regenerates one of the paper's
evaluation artefacts (README, "Layout of claims to evidence").  This
subpackage supplies the shared machinery: a deterministic experiment
context (seeded engine + populated SkyServer), result records that
print as the paper's rows/series, and the *shape assertions* that
encode "who wins, by roughly what factor, where crossovers fall"
without pinning absolute numbers.
"""

# NOTE: repro.bench.gates is deliberately not re-exported here — the
# package is imported before ``python -m repro.bench.gates`` executes
# the module, and an eager import would run it twice (runpy warns).
from repro.bench.harness import (
    ExperimentContext,
    figure4_series,
    figure7_series,
    build_experiment_context,
)
from repro.bench.report import print_series, print_histogram_panel

__all__ = [
    "ExperimentContext",
    "figure4_series",
    "figure7_series",
    "build_experiment_context",
    "print_series",
    "print_histogram_panel",
]
