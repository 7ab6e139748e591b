"""Shared experiment fixtures for the benchmark suite.

The Figure-4 and Figure-7 pipelines live here (rather than inside the
benchmark files) so integration tests can assert their shape
properties and the benchmarks only add timing and printing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.engine import SciBorq
from repro.skyserver.generator import SkyGenerator, build_skyserver
from repro.skyserver.schema import DEC_RANGE, RA_RANGE, create_skyserver_catalog
from repro.skyserver.workload_gen import WorkloadGenerator
from repro.stats.bandwidth import (
    oversmoothed_bandwidth,
    silverman_bandwidth,
    undersmoothed_bandwidth,
)
from repro.stats.histogram import EquiWidthHistogram, PredicateHistogram
from repro.stats.kde import BinnedKDE, ExactKDE
from repro.util.rng import RandomSource, spawn_rngs


@dataclass
class ExperimentContext:
    """A populated engine + workload, the common experiment setting."""

    engine: SciBorq
    workload: WorkloadGenerator
    generator: SkyGenerator
    n_objects: int

    @property
    def catalog(self):
        """The engine's catalog (convenience)."""
        return self.engine.catalog


def build_experiment_context(
    n_objects: int = 200_000,
    policy: str = "uniform",
    layer_sizes: Tuple[int, ...] = (20_000, 2_000, 200),
    warmup_queries: int = 0,
    rng: RandomSource = 1234,
) -> ExperimentContext:
    """Build a seeded SkyServer + engine + workload generator.

    ``warmup_queries`` predicate-logs that many workload queries into
    the engine's interest model *before* anything else — the state a
    biased policy needs to exist.
    """
    data_rng, workload_rng, engine_rng = spawn_rngs(rng, 3)
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=engine_rng,
    )
    workload = WorkloadGenerator(rng=workload_rng)
    if warmup_queries:
        for query in workload.queries(warmup_queries):
            engine.collector.observe(query)
    engine.create_hierarchy("PhotoObjAll", policy=policy, layer_sizes=layer_sizes)
    generator = SkyGenerator(rng=data_rng)
    build_skyserver(n_objects, generator=generator, loader=engine.loader)
    return ExperimentContext(
        engine=engine,
        workload=workload,
        generator=generator,
        n_objects=n_objects,
    )


# ----------------------------------------------------------------------
# Figure 4: predicate-set histogram + the four density curves
# ----------------------------------------------------------------------
def figure4_series(
    predicate_values: np.ndarray,
    domain: Tuple[float, float],
    bins: int = 30,
    grid_points: int = 120,
) -> Dict[str, np.ndarray]:
    """All five panels of one Figure-4 row for one attribute.

    Returns the evaluation grid, the equi-width histogram (counts and
    density), and the four curves: ``f̂`` at a reference bandwidth,
    the oversmoothed and undersmoothed variants, and the binned ``f̆``.
    """
    values = np.asarray(predicate_values, dtype=float)
    hist = PredicateHistogram(domain[0], domain[1], bins)
    hist.observe_batch(values)
    grid = np.linspace(domain[0], domain[1], grid_points)
    h_star = silverman_bandwidth(values)
    f_hat = ExactKDE(values, h_star)
    f_over = ExactKDE(values, oversmoothed_bandwidth(values))
    f_under = ExactKDE(values, undersmoothed_bandwidth(values))
    f_breve = BinnedKDE(hist)
    return {
        "grid": grid,
        "hist_counts": hist.counts.astype(float),
        "hist_edges": hist.edges,
        "hist_density": hist.density(),
        "f_hat": f_hat(grid),
        "oversmoothed": f_over(grid),
        "undersmoothed": f_under(grid),
        "f_breve": f_breve(grid),
        "bandwidth": np.array([h_star]),
        "n_predicates": np.array([values.shape[0]]),
    }


# ----------------------------------------------------------------------
# Figure 7: base data vs uniform vs biased impression histograms
# ----------------------------------------------------------------------
def figure7_series(
    base_values: np.ndarray,
    uniform_values: np.ndarray,
    biased_values: np.ndarray,
    domain: Tuple[float, float],
    bins: int = 30,
    focal_density: np.ndarray | None = None,
    focal_threshold: float = 1.5,
) -> Dict[str, np.ndarray]:
    """One Figure-7 row: three histograms + representation metrics.

    ``focal_density`` (the interest density evaluated at bin centres)
    marks *focal bins* — those with density above ``focal_threshold``
    times uniform.  The returned metrics quantify the paper's claim:
    the biased impression's histogram proportions are closer to the
    base data's inside the focal bins, and it simply holds more focal
    tuples.
    """
    base = EquiWidthHistogram(domain[0], domain[1], bins)
    base.observe_batch(np.asarray(base_values, dtype=float))
    uniform = EquiWidthHistogram(domain[0], domain[1], bins)
    uniform.observe_batch(np.asarray(uniform_values, dtype=float))
    biased = EquiWidthHistogram(domain[0], domain[1], bins)
    biased.observe_batch(np.asarray(biased_values, dtype=float))

    out: Dict[str, np.ndarray] = {
        "edges": base.edges,
        "centers": base.centers,
        "base_counts": base.counts.astype(float),
        "uniform_counts": uniform.counts.astype(float),
        "biased_counts": biased.counts.astype(float),
        "base_proportions": base.proportions(),
        "uniform_proportions": uniform.proportions(),
        "biased_proportions": biased.proportions(),
    }
    if focal_density is not None:
        focal_density = np.asarray(focal_density, dtype=float)
        uniform_level = 1.0 / (domain[1] - domain[0])
        focal_bins = focal_density > focal_threshold * uniform_level
        out["focal_bins"] = focal_bins
        out["uniform_focal_fraction"] = np.array(
            [uniform.proportions()[focal_bins].sum()]
        )
        out["biased_focal_fraction"] = np.array(
            [biased.proportions()[focal_bins].sum()]
        )
        out["base_focal_fraction"] = np.array(
            [base.proportions()[focal_bins].sum()]
        )
    return out
