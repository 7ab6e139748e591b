"""Population estimators with confidence intervals.

"Any scientific exploration, no matter how generic, is useful only if
strong error bounds are provided" (paper §3.2).  These estimators turn
the raw sample statistics an impression query produces into population
estimates with explicit error bounds:

* ``srs_*`` — simple-random-sample estimators with finite-population
  correction, valid for uniform (Algorithm R) impressions;
* ``ht_*`` / ``hajek_mean`` — Horvitz–Thompson and Hájek estimators
  for *biased* impressions, where every tuple carries the inclusion
  probability the sampler assigned it.  Unbiasedness holds for any
  inclusion design, which is exactly why biased impressions can still
  give correct answers — just with variance that depends on where the
  query lands relative to the focal points.

All functions return an :class:`Estimate` carrying the point value,
standard error, a normal-approximation confidence interval, and the
relative error half-width the bounded query processor compares against
the user's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.stats import norm

from repro.errors import EstimationError
from repro.util.validation import require, require_in_range


@lru_cache(maxsize=64)
def _z_quantile(confidence: float) -> float:
    """Normal quantile for a two-sided confidence level, memoised.

    ``norm.ppf`` costs ~40µs per call through scipy's argument
    machinery; every :class:`Estimate` consults it (often several
    times — half-width, CI, relative error), and a workload uses a
    handful of confidence levels at most, so this cache takes the
    quantile off the bounded-execution hot path entirely.
    """
    return float(norm.ppf(0.5 + confidence / 2.0))


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its uncertainty.

    ``relative_error`` is the half-width of the confidence interval
    divided by the absolute point estimate — the quantity a SciBORQ
    quality contract bounds ("accept only a specific upper limit on
    the error", paper §3.2).

    ``value_error`` is a *deterministic* worst-case bias bound on the
    point value, distinct from the sampling error ``se`` captures: it
    is how far the value could be off because the scan read
    error-bounded (quantised) blocks instead of raw bytes.  It widens
    ``half_width`` additively, so CIs, ``relative_error``, and
    contract checks all absorb it with no further plumbing; at 0.0
    (every touched block hot) everything collapses to today's widths.

    ``one_sided_bound`` takes the sampling term's place where ``se`` is
    0 only because a sample smaller than the population shows no
    spread (no match, or all matching): an exact one-sided bound on
    how far the truth lies from ``value`` — ≈ 3N/n for a uniform count
    with no match (the rule of three), ``inf`` where nothing bounds it
    (a sum or a biased sample over no match).  A zero estimate then
    has an infinite relative error, so the ladder climbs.
    """

    value: float
    se: float
    confidence: float
    method: str
    sample_size: int
    population_size: int | None = None
    value_error: float = 0.0
    one_sided_bound: float = 0.0

    @property
    def z(self) -> float:
        """Normal quantile for the two-sided confidence level."""
        return _z_quantile(self.confidence)

    @property
    def half_width(self) -> float:
        """Half the interval width: sampling term (or one-sided bound)
        plus value-error bound."""
        return self.z * self.se + self.one_sided_bound + self.value_error

    @property
    def ci(self) -> tuple[float, float]:
        """The (low, high) confidence interval."""
        return (self.value - self.half_width, self.value + self.half_width)

    @property
    def relative_error(self) -> float:
        """Half-width relative to the estimate (inf for a zero estimate)."""
        if self.value == 0.0:
            return math.inf if self.half_width > 0 else 0.0
        return self.half_width / abs(self.value)

    def contains(self, truth: float) -> bool:
        """Whether the interval covers ``truth`` (coverage tests)."""
        low, high = self.ci
        return low <= truth <= high

    def __str__(self) -> str:
        low, high = self.ci
        return (
            f"{self.value:.6g} ± {self.half_width:.3g} "
            f"[{low:.6g}, {high:.6g}] @{self.confidence:.0%} ({self.method})"
        )


def propagated_value_error(
    fn: str,
    delta: float,
    matched_weight: float,
    point: float = 0.0,
) -> float:
    """Worst-case drift of aggregate ``fn`` under per-value error ``delta``.

    ``delta`` is the max pointwise |read − raw| bound of the scanned
    values (0 when every touched block was hot); ``matched_weight`` is
    the estimated number of base rows the aggregate sums over (``N̂``
    for HT/SRS sums, the matched count for exact sums).  Per aggregate:

    * ``count`` → 0 — counts read no values.  (Predicate decisions
      over quantised values can flip near boundaries; nothing bounds
      those membership flips today — ROADMAP item 1(a).)
    * ``sum`` → ``delta · matched_weight`` — each contributing value
      drifts by at most delta, scaled by its weight.
    * ``avg`` → ``delta`` — a weighted mean of values each off by at
      most delta is off by at most delta.
    * ``min``/``max`` → ``delta`` — the extreme of perturbed values.
    * ``std`` → ``delta`` first-order (each |xᵢ−x̄| shifts ≤ delta);
      ``var`` → ``2·|σ|·delta + delta²`` (perturbing the std bound
      through the square, ``point`` being the variance estimate).
    """
    if delta <= 0.0:
        return 0.0
    if fn == "count":
        return 0.0
    if fn == "sum":
        return delta * max(matched_weight, 0.0)
    if fn in ("avg", "min", "max", "std"):
        return delta
    if fn == "var":
        sigma = math.sqrt(max(point, 0.0))
        return 2.0 * sigma * delta + delta * delta
    return delta  # unknown aggregate: at least the pointwise bound


def _no_spread_bound(
    sample_size: int, population_size: int, confidence: float
) -> float:
    """The exact one-sided bound on a count whose uniform sample of
    ``sample_size`` shows no spread: ``N·(1 − α^(1/n))`` with
    α = 1 − ``confidence``, the Clopper–Pearson end for 0 (or all) of
    n — ≈ 3N/n at 95 %, the rule of three.  0 when the sample is the
    whole population: the count is then exact."""
    if sample_size >= population_size:
        return 0.0
    alpha = 1.0 - confidence
    return population_size * -math.expm1(math.log(alpha) / sample_size)


def _fpc(sample_size: int, population_size: int | None) -> float:
    """Finite-population correction factor sqrt(1 − n/N)."""
    if population_size is None or population_size <= 0:
        return 1.0
    fraction = min(sample_size / population_size, 1.0)
    return math.sqrt(max(0.0, 1.0 - fraction))


# ----------------------------------------------------------------------
# simple random sampling (uniform impressions)
# ----------------------------------------------------------------------
def srs_count(
    matches: int,
    sample_size: int,
    population_size: int,
    confidence: float = 0.95,
) -> Estimate:
    """Estimate a population COUNT from a uniform sample.

    ``matches`` of the ``sample_size`` sampled tuples satisfy the
    predicate; the estimate scales the sample proportion to the
    population with binomial standard error and FPC.  With no match,
    or every sampled tuple matching, that error is 0 and the exact
    one-sided bound takes its place.
    """
    require(sample_size > 0, "sample_size must be positive")
    require(0 <= matches <= sample_size, "matches must be within the sample")
    require_in_range(confidence, 0.0, 1.0, "confidence")
    p = matches / sample_size
    se_p = math.sqrt(p * (1.0 - p) / sample_size) * _fpc(
        sample_size, population_size
    )
    return Estimate(
        value=population_size * p,
        se=population_size * se_p,
        confidence=confidence,
        method="srs-count",
        sample_size=sample_size,
        population_size=population_size,
        one_sided_bound=(
            _no_spread_bound(sample_size, population_size, confidence)
            if matches in (0, sample_size)
            else 0.0
        ),
    )


def srs_sum(
    matching_values: np.ndarray,
    sample_size: int,
    population_size: int,
    confidence: float = 0.95,
) -> Estimate:
    """Estimate a population SUM over predicate-matching rows.

    Each sampled tuple contributes ``value`` if it matches, else 0;
    the population sum is ``N`` times the sample mean of that
    zero-extended variable.  With no match nothing bounds the values
    the unsampled matches could hold, so the bound is infinite.
    """
    require(sample_size > 0, "sample_size must be positive")
    values = np.asarray(matching_values, dtype=float)
    require(
        values.shape[0] <= sample_size,
        "cannot have more matches than sampled tuples",
    )
    require_in_range(confidence, 0.0, 1.0, "confidence")
    total = float(values.sum())
    sumsq = float((values * values).sum())
    mean = total / sample_size
    if sample_size > 1:
        var = max(0.0, (sumsq - sample_size * mean * mean) / (sample_size - 1))
    else:
        var = 0.0
    se_mean = math.sqrt(var / sample_size) * _fpc(sample_size, population_size)
    unbounded = values.shape[0] == 0 and sample_size < population_size
    return Estimate(
        value=population_size * mean,
        se=population_size * se_mean,
        confidence=confidence,
        method="srs-sum",
        sample_size=sample_size,
        population_size=population_size,
        one_sided_bound=math.inf if unbounded else 0.0,
    )


def srs_mean(
    matching_values: np.ndarray,
    sample_size: int,
    population_size: int,
    confidence: float = 0.95,
) -> Estimate:
    """Estimate the population AVG over predicate-matching rows.

    This is a domain (subpopulation) mean: the natural estimator is
    the mean of the matching sampled values, with standard error based
    on the matching count.
    """
    values = np.asarray(matching_values, dtype=float)
    if values.shape[0] == 0:
        raise EstimationError(
            "cannot estimate a mean from zero matching sampled tuples"
        )
    require_in_range(confidence, 0.0, 1.0, "confidence")
    k = values.shape[0]
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if k > 1 else 0.0
    se = std / math.sqrt(k) * _fpc(sample_size, population_size)
    return Estimate(
        value=mean,
        se=se,
        confidence=confidence,
        method="srs-mean",
        sample_size=sample_size,
        population_size=population_size,
    )


# ----------------------------------------------------------------------
# unequal-probability sampling (biased impressions)
# ----------------------------------------------------------------------
def ht_sum(
    values: np.ndarray,
    inclusion_probs: np.ndarray,
    confidence: float = 0.95,
    population_size: int | None = None,
) -> Estimate:
    """Horvitz–Thompson estimator of a population SUM.

    ``values`` are the matching sampled tuples' values; each is
    weighted by the inverse of its inclusion probability π.  The
    variance uses the Poisson-sampling approximation
    ``Σ v²·(1−π)/π²`` — standard for adaptive reservoir designs where
    joint inclusion probabilities are not tracked.  Over no match the
    variance is 0, and nothing bounds what the unsampled matches hold
    (their πs are unknown), so the bound is infinite.
    """
    values = np.asarray(values, dtype=float)
    pis = np.asarray(inclusion_probs, dtype=float)
    if values.shape != pis.shape:
        raise EstimationError("values and inclusion_probs must align")
    if np.any((pis <= 0.0) | (pis > 1.0)):
        raise EstimationError("inclusion probabilities must lie in (0, 1]")
    require_in_range(confidence, 0.0, 1.0, "confidence")
    estimate = float((values / pis).sum())
    var = float((values * values * (1.0 - pis) / (pis * pis)).sum())
    return Estimate(
        value=estimate,
        se=math.sqrt(var),
        confidence=confidence,
        method="horvitz-thompson-sum",
        sample_size=int(values.shape[0]),
        population_size=population_size,
        one_sided_bound=math.inf if values.shape[0] == 0 else 0.0,
    )


def ht_count(
    inclusion_probs: np.ndarray,
    confidence: float = 0.95,
    population_size: int | None = None,
) -> Estimate:
    """Horvitz–Thompson estimator of a population COUNT.

    The COUNT special case of :func:`ht_sum` with all values 1.
    """
    pis = np.asarray(inclusion_probs, dtype=float)
    est = ht_sum(
        np.ones_like(pis), pis, confidence=confidence, population_size=population_size
    )
    return replace(est, method="horvitz-thompson-count")


def hajek_mean(
    values: np.ndarray,
    inclusion_probs: np.ndarray,
    confidence: float = 0.95,
    population_size: int | None = None,
) -> Estimate:
    """Hájek (ratio) estimator of a domain MEAN under unequal πs.

    ``ŷ = Σ(v/π) / Σ(1/π)`` with the linearised variance estimator
    ``N̂⁻² Σ ((v − ŷ)/π)²·(1−π)``.  This is what AVG queries over a
    biased impression use.
    """
    values = np.asarray(values, dtype=float)
    pis = np.asarray(inclusion_probs, dtype=float)
    if values.shape != pis.shape:
        raise EstimationError("values and inclusion_probs must align")
    if values.shape[0] == 0:
        raise EstimationError(
            "cannot estimate a mean from zero matching sampled tuples"
        )
    if np.any((pis <= 0.0) | (pis > 1.0)):
        raise EstimationError("inclusion probabilities must lie in (0, 1]")
    require_in_range(confidence, 0.0, 1.0, "confidence")
    weights = 1.0 / pis
    n_hat = float(weights.sum())
    estimate = float((values * weights).sum() / n_hat)
    residuals = (values - estimate) * weights
    var = float((residuals * residuals * (1.0 - pis)).sum()) / (n_hat * n_hat)
    return Estimate(
        value=estimate,
        se=math.sqrt(max(var, 0.0)),
        confidence=confidence,
        method="hajek-mean",
        sample_size=int(values.shape[0]),
        population_size=population_size,
    )
