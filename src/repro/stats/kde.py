"""Kernel density estimation: exact ``f̂`` and the paper's binned ``f̆``.

The paper's §4 builds the workload-interest density in two steps:

* the textbook estimator ``f̂(x) = N⁻¹ Σᵢ K_h(x − xᵢ)`` over all N
  predicate-set values — accurate but O(N) per evaluation, which is
  unacceptable inside the per-tuple load loop;
* the binned estimator
  ``f̆(x) = (N·w)⁻¹ Σᵢ cᵢ · φ((x − mᵢ)/w)``
  over the β bins of the Figure-5 histogram, with the bandwidth fixed
  to the bin width w.  Because β ≪ N and β is fixed, ``f̆`` costs O(β)
  = O(1) per evaluation, and it integrates to one by the same argument
  as in the paper (Σ cᵢ = N).

Both are implemented here with interchangeable kernels so Figure 4's
five panels (histogram, f̂, oversmoothed, undersmoothed, f̆) come from
one code path.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from repro.stats.histogram import PredicateHistogram
from repro.util.validation import require_positive

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class Kernel(Protocol):
    """A symmetric probability kernel K with ∫K(u)du = 1."""

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Evaluate K at the standardised offsets ``u``."""
        ...


class GaussianKernel:
    """The standard normal kernel φ(u) — the paper's choice of K."""

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.exp(-0.5 * u * u) / _SQRT_2PI

    def __repr__(self) -> str:
        return "GaussianKernel()"


class EpanechnikovKernel:
    """The Epanechnikov kernel 0.75·(1−u²)·1[|u|≤1].

    Provided as an alternative with compact support: a tuple far from
    every focal point gets *exactly* zero interest weight, which some
    biased-sampling policies prefer over the Gaussian's long tails.
    """

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)

    def __repr__(self) -> str:
        return "EpanechnikovKernel()"


class ExactKDE:
    """The textbook estimator ``f̂`` over raw predicate-set points.

    Parameters
    ----------
    points:
        The N observed predicate values x₁…x_N.
    bandwidth:
        h > 0.  See :mod:`repro.stats.bandwidth` for selectors.
    kernel:
        Defaults to the Gaussian kernel, as in the paper.
    """

    def __init__(
        self,
        points: np.ndarray,
        bandwidth: float,
        kernel: Kernel | None = None,
    ) -> None:
        points = np.asarray(points, dtype=float)
        if points.ndim != 1 or points.shape[0] == 0:
            raise ValueError("ExactKDE needs a non-empty 1-d point set")
        require_positive(bandwidth, "bandwidth")
        self.points = points
        self.bandwidth = float(bandwidth)
        self.kernel: Kernel = kernel if kernel is not None else GaussianKernel()

    @property
    def n_points(self) -> int:
        """N, the number of observed predicate values."""
        return self.points.shape[0]

    def evaluate(self, xs: np.ndarray | float) -> np.ndarray:
        """Evaluate f̂ at each x in ``xs``; O(N) per evaluation point."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        u = (xs[:, None] - self.points[None, :]) / self.bandwidth
        return self.kernel(u).sum(axis=1) / (self.n_points * self.bandwidth)

    def __call__(self, xs: np.ndarray | float) -> np.ndarray:
        return self.evaluate(xs)

    def evaluation_cost(self) -> int:
        """Kernel evaluations needed per query point (= N)."""
        return self.n_points


class BinnedKDE:
    """The paper's estimator ``f̆`` over Figure-5 histogram statistics.

    Only the per-bin counts ``cᵢ`` and means ``mᵢ`` are read; the
    bandwidth is the bin width w (the paper: "the bandwidth is always
    equal to the width of the bins").  Evaluation is O(β) regardless
    of how many predicate values were observed.
    """

    def __init__(
        self,
        histogram: PredicateHistogram,
        kernel: Kernel | None = None,
    ) -> None:
        self.histogram = histogram
        self.kernel: Kernel = kernel if kernel is not None else GaussianKernel()

    @property
    def bandwidth(self) -> float:
        """The bin width w, doubling as the kernel bandwidth."""
        return self.histogram.width

    def evaluate(self, xs: np.ndarray | float) -> np.ndarray:
        """Evaluate f̆ at each x in ``xs``; O(β) per evaluation point."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        hist = self.histogram
        if hist.total == 0:
            return np.zeros(xs.shape[0])
        centers = hist.effective_centers()
        counts = hist.counts
        live = counts > 0
        u = (xs[:, None] - centers[None, live]) / hist.width
        weighted = self.kernel(u) * counts[live]
        return weighted.sum(axis=1) / (hist.total * hist.width)

    def __call__(self, xs: np.ndarray | float) -> np.ndarray:
        return self.evaluate(xs)

    def evaluation_cost(self) -> int:
        """Kernel evaluations per query point (≤ β, independent of N)."""
        return int((self.histogram.counts > 0).sum())
