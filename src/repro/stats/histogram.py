"""Equi-width histograms, including the paper's Figure-5 structure.

Two variants live here:

* :class:`PredicateHistogram` — the exact structure of paper Figure 5:
  β equal-width bins over a known domain, each keeping only a count
  ``c_i`` and a running mean ``m_i`` of the values that fell into it.
  It is maintained over the *predicate set* (the values queries ask
  about) and is the entire state the binned KDE ``f̆`` needs.
* :class:`EquiWidthHistogram` — a plain counting histogram used to
  render the data panels of Figures 4 and 7 and for shape comparisons
  between base data and impressions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.validation import require, require_positive


def age_counts(counts: np.ndarray, factor: float) -> np.ndarray:
    """Exponentially age an integer count array (shared machinery).

    Every count structure that adapts to workload drift — the Figure-5
    predicate histograms, the 2-D interest grids, and the mined
    region-popularity model — ages the same way: multiply by a factor
    in (0, 1] and floor back to integers, so stale evidence decays
    geometrically while small counts eventually reach exactly zero
    (a bin the workload abandoned really empties out).
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"decay factor must be in (0, 1], got {factor}")
    return np.floor(np.asarray(counts) * factor).astype(np.int64)


class PredicateHistogram:
    """Streaming per-bin count and mean over a fixed domain (Figure 5).

    Parameters
    ----------
    minimum, maximum:
        The attribute domain, "considered to be known beforehand"
        (paper §4).  Values outside are clamped into the edge bins —
        the predicate set is under the system's control, so out-of-
        domain values are rare and clamping keeps N consistent.
    bins:
        β, the number of equal-width bins.
    """

    def __init__(self, minimum: float, maximum: float, bins: int) -> None:
        require(maximum > minimum, f"empty domain [{minimum}, {maximum}]")
        require_positive(bins, "bins")
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        self.bins = int(bins)
        self.width = (self.maximum - self.minimum) / self.bins
        self.counts = np.zeros(self.bins, dtype=np.int64)
        self.means = np.zeros(self.bins, dtype=np.float64)
        self.total = 0  # N in the paper: size of the observed predicate set

    # ------------------------------------------------------------------
    def bin_index(self, value: float) -> int:
        """The bin a value falls into (clamped to the edge bins)."""
        i = int(np.floor((value - self.minimum) / self.width))
        return min(max(i, 0), self.bins - 1)

    def observe(self, value: float) -> None:
        """Fold one predicate-set value (the Figure-5 inner loop)."""
        i = self.bin_index(value)
        self.counts[i] += 1
        c = self.counts[i]
        self.means[i] += (value - self.means[i]) / c
        self.total += 1

    def observe_batch(self, values: Sequence[float] | np.ndarray) -> None:
        """Fold a batch of predicate-set values, vectorised.

        Equivalent to calling :meth:`observe` per value; per-bin counts
        and means are merged with the exact weighted-mean formula.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[0] == 0:
            return
        idx = np.clip(
            np.floor((values - self.minimum) / self.width).astype(np.int64),
            0,
            self.bins - 1,
        )
        batch_counts = np.bincount(idx, minlength=self.bins)
        batch_sums = np.bincount(idx, weights=values, minlength=self.bins)
        new_counts = self.counts + batch_counts
        touched = new_counts > 0
        merged = self.means * self.counts + batch_sums
        self.means[touched] = merged[touched] / new_counts[touched]
        self.counts = new_counts
        self.total += int(values.shape[0])

    def merge(self, other: "PredicateHistogram") -> None:
        """Fold another histogram with identical configuration."""
        if (other.minimum, other.maximum, other.bins) != (
            self.minimum,
            self.maximum,
            self.bins,
        ):
            raise ValueError("cannot merge histograms with different domains")
        new_counts = self.counts + other.counts
        touched = new_counts > 0
        merged = self.means * self.counts + other.means * other.counts
        self.means[touched] = merged[touched] / new_counts[touched]
        self.counts = new_counts
        self.total += other.total

    # ------------------------------------------------------------------
    @property
    def edges(self) -> np.ndarray:
        """β+1 bin edges."""
        return self.minimum + self.width * np.arange(self.bins + 1)

    @property
    def centers(self) -> np.ndarray:
        """Geometric bin midpoints (not the data means)."""
        return self.minimum + self.width * (np.arange(self.bins) + 0.5)

    def effective_centers(self) -> np.ndarray:
        """Per-bin kernel centres for ``f̆``: the mean where observed.

        Empty bins fall back to their geometric midpoint; their count
        is zero so they contribute nothing to the estimator either way.
        """
        centers = self.centers.copy()
        observed = self.counts > 0
        centers[observed] = self.means[observed]
        return centers

    def density(self) -> np.ndarray:
        """Counts normalised to a piecewise-constant density."""
        if self.total == 0:
            return np.zeros(self.bins)
        return self.counts / (self.total * self.width)

    def decay(self, factor: float) -> None:
        """Exponentially age the counts (workload drift adaptation).

        Multiplying every ``c_i`` (and N) by ``factor`` in (0, 1]
        lets the interest model forget stale focal points while the
        per-bin means stay valid — a mean is unaffected by scaling the
        weight of all its contributors equally.
        """
        decayed = age_counts(self.counts, factor)
        self.total = int(decayed.sum())
        self.counts = decayed

    def __repr__(self) -> str:
        return (
            f"PredicateHistogram([{self.minimum}, {self.maximum}], "
            f"bins={self.bins}, N={self.total})"
        )


class EquiWidthHistogram:
    """A plain equi-width counting histogram over a fixed range.

    Used to render figure panels and to compare distributions between
    base data and impressions (e.g. the total-variation distance used
    in the Figure-7 shape checks).
    """

    def __init__(self, minimum: float, maximum: float, bins: int) -> None:
        require(maximum > minimum, f"empty domain [{minimum}, {maximum}]")
        require_positive(bins, "bins")
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        self.bins = int(bins)
        self.width = (self.maximum - self.minimum) / self.bins
        self.counts = np.zeros(self.bins, dtype=np.int64)
        self.total = 0

    def observe_batch(self, values: np.ndarray) -> None:
        """Fold an array of values (out-of-range clamps to edge bins)."""
        values = np.asarray(values, dtype=float)
        if values.shape[0] == 0:
            return
        idx = np.clip(
            np.floor((values - self.minimum) / self.width).astype(np.int64),
            0,
            self.bins - 1,
        )
        self.counts += np.bincount(idx, minlength=self.bins)
        self.total += int(values.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """β+1 bin edges."""
        return self.minimum + self.width * np.arange(self.bins + 1)

    @property
    def centers(self) -> np.ndarray:
        """Bin midpoints."""
        return self.minimum + self.width * (np.arange(self.bins) + 0.5)

    def proportions(self) -> np.ndarray:
        """Counts normalised to sum to one."""
        if self.total == 0:
            return np.zeros(self.bins)
        return self.counts / self.total

    def density(self) -> np.ndarray:
        """Counts normalised to a piecewise-constant density."""
        return self.proportions() / self.width

    def decay(self, factor: float) -> None:
        """Exponentially age the counts (same machinery as Figure 5)."""
        decayed = age_counts(self.counts, factor)
        self.total = int(decayed.sum())
        self.counts = decayed

    def total_variation_distance(self, other: "EquiWidthHistogram") -> float:
        """TV distance between two histograms' bin proportions.

        The quantitative form of "the biased impression achieves a
        better representation of data around the focal points"
        (paper §4, Figure 7): compare each sample's histogram to the
        base data's, restricted or not to focal bins.
        """
        if self.bins != other.bins:
            raise ValueError("histograms must have the same bin count")
        return 0.5 * float(np.abs(self.proportions() - other.proportions()).sum())

    def __repr__(self) -> str:
        return (
            f"EquiWidthHistogram([{self.minimum}, {self.maximum}], "
            f"bins={self.bins}, N={self.total})"
        )
