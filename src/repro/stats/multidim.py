"""Multi-dimensional interest histograms (paper footnotes 3 and 4).

The paper keeps one histogram per attribute "for simplicity of the
example" and flags multi-dimensional histograms as the more attractive
alternative and explicit future work.  This module implements the 2-D
case — exactly what the (ra, dec) cone-search workload wants, since a
cone couples the two coordinates — with the same count+mean-per-cell
statistics as Figure 5 and a product-kernel binned KDE.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.stats.histogram import age_counts
from repro.stats.kde import GaussianKernel, Kernel
from repro.util.validation import require, require_positive


class Grid2DHistogram:
    """β×β equal-width grid over two attribute domains.

    Each cell keeps a count and the running mean of both coordinates,
    so the 2-D binned KDE can centre its product kernels on the
    observed mass exactly as the 1-D ``f̆`` does.
    """

    def __init__(
        self,
        x_range: Tuple[float, float],
        y_range: Tuple[float, float],
        bins: int,
    ) -> None:
        require(x_range[1] > x_range[0], f"empty x domain {x_range}")
        require(y_range[1] > y_range[0], f"empty y domain {y_range}")
        require_positive(bins, "bins")
        self.x_min, self.x_max = map(float, x_range)
        self.y_min, self.y_max = map(float, y_range)
        self.bins = int(bins)
        self.x_width = (self.x_max - self.x_min) / self.bins
        self.y_width = (self.y_max - self.y_min) / self.bins
        self.counts = np.zeros((self.bins, self.bins), dtype=np.int64)
        self.x_means = np.zeros((self.bins, self.bins), dtype=np.float64)
        self.y_means = np.zeros((self.bins, self.bins), dtype=np.float64)
        self.total = 0

    # ------------------------------------------------------------------
    def _cell(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ix = np.clip(
            np.floor((x - self.x_min) / self.x_width).astype(np.int64),
            0,
            self.bins - 1,
        )
        iy = np.clip(
            np.floor((y - self.y_min) / self.y_width).astype(np.int64),
            0,
            self.bins - 1,
        )
        return ix, iy

    def observe_batch(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Fold paired (x, y) predicate values."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError("x and y batches must have the same shape")
        if xs.shape[0] == 0:
            return
        ix, iy = self._cell(xs, ys)
        flat = ix * self.bins + iy
        size = self.bins * self.bins
        batch_counts = np.bincount(flat, minlength=size).reshape(
            self.bins, self.bins
        )
        batch_x = np.bincount(flat, weights=xs, minlength=size).reshape(
            self.bins, self.bins
        )
        batch_y = np.bincount(flat, weights=ys, minlength=size).reshape(
            self.bins, self.bins
        )
        new_counts = self.counts + batch_counts
        touched = new_counts > 0
        merged_x = self.x_means * self.counts + batch_x
        merged_y = self.y_means * self.counts + batch_y
        self.x_means[touched] = merged_x[touched] / new_counts[touched]
        self.y_means[touched] = merged_y[touched] / new_counts[touched]
        self.counts = new_counts
        self.total += int(xs.shape[0])

    # ------------------------------------------------------------------
    def density(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        kernel: Kernel | None = None,
    ) -> np.ndarray:
        """The 2-D binned KDE f̆₂(x, y) with a product kernel.

        ``f̆₂(x,y) = (N·wₓ·w_y)⁻¹ Σ c·K((x−mₓ)/wₓ)·K((y−m_y)/w_y)``
        summed over non-empty cells; O(live cells) per point.
        """
        kernel = kernel if kernel is not None else GaussianKernel()
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if xs.shape != ys.shape:
            raise ValueError("x and y query points must have the same shape")
        if self.total == 0:
            return np.zeros(xs.shape[0])
        live = self.counts > 0
        counts = self.counts[live].astype(float)
        cx = self.x_means[live]
        cy = self.y_means[live]
        ux = (xs[:, None] - cx[None, :]) / self.x_width
        uy = (ys[:, None] - cy[None, :]) / self.y_width
        weighted = kernel(ux) * kernel(uy) * counts
        return weighted.sum(axis=1) / (self.total * self.x_width * self.y_width)

    def decay(self, factor: float) -> None:
        """Exponentially age cell counts, as the 1-D histogram does."""
        decayed = age_counts(self.counts, factor)
        self.total = int(decayed.sum())
        self.counts = decayed

    def __repr__(self) -> str:
        return (
            f"Grid2DHistogram(x=[{self.x_min}, {self.x_max}], "
            f"y=[{self.y_min}, {self.y_max}], bins={self.bins}, "
            f"N={self.total})"
        )
