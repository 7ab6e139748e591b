"""Bandwidth selection for kernel density estimation.

"Choosing the correct approximation for the bandwidth h is hard and
has been an area of intense research" (paper §4, citing Jones, Marron
& Sheather 1996).  The library ships Silverman's reference rule plus
the deliberately bad choices needed to reproduce Figure 4's
oversmoothed (green) and undersmoothed (blue) panels.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require_positive

#: Factor applied to a reference bandwidth for the Figure-4 panels.
OVERSMOOTH_FACTOR = 8.0
UNDERSMOOTH_FACTOR = 1.0 / 8.0


def _spread(values: np.ndarray) -> float:
    """Robust scale: min(std, IQR/1.34), the usual Silverman guard."""
    std = float(values.std(ddof=1)) if values.shape[0] > 1 else 0.0
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    candidates = [s for s in (std, iqr / 1.34) if s > 0.0]
    if not candidates:
        return 1.0  # degenerate (constant) sample; any h works
    return min(candidates)


def silverman_bandwidth(values: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9·min(σ, IQR/1.34)·N^(−1/5)."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] == 0:
        raise ValueError("cannot select a bandwidth for an empty sample")
    return 0.9 * _spread(values) * values.shape[0] ** (-0.2)


def oversmoothed_bandwidth(values: np.ndarray, factor: float = OVERSMOOTH_FACTOR) -> float:
    """A deliberately large h ("green lines" of Figure 4)."""
    require_positive(factor, "factor")
    return silverman_bandwidth(values) * factor


def undersmoothed_bandwidth(
    values: np.ndarray, factor: float = UNDERSMOOTH_FACTOR
) -> float:
    """A deliberately small h ("blue lines" of Figure 4)."""
    require_positive(factor, "factor")
    return silverman_bandwidth(values) * factor
