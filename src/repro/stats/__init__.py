"""Statistical machinery: histograms, KDE, FNCH, estimators.

This subpackage holds every estimator and density tool the paper's §4
relies on:

* :mod:`repro.stats.histogram` — the Figure-5 streaming equi-width
  histogram (per-bin count and mean over the predicate set),
* :mod:`repro.stats.multidim` — multi-dimensional histograms (the
  paper's footnote-3 future work),
* :mod:`repro.stats.kde` — exact KDE ``f̂`` and the paper's O(β)
  binned estimator ``f̆``,
* :mod:`repro.stats.bandwidth` — bandwidth selection rules used to
  reproduce the over/undersmoothed panels of Figure 4,
* :mod:`repro.stats.fnchg` — Fisher's noncentral hypergeometric
  distribution (Fog 2008, ref [6]); not yet used by the engine,
* :mod:`repro.stats.estimators` — Horvitz–Thompson and SRS estimators
  with confidence intervals (the "strict error bounds" of §3.2).

No histogram here prices a rung: the planner
(:mod:`repro.columnstore.plan`) charges a rung's select the rows its
zone plan keeps, the rows the scan then charges.
"""

from repro.stats.histogram import EquiWidthHistogram, PredicateHistogram
from repro.stats.multidim import Grid2DHistogram
from repro.stats.kde import (
    GaussianKernel,
    EpanechnikovKernel,
    ExactKDE,
    BinnedKDE,
)
from repro.stats.bandwidth import (
    silverman_bandwidth,
    oversmoothed_bandwidth,
    undersmoothed_bandwidth,
)
from repro.stats.fnchg import FisherNCHypergeometric, MultivariateFisherNCH
from repro.stats.estimators import (
    Estimate,
    srs_count,
    srs_sum,
    srs_mean,
    ht_count,
    ht_sum,
    hajek_mean,
)

__all__ = [
    "EquiWidthHistogram",
    "PredicateHistogram",
    "Grid2DHistogram",
    "GaussianKernel",
    "EpanechnikovKernel",
    "ExactKDE",
    "BinnedKDE",
    "silverman_bandwidth",
    "oversmoothed_bandwidth",
    "undersmoothed_bandwidth",
    "FisherNCHypergeometric",
    "MultivariateFisherNCH",
    "Estimate",
    "srs_count",
    "srs_sum",
    "srs_mean",
    "ht_count",
    "ht_sum",
    "hajek_mean",
]
