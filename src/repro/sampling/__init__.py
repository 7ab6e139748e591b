"""Sampling algorithms: the paper's reservoir family and its variants.

* :mod:`repro.sampling.reservoir` — Algorithm R (paper Figure 2), the
  uniform baseline every impression policy builds on.
* :mod:`repro.sampling.last_seen` — the Last Seen construction
  (Figure 3): fixed acceptance probability ``k/D`` biases retention
  toward recently ingested tuples.
* :mod:`repro.sampling.biased` — the biased reservoir (Figure 6):
  acceptance probability ``f̆(t)·N·n/cnt`` steered by the workload
  interest model.
* :mod:`repro.sampling.pps` — fixed-size systematic πps selection for
  rebuilding an impression from already-loaded data.

The literal transcriptions of Figures 2, 3 and 6 the production
samplers are validated against are ``tests/reference_samplers.py``.
"""

from repro.sampling.reservoir import ReservoirR
from repro.sampling.last_seen import LastSeenReservoir
from repro.sampling.biased import BiasedReservoir
from repro.sampling.pps import (
    pps_inclusion_probabilities,
    systematic_pps_sample,
)

__all__ = [
    "ReservoirR",
    "LastSeenReservoir",
    "BiasedReservoir",
    "pps_inclusion_probabilities",
    "systematic_pps_sample",
]
