"""The biased-sampling reservoir (paper Figure 6).

The acceptance probability of tuple ``t`` is

``P(accept t) = f̆(t) · N · n / cnt``

"where N is the size of the observed predicate set, n the size of the
desired impression, and cnt the number of tuples in the database"
(paper §4).  ``f̆(t)·N`` estimates how often the workload has asked
about values like ``t``'s, so frequently requested regions are
over-represented and the impression concentrates around the focal
points — the purple panels of Figure 7.

The product can exceed one for sharply peaked interest; we cap at 1.
Capping only saturates the bias: the focal tuples are
then all but guaranteed admission, which is the intent.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import ReservoirBase
from repro.util.rng import RandomSource

#: A function mapping a column-wise batch to per-tuple interest mass
#: ``f̆(t) · N`` — supplied by :class:`repro.workload.interest.InterestModel`.
MassFunction = Callable[[Mapping[str, np.ndarray]], np.ndarray]


class BiasedReservoir(ReservoirBase):
    """Reservoir whose acceptance follows the workload-interest density.

    Parameters
    ----------
    capacity:
        n, the impression size.
    mass_fn:
        Callable returning ``f̆(t)·N`` per tuple of a batch.  The
        indirection (rather than holding the interest model directly)
        keeps this module free of workload dependencies and lets tests
        drive the sampler with synthetic masses.
    uniform_floor:
        A lower bound on acceptance probability expressed as a
        multiple of Algorithm R's ``n/cnt``.  The default ``0`` is the
        paper's algorithm verbatim; a small positive floor (e.g. 0.1)
        guarantees residual coverage *outside* the focal areas so that
        out-of-focus queries keep finite error bounds — the trade-off
        §4 describes ("the confidence of queries that span widely
        outside of these areas is lower").
    """

    def __init__(
        self,
        capacity: int,
        mass_fn: MassFunction,
        uniform_floor: float = 0.0,
        rng: RandomSource = None,
    ) -> None:
        super().__init__(capacity, rng)
        if not callable(mass_fn):
            raise SamplingError("mass_fn must be callable")
        if uniform_floor < 0:
            raise SamplingError(
                f"uniform_floor must be non-negative, got {uniform_floor}"
            )
        self.mass_fn = mass_fn
        self.uniform_floor = float(uniform_floor)

    def acceptance_probabilities(
        self,
        row_ids: np.ndarray,
        batch: Optional[Mapping[str, np.ndarray]],
        counts_after: np.ndarray,
    ) -> np.ndarray:
        """``min(1, max(f̆(t)·N, floor) · n / cnt)`` per tuple."""
        if batch is None:
            raise SamplingError(
                "BiasedReservoir needs column values to compute interest mass"
            )
        mass = np.asarray(self.mass_fn(batch), dtype=float)
        if mass.shape[0] != row_ids.shape[0]:
            raise SamplingError(
                f"mass_fn returned {mass.shape[0]} weights for "
                f"{row_ids.shape[0]} tuples"
            )
        if np.any(mass < 0):
            raise SamplingError("interest mass must be non-negative")
        if self.uniform_floor > 0.0:
            mass = np.maximum(mass, self.uniform_floor)
        return mass * self.capacity / counts_after.astype(np.float64)

