"""Impression maintenance: refresh-from-below, decay, drift reaction.

Two claims from paper §3.1 are implemented and measured here:

* "smaller impressions on higher layers are more efficient to
  maintain since they only touch the data of the impression one layer
  below, and not the entire base" — :func:`refresh_from_below`
  rebuilds layer L+1 by streaming only layer L's current rows, at
  cost |L| instead of |base| (benchmark E9 quantifies the saving);
* "small impressions need fast reflexes to efficiently adapt to query
  workload shifts" — :class:`MaintenancePlanner` watches drift
  detectors, decays the interest histograms when focus moves, and
  schedules cheap refreshes of the small layers so the new focal
  points show up there first.

Inclusion-probability composition: a tuple refreshed into the upper
layer was first included in the lower layer with probability ``π_L``
and then kept by the refresh pass with probability ``π_refresh``;
the override installed on the upper layer is the product, keeping
Horvitz–Thompson estimates valid end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.columnstore.table import Table
from repro.core.hierarchy import ImpressionHierarchy
from repro.core.impression import Impression
from repro.errors import ImpressionError
from repro.sampling.biased import BiasedReservoir
from repro.util.clock import CostClock, ExecutionContext, WallClock
from repro.workload.drift import DriftDetector
from repro.workload.interest import InterestModel

#: Anything maintenance can charge its streaming cost to — a session
#: clock or a writer's execution context.
ChargeTarget = CostClock | WallClock | ExecutionContext


@dataclass
class RefreshReport:
    """What one refresh pass did and what it cost."""

    target: str
    source: str
    tuples_streamed: int
    accepted: int


def refresh_from_below(
    upper: Impression,
    lower: Impression,
    base: Table,
    clock: Optional[ChargeTarget] = None,
) -> RefreshReport:
    """Rebuild ``upper`` by re-streaming ``lower``'s current contents.

    The upper layer's sampler is reset and fed only the |lower| rows
    of the layer below — the cheap maintenance route.  The composed
    inclusion probabilities (lower πs times the upper sampler's πs
    over the re-stream) are installed as an override so estimators
    stay correct.
    """
    if upper.capacity >= lower.capacity:
        raise ImpressionError(
            f"refresh target {upper.name!r} (capacity {upper.capacity}) "
            f"must be smaller than source {lower.name!r} "
            f"(capacity {lower.capacity})"
        )
    lower_ids = lower.row_ids
    lower_pis = lower.inclusion_probabilities()
    # the lower πs by row id: every upper row is a lower row
    by_id = np.argsort(lower_ids)
    sampler = upper.sampler
    reset = getattr(sampler, "reset", None)
    if callable(reset):
        reset()
    else:
        sampler.__init__(  # re-arm in place, keeping the RNG stream
            capacity=sampler.capacity,
            **_sampler_reinit_kwargs(sampler),
        )
    if isinstance(sampler, BiasedReservoir):
        batch = _column_batch(base, lower_ids, upper.columns)
        accepted = sampler.offer_batch(lower_ids, batch)
    else:
        accepted = sampler.offer_batch(lower_ids)
    upper_ids = sampler.row_ids
    upper_pis = sampler.inclusion_probabilities()
    found = by_id[np.searchsorted(lower_ids[by_id], upper_ids)]
    composed = lower_pis[found] * np.asarray(upper_pis, dtype=float)
    upper.set_inclusion_override(np.clip(composed, 1e-12, 1.0))
    if clock is not None:
        clock.charge(lower_ids.shape[0])
    return RefreshReport(
        target=upper.name,
        source=lower.name,
        tuples_streamed=int(lower_ids.shape[0]),
        accepted=int(accepted),
    )


def _sampler_reinit_kwargs(sampler) -> dict:
    """Constructor kwargs (minus capacity) to re-arm a sampler in place."""
    from repro.sampling.last_seen import LastSeenReservoir

    if isinstance(sampler, BiasedReservoir):
        return {
            "mass_fn": sampler.mass_fn,
            "uniform_floor": sampler.uniform_floor,
            "rng": sampler.rng,
        }
    if isinstance(sampler, LastSeenReservoir):
        return {
            "daily_ingest": sampler.daily_ingest,
            "keep": sampler.keep,
            "rng": sampler.rng,
        }
    return {"rng": sampler.rng}


def _column_batch(
    base: Table, row_ids: np.ndarray, columns
) -> Mapping[str, np.ndarray]:
    names = list(columns) if columns is not None else base.column_names
    return {name: base[name][row_ids] for name in names}


def refresh_hierarchy(
    hierarchy: ImpressionHierarchy,
    base: Table,
    clock: Optional[ChargeTarget] = None,
) -> List[RefreshReport]:
    """Refresh every layer from the layer below it, top-down.

    Layer 0 (the largest) is left to the streaming path; layers
    1..k-1 are rebuilt from their immediate parent, each touching only
    that parent's rows.
    """
    reports = []
    layers = hierarchy.layers
    for lower, upper in zip(layers, layers[1:]):
        reports.append(refresh_from_below(upper, lower, base, clock))
    return reports


def rebuild_from_base(
    hierarchy: ImpressionHierarchy,
    base: Table,
    clock: Optional[ChargeTarget] = None,
    batch_size: int = 50_000,
) -> List[RefreshReport]:
    """Rebuild every layer by re-streaming the whole base table.

    This is the expensive route (cost = layers × |base|) that
    :func:`refresh_hierarchy` exists to avoid; it is needed when the
    interest model has changed so much that even the largest layer's
    contents are stale (e.g. the first time bias is applied to data
    loaded before any workload was observed — the Figure-7 setup).

    Biased layers use the static-data-optimal construction: a
    fixed-size systematic πps sample with inclusion probabilities
    exactly proportional to the (floored) interest mass
    (:mod:`repro.sampling.pps`).  Streaming reservoirs are only needed
    when totals are unknown; over a static base, πps gives the same
    focal bias with exact πs and therefore the tight focal error
    bounds of benchmark E3.  Uniform and Last-Seen layers re-stream
    the base as before.
    """
    reports: List[RefreshReport] = []
    for impression in hierarchy.layers:
        sampler = impression.sampler
        sampler.__init__(
            capacity=sampler.capacity, **_sampler_reinit_kwargs(sampler)
        )
        if isinstance(sampler, BiasedReservoir):
            accepted = _rebuild_biased_pps(impression, sampler, base)
        else:
            accepted = 0
            for start in range(0, base.num_rows, batch_size):
                stop = min(start + batch_size, base.num_rows)
                row_ids = np.arange(start, stop, dtype=np.int64)
                accepted += sampler.offer_batch(row_ids)
        impression.set_inclusion_override(None)
        if clock is not None:
            clock.charge(base.num_rows)
        reports.append(
            RefreshReport(
                target=impression.name,
                source=base.name,
                tuples_streamed=base.num_rows,
                accepted=accepted,
            )
        )
    return reports


def _rebuild_biased_pps(
    impression: Impression, sampler: BiasedReservoir, base: Table
) -> int:
    """Install an exact πps sample of the static base into ``sampler``."""
    from repro.sampling.pps import systematic_pps_sample

    batch = _column_batch(base, np.arange(base.num_rows), impression.columns)
    masses = np.asarray(sampler.mass_fn(batch), dtype=float)
    if sampler.uniform_floor > 0.0:
        masses = np.maximum(masses, sampler.uniform_floor)
    indices, pis = systematic_pps_sample(
        masses, min(sampler.capacity, base.num_rows), rng=sampler.rng
    )
    sampler.load_state(indices, pis, seen=base.num_rows)
    return int(indices.shape[0])


@dataclass
class MaintenancePlanner:
    """Reacts to workload drift: decay interest, refresh small layers.

    Parameters
    ----------
    interest:
        The shared interest model to decay when drift fires.
    detectors:
        One drift detector per attribute of interest.
    decay_factor:
        How hard to age the interest histograms on drift (0.5 halves
        the accumulated focal evidence, letting the new focus dominate
        quickly).
    """

    interest: InterestModel
    detectors: Dict[str, DriftDetector] = field(default_factory=dict)
    decay_factor: float = 0.5
    drift_events: int = 0

    def observe(self, attribute: str, values: np.ndarray) -> None:
        """Feed predicate values to the attribute's drift detector."""
        detector = self.detectors.get(attribute)
        if detector is not None:
            detector.observe(values)

    def drifted_attributes(self) -> List[str]:
        """Attributes whose recent workload departs from history."""
        return [
            name for name, detector in self.detectors.items() if detector.drifted
        ]

    def absorb_drift(self) -> List[str]:
        """The bookkeeping half of a drift reaction; returns the
        drifted attributes (empty: no drift, nothing touched).

        Counts the event, ages the interest of the drifting attributes
        only — stable attributes keep their focal evidence; an
        attribute the interest model does not track ages the whole
        model instead — and resets the fired detectors so the same
        shift does not fire twice.  The caller refreshes hierarchies.
        """
        drifted = self.drifted_attributes()
        if not drifted:
            return drifted
        self.drift_events += 1
        for name in drifted:
            if not self.interest.decay_attribute(name, self.decay_factor):
                self.interest.decay(self.decay_factor)
                break
        for name in drifted:
            self.detectors[name].reset_reference()
        return drifted

