"""The workload-interest model: Figure-5 histograms + the binned KDE.

This is the paper's central data structure.  Per attribute of
interest it maintains the streaming equi-width histogram of the
predicate set (count ``cᵢ`` and mean ``mᵢ`` per bin, Figure 5) and
evaluates the binned density estimator ``f̆`` (paper §4).  The
*interest mass* of a tuple is ``f̆(t)·N`` — "function f̆ estimates the
frequency of appearance of value x in the predicate set.  Thus, the
more frequent the value, the larger the product f̆(t)·N, and the
higher the probability of choosing t".

Multi-attribute tuples use the paper's footnote-4 combine function
``c(t) = f̆(t.att1) ∘ … ∘ f̆(t.attm)``; the combiner is configurable
(mean of masses by default, geometric mean and max provided), and a
2-D coupled model is available via :class:`repro.stats.multidim`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.columnstore.query import Query
from repro.stats.histogram import PredicateHistogram
from repro.stats.kde import BinnedKDE, Kernel
from repro.util.validation import require

#: Supported multi-attribute combine functions (paper footnote 4).
COMBINERS = ("mean", "geometric", "max")


class AttributeInterest:
    """Interest state for one attribute: histogram + binned KDE."""

    def __init__(
        self,
        attribute: str,
        domain: Tuple[float, float],
        bins: int = 32,
        kernel: Kernel | None = None,
    ) -> None:
        self.attribute = attribute
        self.histogram = PredicateHistogram(domain[0], domain[1], bins)
        self.kde = BinnedKDE(self.histogram, kernel)

    def observe(self, values: np.ndarray) -> None:
        """Fold predicate-set values for this attribute."""
        self.histogram.observe_batch(np.asarray(values, dtype=float))

    def mass(self, values: np.ndarray) -> np.ndarray:
        """``f̆(x)·N`` per value — the Figure-6 acceptance weight.

        Before any observation the model is agnostic: every tuple gets
        mass 1.0 so biased sampling degrades to Algorithm R.
        """
        values = np.asarray(values, dtype=float)
        if self.histogram.total == 0:
            return np.ones(values.shape[0])
        return self.kde.evaluate(values) * self.histogram.total

    @property
    def predicate_set_size(self) -> int:
        """N, the number of observed predicate values."""
        return self.histogram.total

    def decay(self, factor: float) -> None:
        """Age the histogram counts (adaptation to drift)."""
        self.histogram.decay(factor)

    def __repr__(self) -> str:
        return (
            f"AttributeInterest({self.attribute!r}, N={self.predicate_set_size})"
        )


class InterestModel:
    """Per-attribute interest with a tuple-level combine function.

    Parameters
    ----------
    domains:
        Mapping of attribute name to its (min, max) domain — "the min
        value of the domain, the width w, and number of bins β are
        considered to be known beforehand" (paper §4).
    bins:
        β per attribute.
    combiner:
        How per-attribute masses merge into one tuple mass:
        ``"mean"`` (arithmetic, the default), ``"geometric"``, or
        ``"max"``.
    """

    def __init__(
        self,
        domains: Mapping[str, Tuple[float, float]],
        bins: int = 32,
        combiner: str = "mean",
        kernel: Kernel | None = None,
    ) -> None:
        require(len(domains) > 0, "need at least one attribute domain")
        if combiner not in COMBINERS:
            raise ValueError(
                f"unknown combiner {combiner!r}; expected one of {COMBINERS}"
            )
        self.combiner = combiner
        self._attributes: Dict[str, AttributeInterest] = {
            name: AttributeInterest(name, domain, bins, kernel)
            for name, domain in domains.items()
        }

    # ------------------------------------------------------------------
    # observation side
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Sequence[str]:
        """The attributes of interest."""
        return tuple(self._attributes)

    def interest_for(self, attribute: str) -> AttributeInterest:
        """The per-attribute interest state."""
        try:
            return self._attributes[attribute]
        except KeyError:
            raise KeyError(
                f"{attribute!r} has no interest model "
                f"(have {tuple(self._attributes)})"
            ) from None

    def observe_values(self, attribute: str, values: np.ndarray) -> None:
        """Fold predicate values for one attribute (collector hook)."""
        if attribute in self._attributes:
            self._attributes[attribute].observe(values)

    def observe_query(self, query: Query) -> None:
        """Fold one query's requested values for all known attributes."""
        for attribute, values in query.requested_values().items():
            if values and attribute in self._attributes:
                self.observe_values(attribute, np.asarray(values, dtype=float))

    def decay(self, factor: float) -> None:
        """Age every attribute histogram (drift adaptation)."""
        for attribute in self._attributes.values():
            attribute.decay(factor)

    def decay_attribute(self, attribute: str, factor: float) -> bool:
        """Age one attribute's histogram only (scoped drift reaction).

        When drift is detected on a single attribute there is no
        reason to forget the others' focal points; the maintenance
        planner scopes its decay to the drifting attributes.  Returns
        whether the attribute had an interest model.
        """
        interest = self._attributes.get(attribute)
        if interest is None:
            return False
        interest.decay(factor)
        return True

    # ------------------------------------------------------------------
    # sampling side
    # ------------------------------------------------------------------
    def mass(self, batch: Mapping[str, np.ndarray]) -> np.ndarray:
        """Per-tuple interest mass for a column-wise batch.

        Attributes missing from the batch are skipped (an impression
        may hold a column subset, paper §3.1); if none of the model's
        attributes are present, every tuple gets mass 1.0.
        """
        per_attribute: list[np.ndarray] = []
        for name, interest in self._attributes.items():
            if name in batch:
                per_attribute.append(interest.mass(np.asarray(batch[name])))
        if not per_attribute:
            lengths = {np.asarray(v).shape[0] for v in batch.values()}
            (count,) = lengths or {0}
            return np.ones(count)
        stacked = np.vstack(per_attribute)
        if self.combiner == "mean":
            return stacked.mean(axis=0)
        if self.combiner == "max":
            return stacked.max(axis=0)
        # geometric mean; zero mass in any attribute zeroes the tuple
        return np.exp(np.log(np.clip(stacked, 1e-300, None)).mean(axis=0)) * (
            stacked.min(axis=0) > 0
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{a.attribute}:N={a.predicate_set_size}"
            for a in self._attributes.values()
        )
        return f"InterestModel({parts}, combiner={self.combiner!r})"


class CoupledInterest:
    """Joint 2-D interest over an attribute *pair* (paper footnote 3).

    "Multi-dimensional histograms are more attractive, but for
    simplicity of the example we use two distinct histograms."  The
    cone-search workload couples ra and dec — a query asks about
    *points* on the sky, not independent coordinate ranges — and two
    marginal histograms cannot tell the workload's actual targets from
    the phantom cross-products of their modes.  This model keeps the
    Figure-5 statistics per *cell* of a β×β grid and evaluates the
    2-D binned KDE, so the interest mass is high only where queries
    actually landed.  Benchmark E13 quantifies the difference.

    Implements the same ``mass``/``observe_query``/``decay`` surface
    as :class:`InterestModel`, so it plugs into
    :class:`~repro.core.policy.BiasedPolicy` unchanged.
    """

    def __init__(
        self,
        x_attribute: str,
        y_attribute: str,
        x_domain: Tuple[float, float],
        y_domain: Tuple[float, float],
        bins: int = 24,
        kernel: Kernel | None = None,
    ) -> None:
        from repro.stats.multidim import Grid2DHistogram

        self.x_attribute = x_attribute
        self.y_attribute = y_attribute
        self.grid = Grid2DHistogram(x_domain, y_domain, bins)
        self._kernel = kernel
        self._pending_x = np.empty(0)
        self._pending_y = np.empty(0)

    # ------------------------------------------------------------------
    def observe_pairs(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Fold paired predicate values (e.g. cone-search centres)."""
        self.grid.observe_batch(np.asarray(xs, float), np.asarray(ys, float))

    def observe_query(self, query: Query) -> None:
        """Extract this pair's requested values from one query.

        Only queries that request *both* attributes contribute — a
        range scan on one coordinate alone says nothing about where on
        the sky the interest lies.  Values are paired positionally
        (a cone search contributes exactly one (x, y) centre).
        """
        requested = query.requested_values()
        xs = requested.get(self.x_attribute, [])
        ys = requested.get(self.y_attribute, [])
        pairs = min(len(xs), len(ys))
        if pairs:
            self.observe_pairs(np.asarray(xs[:pairs]), np.asarray(ys[:pairs]))

    def observe_values(self, attribute: str, values: np.ndarray) -> None:
        """Collector hook: buffers one attribute until its partner
        arrives from the same query.

        The :class:`~repro.workload.predicates.PredicateSetCollector`
        emits per-attribute arrays in query order, so x/y arrive in
        matching sequence; we pair them FIFO.
        """
        values = np.asarray(values, dtype=float)
        if attribute == self.x_attribute:
            self._pending_x = np.concatenate([self._pending_x, values])
        elif attribute == self.y_attribute:
            self._pending_y = np.concatenate([self._pending_y, values])
        else:
            return
        pairs = min(self._pending_x.shape[0], self._pending_y.shape[0])
        if pairs:
            self.observe_pairs(self._pending_x[:pairs], self._pending_y[:pairs])
            self._pending_x = self._pending_x[pairs:]
            self._pending_y = self._pending_y[pairs:]

    # ------------------------------------------------------------------
    @property
    def predicate_set_size(self) -> int:
        """N, the number of observed (x, y) predicate pairs."""
        return self.grid.total

    def mass(self, batch: Mapping[str, np.ndarray]) -> np.ndarray:
        """Per-tuple joint interest mass ``f̆₂(x, y)·N·wₓ·w_y``.

        The w factors put the 2-D density on the same per-cell scale
        as the 1-D mass (density × N has units 1/area; multiplying by
        the cell area yields expected predicate hits per cell).
        Tuples lacking either attribute get mass 1.0 (agnostic), as
        does a cold model.
        """
        if self.x_attribute not in batch or self.y_attribute not in batch:
            lengths = {np.asarray(v).shape[0] for v in batch.values()}
            (count,) = lengths or {0}
            return np.ones(count)
        xs = np.asarray(batch[self.x_attribute], dtype=float)
        if self.grid.total == 0:
            return np.ones(xs.shape[0])
        ys = np.asarray(batch[self.y_attribute], dtype=float)
        density = self.grid.density(xs, ys, self._kernel)
        return density * self.grid.total * self.grid.x_width * self.grid.y_width

    def decay(self, factor: float) -> None:
        """Age the grid counts (drift adaptation)."""
        self.grid.decay(factor)

    def __repr__(self) -> str:
        return (
            f"CoupledInterest({self.x_attribute!r}×{self.y_attribute!r}, "
            f"N={self.predicate_set_size})"
        )
