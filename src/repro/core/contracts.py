"""First-class execution contracts: what the user demands of an answer.

SciBORQ's two promises — "give me an answer within 5% of the truth"
and "give me the best answer within 5 minutes" (paper §3.2) — used to
be spelled as four keyword arguments duplicated across every entry
point.  A :class:`Contract` is the same demand as one immutable value:

>>> Contract.within_error(0.05)                 # quality bound
Contract(error<=0.05)
>>> Contract.within_budget(10_000)              # runtime bound
Contract(budget<=10000)
>>> Contract.within_error(0.05) & Contract.within_budget(10_000)
Contract(error<=0.05, budget<=10000)
>>> Contract.exact()                            # base data, zero error
Contract(exact)
>>> Contract.gold()                             # tiered SLA preset
Contract(gold: error<=0.01, conf=0.99)

Contracts flow unchanged through every layer — ``engine.submit`` /
``engine.execute``, ``Session``, ``SciBorqServer`` — so a bound
declared once means the same thing everywhere.  The ``&`` combinator
builds hybrid bounds and rejects contradictions (the same bound
specified twice, conflicting confidences).  Modifier methods return
new values; a contract never mutates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import QueryError

#: The default confidence level.  ``&`` treats a confidence equal to
#: this value as "left alone": an explicit request for exactly 0.95 is
#: indistinguishable from the default and yields to the other side.
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class Contract:
    """An immutable demand on a query's answer.

    Prefer the named constructors (:meth:`within_error`,
    :meth:`within_budget`, :meth:`exact`, the tier presets) and the
    ``&`` combinator over direct field construction; ``Contract()``
    demands nothing, and ``Contract(hierarchy="last-seen")`` is the one
    way to answer from a named hierarchy.

    Parameters
    ----------
    max_relative_error:
        Upper bound on the worst relative error across the reported
        estimates (None: no quality requirement).
    time_budget:
        Upper bound on execution cost, in the clock's units (cost
        units for :class:`~repro.util.clock.CostClock`, seconds for
        wall clocks).  None: no runtime requirement.
    confidence:
        Confidence level at which relative errors are assessed.
    strict:
        Raise instead of degrading gracefully when a bound cannot be
        met.
    hierarchy:
        Named impression hierarchy to answer from (None: the table's
        default).
    is_exact:
        Route straight to the base data — one exact attempt, no
        escalation ladder.  Set via :meth:`exact`, never directly.
    tier:
        The SLA tier this contract came from (``"bronze"`` /
        ``"silver"`` / ``"gold"``), or ``None`` for an ad-hoc
        contract.  Set by the preset constructors, never directly —
        the :class:`~repro.core.monitor.ContractMonitor` aggregates
        compliance per tier and the quality gates key on it.
    """

    max_relative_error: Optional[float] = None
    time_budget: Optional[float] = None
    confidence: float = DEFAULT_CONFIDENCE
    strict: bool = False
    hierarchy: Optional[str] = None
    is_exact: bool = False
    tier: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_relative_error is not None and self.max_relative_error < 0:
            raise QueryError(
                f"max_relative_error must be non-negative, "
                f"got {self.max_relative_error}"
            )
        if self.time_budget is not None and self.time_budget < 0:
            raise QueryError(
                f"time_budget must be non-negative, got {self.time_budget}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise QueryError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.is_exact and self.max_relative_error not in (None, 0.0):
            raise QueryError(
                f"an exact contract cannot carry a non-zero error bound "
                f"(got {self.max_relative_error}); drop is_exact or the "
                f"bound"
            )

    # ------------------------------------------------------------------
    # named constructors
    # ------------------------------------------------------------------
    @classmethod
    def within_error(
        cls, bound: float, confidence: float = DEFAULT_CONFIDENCE
    ) -> "Contract":
        """Quality bound: worst relative error at most ``bound``."""
        return cls(max_relative_error=bound, confidence=confidence)

    @classmethod
    def within_budget(cls, budget: float) -> "Contract":
        """Runtime bound: spend at most ``budget`` clock units."""
        return cls(time_budget=budget)

    @classmethod
    def exact(cls) -> "Contract":
        """Demand the exact base-data answer (no escalation ladder).

        Unlike ``within_error(0.0)`` — which climbs the ladder and
        only *ends* on the base columns — an exact contract goes
        straight there and works on tables with no hierarchy at all.
        """
        return cls(max_relative_error=0.0, is_exact=True)

    # ------------------------------------------------------------------
    # tiered SLA presets
    # ------------------------------------------------------------------
    @classmethod
    def bronze(cls) -> "Contract":
        """Best-effort tier: worst relative error at most 10%."""
        return cls(max_relative_error=0.10, tier="bronze")

    @classmethod
    def silver(cls) -> "Contract":
        """Standard tier: worst relative error at most 5%."""
        return cls(max_relative_error=0.05, tier="silver")

    @classmethod
    def gold(cls) -> "Contract":
        """Premium tier: error at most 1%, assessed at 99% confidence."""
        return cls(max_relative_error=0.01, confidence=0.99, tier="gold")

    @classmethod
    def preset(cls, name: str) -> "Contract":
        """Resolve a tier name (``"bronze"``/``"silver"``/``"gold"``).

        The string spelling accepted by ``open_session(contract=
        "gold")`` and ``SciBorqServer(contract="gold")``; unknown
        names raise :class:`~repro.errors.QueryError`.
        """
        try:
            factory = _TIER_PRESETS[name.strip().lower()]
        except (KeyError, AttributeError):
            known = ", ".join(sorted(_TIER_PRESETS))
            raise QueryError(
                f"unknown contract tier {name!r}; expected one of {known}"
            ) from None
        return factory(cls)

    # ------------------------------------------------------------------
    # modifiers (functional: each returns a new value)
    # ------------------------------------------------------------------
    def strictly(self) -> "Contract":
        """Raise on a missed bound instead of degrading gracefully."""
        return replace(self, strict=True)

    # ------------------------------------------------------------------
    # combinator
    # ------------------------------------------------------------------
    def __and__(self, other: "Contract") -> "Contract":
        """Combine two one-sided contracts into a hybrid bound.

        Each bound may be specified by at most one side — asking for
        two different error bounds (or an exact answer *and* an error
        bound) is a contradiction, not a merge.  Confidence follows
        whichever side set it away from :data:`DEFAULT_CONFIDENCE`
        (a side whose confidence equals the default is treated as
        unset); ``strict`` and ``exact`` are sticky; differing
        explicit hierarchies conflict.  A combined contract carries no
        tier label: once a preset is altered by combination it is no
        longer the preset's promise (:meth:`strictly` keeps it, the
        quality bound is intact).
        """
        if not isinstance(other, Contract):
            return NotImplemented
        quality_sides = sum(
            1
            for c in (self, other)
            if c.max_relative_error is not None or c.is_exact
        )
        if quality_sides == 2:
            raise QueryError(
                "contract conflict: both sides specify a quality bound "
                f"({self!r} & {other!r})"
            )
        if self.time_budget is not None and other.time_budget is not None:
            raise QueryError(
                "contract conflict: both sides specify a time budget "
                f"({self!r} & {other!r})"
            )
        explicit = [
            c.confidence
            for c in (self, other)
            if c.confidence != DEFAULT_CONFIDENCE
        ]
        if len(set(explicit)) > 1:
            raise QueryError(
                f"contract conflict: confidences {explicit[0]} and "
                f"{explicit[1]} disagree"
            )
        hierarchies = {
            c.hierarchy for c in (self, other) if c.hierarchy is not None
        }
        if len(hierarchies) > 1:
            raise QueryError(
                f"contract conflict: hierarchies {sorted(hierarchies)} disagree"
            )
        quality = self if (
            self.max_relative_error is not None or self.is_exact
        ) else other
        return Contract(
            max_relative_error=quality.max_relative_error,
            time_budget=(
                self.time_budget
                if self.time_budget is not None
                else other.time_budget
            ),
            confidence=explicit[0] if explicit else DEFAULT_CONFIDENCE,
            strict=self.strict or other.strict,
            hierarchy=next(iter(hierarchies)) if hierarchies else None,
            is_exact=self.is_exact or other.is_exact,
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Short human-readable form used by handles and examples."""
        parts = []
        if self.is_exact:
            parts.append("exact")
        elif self.max_relative_error is not None:
            parts.append(f"error<={self.max_relative_error:g}")
        if self.time_budget is not None:
            parts.append(f"budget<={self.time_budget:g}")
        if self.confidence != DEFAULT_CONFIDENCE:
            parts.append(f"conf={self.confidence:g}")
        if self.strict:
            parts.append("strict")
        if self.hierarchy is not None:
            parts.append(f"hierarchy={self.hierarchy!r}")
        body = ", ".join(parts) or "unconstrained"
        if self.tier is not None:
            return f"Contract({self.tier}: {body})"
        return f"Contract({body})"

    def __repr__(self) -> str:
        return self.describe()


#: Tier name -> preset factory: the single registry behind
#: :meth:`Contract.preset` and the ``contract="gold"`` string spelling
#: accepted by the session and server layers.
_TIER_PRESETS = {
    "bronze": lambda cls: cls.bronze(),
    "silver": lambda cls: cls.silver(),
    "gold": lambda cls: cls.gold(),
}

