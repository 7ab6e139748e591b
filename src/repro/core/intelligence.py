"""The workload-intelligence service: the mined model, bound to an engine.

:mod:`repro.workload.intelligence` turns the cross-session query log
into a :class:`~repro.workload.intelligence.RegionPopularityModel`;
this wrapper binds one to an engine (``engine.set_intelligence``) and
makes it safe to read from many sessions:

* **Mining on demand** — the service never runs on the query path.
  Every read (:meth:`recommend`, :meth:`describe`,
  :attr:`queries_mined`, and
  :func:`~repro.core.persistence.save_intelligence`) first folds the
  entries the engine's query log gained since the last read.  The
  miner's exactly-once sequence cursor makes that equal, bit for bit,
  to mining after every query.
* **Ladder recommendations** — :meth:`recommend` surfaces the mined
  escalation profile ("sessions here escalated to rung k / error ε").
  It is advice to the caller only: no ladder skips a rung on it.

The model is advice and a shareable artifact, nothing more: it is
persisted, handed to the next engine, and replayed into that engine's
interest model before a biased rebuild (``benchmarks/
bench_workload_intel.py``) — the route behind the ≥ 2× fewer-tuples
number.  The service itself changes no cache, tier or budget.

Thread-safety: all mutable service state sits behind one internal
lock, and mining only *reads* the engine (a locked log slice), so no
caller needs the server's ``ReadWriteLock``.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from repro.columnstore.query import Query
from repro.errors import ImpressionError
from repro.workload.intelligence import (
    LadderRecommendation,
    RegionPopularityModel,
    WorkloadMiner,
)
from repro.workload.log import QueryLog


class WorkloadIntelligenceService:
    """Mines the bound engine's query log and answers from the model.

    Parameters
    ----------
    x_attribute / y_attribute:
        The coordinate pair to mine (ra/dec for SkyServer).
    x_range / y_range:
        Domains; default: resolved from the engine's interest model at
        :meth:`bind` time.
    bins:
        Popularity-grid resolution (β per axis).
    decay_factor / decay_every:
        Popularity aging cadence (shared histogram machinery).
    min_support:
        Settled queries a cell needs before recommendations fire.
    model:
        A pre-mined model (e.g. loaded via
        :func:`repro.core.persistence.load_intelligence`); the service
        keeps mining on top of it.
    """

    def __init__(
        self,
        x_attribute: str = "ra",
        y_attribute: str = "dec",
        x_range: Optional[Tuple[float, float]] = None,
        y_range: Optional[Tuple[float, float]] = None,
        bins: int = 16,
        decay_factor: float = 0.9,
        decay_every: int = 256,
        min_support: int = 3,
        model: Optional[RegionPopularityModel] = None,
    ) -> None:
        self.x_attribute = x_attribute
        self.y_attribute = y_attribute
        self._x_range = x_range
        self._y_range = y_range
        self.bins = int(bins)
        self.min_support = int(min_support)
        self.model: Optional[RegionPopularityModel] = model
        self.miner: Optional[WorkloadMiner] = (
            WorkloadMiner(model, decay_factor, decay_every)
            if model is not None
            else None
        )
        self._decay_factor = decay_factor
        self._decay_every = decay_every
        self._lock = threading.Lock()
        #: the bound engine's query log (None until :meth:`bind`)
        self._log: Optional[QueryLog] = None
        self._recommendations_issued = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """Resolve domains against ``engine``, arm the miner, and take
        the engine's query log as the one this service mines.

        Called by ``engine.set_intelligence``; idempotent.  Domains
        default to the engine's interest-model domains for the mined
        pair — the same "known beforehand" ranges every Figure-5
        histogram uses.
        """
        with self._lock:
            if self.model is None:
                self.model = RegionPopularityModel(
                    self.x_attribute,
                    self.y_attribute,
                    self._resolve_range(engine, self.x_attribute, self._x_range),
                    self._resolve_range(engine, self.y_attribute, self._y_range),
                    bins=self.bins,
                )
            if self.miner is None:
                self.miner = WorkloadMiner(
                    self.model, self._decay_factor, self._decay_every
                )
            self._log = engine.query_log

    @staticmethod
    def _resolve_range(
        engine, attribute: str, given: Optional[Tuple[float, float]]
    ) -> Tuple[float, float]:
        if given is not None:
            return given
        try:
            histogram = engine.interest.interest_for(attribute).histogram
        except KeyError:
            raise ImpressionError(
                f"workload intelligence mines attribute {attribute!r}, "
                f"but the engine has no interest domain for it; pass "
                f"x_range/y_range explicitly"
            ) from None
        return histogram.minimum, histogram.maximum

    # ------------------------------------------------------------------
    # mining (reader-safe: touches only a locked log slice)
    # ------------------------------------------------------------------
    def mine(self) -> int:
        """Fold the bound log's new entries into the model now; returns
        how many.  Reads do this themselves — call it only to learn the
        count or to fail loudly on a service nobody installed."""
        with self._lock:
            if self._log is None:
                raise ImpressionError(
                    "workload intelligence service is not bound to an "
                    "engine; install it via engine.set_intelligence(service)"
                )
            return self._fold_pending()

    def _fold_pending(self) -> int:
        """Catch up with the bound log (lock held; unbound: nothing)."""
        if self._log is None:
            return 0
        return self.miner.mine(self._log)

    # ------------------------------------------------------------------
    # ladder recommendations
    # ------------------------------------------------------------------
    def recommend(self, query: Query) -> Optional[LadderRecommendation]:
        """Mined escalation advice for ``query``'s region, or None."""
        with self._lock:
            if self.model is None:
                return None
            self._fold_pending()
            recommendation = self.model.recommendation_for(
                query, min_support=self.min_support
            )
            if recommendation is not None:
                self._recommendations_issued += 1
            return recommendation

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def queries_mined(self) -> int:
        """Log entries folded into the model, the pending ones included
        (also the miner's log cursor, which persistence saves)."""
        with self._lock:
            if self.miner is None:
                return 0
            self._fold_pending()
            return self.miner.next_sequence

    def describe(self) -> str:
        """One line of the engine report."""
        mined = self.queries_mined
        with self._lock:
            return (
                f"workload intelligence: {mined} queries mined, "
                f"recommendations {self._recommendations_issued} issued"
            )

    def __repr__(self) -> str:
        return f"WorkloadIntelligenceService({self.describe()})"
