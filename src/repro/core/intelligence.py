"""The workload-intelligence service: acting on the mined model.

:mod:`repro.workload.intelligence` turns the cross-session query log
into a :class:`~repro.workload.intelligence.RegionPopularityModel`;
this wrapper is the *acting* side, living in ``core/`` because it
touches engine state:

* **Predictive prewarming** — :meth:`prewarm` pre-materialises the
  impression ladders of mined-hot tables and promotes the column
  blocks whose zone maps intersect the predicted-hot sky cells, so
  the first query into a trending cone lands on a warm ladder and hot
  blocks instead of paying the materialise + promote cost itself.
  Prewarming is *pure caching*: it fills the same caches a query
  would fill and promotes blocks back to their raw bytes — it never
  changes what any query computes or is charged (the identity
  property the test suite pins).
* **Heat for the governor** — :meth:`block_heat` tells the
  :class:`~repro.core.governor.MemoryGovernor` which blocks the model
  predicts hot, so demotion evicts cold-region blocks first and
  promotion favours the predicted working set, not just LRU ticks.
* **Ladder recommendations** — :meth:`recommend` surfaces the mined
  escalation profile ("sessions here escalated to rung k / error ε").
  It is advice to the caller only: no ladder skips a rung on it.

Thread-safety: all mutable service state sits behind one internal
lock.  :meth:`mine` only *reads* the engine (a locked log snapshot),
so the server runs it outside the ``ReadWriteLock``; :meth:`prewarm`
mutates shared caches and block tiers, so the server takes the write
lock first — the same discipline as governor enforcement.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.columnstore.query import Query
from repro.errors import ImpressionError
from repro.workload.intelligence import (
    HotRegion,
    LadderRecommendation,
    RegionPopularityModel,
    WorkloadMiner,
    paired_coordinates,
)


class WorkloadIntelligenceService:
    """Mines the engine's query log and acts on the popularity model.

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
    hot_cells:
        How many predicted-hot cells prewarming targets.
    min_support:
        Settled queries a cell needs before recommendations fire.
    prewarm_every:
        Mined queries between prewarm passes (the server's cadence).
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
        hot_cells: int = 4,
        min_support: int = 3,
        prewarm_every: int = 16,
        model: Optional[RegionPopularityModel] = None,
    ) -> None:
        self.x_attribute = x_attribute
        self.y_attribute = y_attribute
        self._x_range = x_range
        self._y_range = y_range
        self.bins = int(bins)
        self.hot_cells = int(hot_cells)
        self.min_support = int(min_support)
        self.prewarm_every = max(1, int(prewarm_every))
        self.model: Optional[RegionPopularityModel] = model
        self.miner: Optional[WorkloadMiner] = (
            WorkloadMiner(model, decay_factor, decay_every)
            if model is not None
            else None
        )
        self._decay_factor = decay_factor
        self._decay_every = decay_every
        self._lock = threading.Lock()
        #: predicted-hot regions of the last prewarm pass
        self._hot_regions: List[HotRegion] = []
        #: per-table block indices the last prewarm promoted/should pin
        self._hot_blocks: Dict[str, FrozenSet[int]] = {}
        self._mined_since_prewarm = 0
        # observability counters (engine/server report lines)
        self._prewarm_passes = 0
        self._prewarm_hits = 0
        self._prewarm_misses = 0
        self._recommendations_issued = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """Resolve domains against ``engine`` and arm the miner.

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
    # mining (reader-safe: touches only the locked log snapshot)
    # ------------------------------------------------------------------
    def mine(self, engine) -> int:
        """Fold new log entries into the model; returns how many.

        Also scores the prewarm hit-rate: once at least one prewarm
        pass has run, every newly-mined query whose first (x, y) point
        lands in a predicted-hot cell counts as a hit.
        """
        with self._lock:
            if self.miner is None:
                self.bind_required()
            entries = engine.query_log.since(self.miner.next_sequence)
            if self._prewarm_passes and self._hot_regions:
                for entry in entries:
                    points = paired_coordinates(
                        entry.query, self.x_attribute, self.y_attribute
                    )
                    if not points:
                        continue
                    x, y = points[0]
                    if any(r.contains(x, y) for r in self._hot_regions):
                        self._prewarm_hits += 1
                    else:
                        self._prewarm_misses += 1
            mined = self.miner.mine_entries(entries)
            self._mined_since_prewarm += mined
            return mined

    def bind_required(self) -> None:
        raise ImpressionError(
            "workload intelligence service is not bound to an engine; "
            "install it via engine.set_intelligence(service)"
        )

    def should_prewarm(self) -> bool:
        """Whether enough queries were mined since the last prewarm."""
        with self._lock:
            return self._mined_since_prewarm >= self.prewarm_every

    # ------------------------------------------------------------------
    # prewarming (writer: mutates caches and block tiers)
    # ------------------------------------------------------------------
    def prewarm(self, engine) -> Dict[str, int]:
        """Warm ladders and blocks for the predicted-hot regions.

        Pure caching, by construction: per mined-hot table this
        (a) materialises every impression layer (filling the same
        per-impression cache the first query would fill), and
        (b) promotes the column blocks whose x/y zone maps intersect a
        predicted-hot cell (promotion restores the block's original
        raw bytes).  Neither step changes any query's answer or
        charged units — a cold engine computes byte-identical results,
        it just pays the materialise/promote latency inside the first
        query instead of ahead of it.

        The caller must hold the server's write lock when the engine
        is shared (the server's cadence does); returns per-table
        counts of blocks predicted hot.
        """
        with self._lock:
            if self.model is None:
                self.bind_required()
            self._hot_regions = self.model.hot_cells(self.hot_cells)
            regions = list(self._hot_regions)
            self._mined_since_prewarm = 0
            self._prewarm_passes += 1
        warmed: Dict[str, int] = {}
        hot_blocks: Dict[str, FrozenSet[int]] = {}
        for table_name, named in getattr(engine, "_hierarchies", {}).items():
            if self.model.table_counts.get(table_name, 0) <= 0:
                continue  # never mined a query against this table
            base = engine.catalog.table(table_name)
            for hierarchy in named.values():
                for impression in hierarchy.layers:
                    impression.materialise(base)
            blocks = self._hot_block_set(base, regions)
            hot_blocks[table_name] = blocks
            for name in base.column_names:
                column = base.column(name)
                for block in blocks:
                    if block < column.num_blocks:
                        column.promote(block)
            warmed[table_name] = len(blocks)
        with self._lock:
            self._hot_blocks = hot_blocks
        return warmed

    def _hot_block_set(self, base, regions: List[HotRegion]) -> FrozenSet[int]:
        """Blocks whose x/y zones intersect any predicted-hot cell."""
        if not regions:
            return frozenset()
        hot: set[int] = set()
        names = (self.x_attribute, self.y_attribute)
        for block in range(base.num_blocks):
            zones = base.block_zones(block, names)
            x_zone = zones.get(self.x_attribute)
            y_zone = zones.get(self.y_attribute)
            if x_zone is None or y_zone is None:
                continue  # no zone map: the model cannot place it
            for region in regions:
                if (
                    x_zone.lo < region.x_hi
                    and x_zone.hi >= region.x_lo
                    and y_zone.lo < region.y_hi
                    and y_zone.hi >= region.y_lo
                ):
                    hot.add(block)
                    break
        return frozenset(hot)

    # ------------------------------------------------------------------
    # heat for the memory governor
    # ------------------------------------------------------------------
    def block_heat(self, table_name: str, block: int) -> float:
        """Predicted heat of one block: 1.0 in a hot region, else 0.0.

        The governor mixes this into its candidate ordering — cold-
        heat blocks demote first, hot-heat blocks promote first — so
        residency follows predicted popularity, not just scan recency.
        """
        with self._lock:
            blocks = self._hot_blocks.get(table_name)
        if blocks is None:
            return 0.0
        return 1.0 if block in blocks else 0.0

    # ------------------------------------------------------------------
    # maintenance budget allocation
    # ------------------------------------------------------------------
    def table_share(self, table_name: str) -> float:
        """``table``'s mined share of the workload (budget allocator)."""
        with self._lock:
            if self.model is None:
                return 0.0
            return self.model.table_share(table_name)

    # ------------------------------------------------------------------
    # ladder recommendations
    # ------------------------------------------------------------------
    def recommend(self, query: Query) -> Optional[LadderRecommendation]:
        """Mined escalation advice for ``query``'s region, or None."""
        with self._lock:
            if self.model is None:
                return None
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
    def prewarm_passes(self) -> int:
        """How many prewarm passes have run."""
        with self._lock:
            return self._prewarm_passes

    @property
    def queries_mined(self) -> int:
        """Log entries folded into the model so far."""
        with self._lock:
            return 0 if self.miner is None else self.miner.next_sequence

    @property
    def prewarm_hit_rate(self) -> Optional[float]:
        """Share of post-prewarm queries landing in predicted-hot
        cells (None before any scored arrival)."""
        with self._lock:
            scored = self._prewarm_hits + self._prewarm_misses
            if scored == 0:
                return None
            return self._prewarm_hits / scored

    def describe(self) -> str:
        """One line of the engine and server reports."""
        with self._lock:
            mined = 0 if self.miner is None else self.miner.next_sequence
            scored = self._prewarm_hits + self._prewarm_misses
            hit_rate = (
                "n/a" if scored == 0 else f"{self._prewarm_hits / scored:.0%}"
            )
            return (
                f"workload intelligence: {mined} queries mined, "
                f"{self._prewarm_passes} prewarm pass(es), "
                f"hit-rate {hit_rate}, "
                f"{len(self._hot_regions)} hot cell(s), "
                f"recommendations {self._recommendations_issued} issued"
            )

    def __repr__(self) -> str:
        return f"WorkloadIntelligenceService({self.describe()})"
