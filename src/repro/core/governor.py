"""Engine-wide memory governance over tiered column blocks.

SciBORQ's contracts trade accuracy for *runtime*; the governor applies
the same formalism to *memory* (ROADMAP item 11).  It tracks the
engine's RAM-resident footprint — catalog tables, materialised
impression payloads, and the recycler — against a byte budget, and
when the budget is exceeded it demotes the least-recently-scanned full
blocks of the *catalog* tables ``hot → warm`` (error-bounded
int8/int16 quantisation) and then ``warm → cold`` (mmap-backed raw
spill, exact) until the footprint fits.
Impression tables stay resident: their zones are a few hundred rows,
and every rung scan reads them, so a demoted zone would cost a spill
read per scan for little saved.  The one exception is a column an
impression table gathered that nothing has read since (a report that
walked every column, say): it is a copy of base rows, so the governor
*drops* it first (:meth:`DerivedTable.drop
<repro.columnstore.table.DerivedTable.drop>`), and a scan that wants
it later gathers it again.  Blocks a later scan touches are
promoted back while headroom allows, so the working set migrates to
hot and the archive tail pays for it.

Honesty is structural, not policed here: impression, delta and
complement tables gather raw base values from any tier (the spill holds
every demoted block's raw bytes), so they stay exact copies of the base
under any budget and demotion never reaches a sample; a warm block's
recorded pointwise bound rides the ``value_error`` of every estimate
that reads the base block itself (see :mod:`repro.stats.estimators`),
cold blocks are byte-exact, and exact contracts read demoted blocks'
raw bytes from the spill, as the samples do — the governor can
therefore demote *anything* demotable without ever making an answer
silently wrong, only honestly wider.  Nor does a reader ever undo its
work: no query promotes a block, so once the working set fits, the
governor has nothing left to demote.

The footprint is cheap to check: every column keeps its per-tier byte
tally (:meth:`Column.nbytes_by_tier
<repro.columnstore.column.Column.nbytes_by_tier>`), so a check costs
O(columns) and visits no block.  Only a pass that demotes or promotes
walks blocks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.columnstore.column import Column
from repro.columnstore.table import DerivedTable, Table
from repro.util.validation import require

#: Fraction of the budget promotion may fill back up.  Promoting to
#: 100% would re-trigger demotion on the next enforce and thrash.
PROMOTE_HEADROOM = 0.8


@dataclass
class GovernorStats:
    """Counters of the governor's tiering decisions."""

    demotions_warm: int = 0
    demotions_cold: int = 0
    promotions: int = 0
    enforcements: int = 0
    #: footprint observed at the last enforce, RAM bytes
    last_footprint: int = 0


@dataclass
class _Candidate:
    tick: int
    ram_bytes: int
    column: Column
    block: int
    tier: str = "hot"
    sequence: int = field(default=0)
    #: set for a gathered, never-read impression-table column: drop it
    table: Optional[DerivedTable] = None


class MemoryGovernor:
    """Demote least-recently-scanned blocks to fit a byte budget.

    Parameters
    ----------
    budget_bytes:
        Target RAM footprint for tables + impression payloads +
        recycler.  The governor demotes until at or under it (or until
        nothing demotable remains — partial tail blocks and already
        cold blocks cannot shrink further).
    warm_bits:
        Quantisation width for the warm tier (8 or 16).
    """

    def __init__(
        self,
        budget_bytes: int,
        warm_bits: int = 8,
    ) -> None:
        require(budget_bytes > 0, "memory budget must be positive")
        require(warm_bits in (8, 16), "warm_bits must be 8 or 16")
        self.budget_bytes = int(budget_bytes)
        self.warm_bits = warm_bits
        self.stats = GovernorStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def enforce(self, engine) -> GovernorStats:
        """Bring the engine's RAM footprint inside the budget.

        Called after ingest and after query completions that find the
        footprint over budget (:meth:`enforce_within_budget`).  Demotes
        LRU-first, then promotes recently-scanned demoted blocks while
        the footprint stays under :data:`PROMOTE_HEADROOM` × budget.
        """
        with self._lock:
            self._enforce(engine, demote=True)
            return self.stats

    def enforce_within_budget(self, engine) -> bool:
        """:meth:`enforce`, if it would demote nothing: when the
        footprint is within budget, promote as :meth:`enforce` does and
        return True; when it is over, change nothing and return False.

        The server's query epilogue runs this beside concurrent scans —
        a promotion swaps one block's entry for its raw bytes in one
        step, which a scan sees whole, before or after (the scan's cache
        tag, taken first, keeps a lossy read from passing as exact) —
        and takes its exclusive lock for :meth:`enforce` only on False.
        """
        with self._lock:
            return self._enforce(engine, demote=False)

    def _enforce(self, engine, demote: bool) -> bool:
        tables = list(self._governed_tables(engine))
        footprint = self._footprint(engine, tables)
        if footprint > self.budget_bytes:
            if not demote:
                return False
            footprint = self._demote_until_fits(
                tables, self._impression_tables(engine), footprint
            )
        else:
            footprint = self._promote_while_fits(tables, footprint)
        self.stats.enforcements += 1
        self.stats.last_footprint = int(footprint)
        return True

    # ------------------------------------------------------------------
    def _governed_tables(self, engine) -> Iterable[Table]:
        for name in engine.catalog.table_names:
            yield engine.catalog.table(name)

    @staticmethod
    def _impression_tables(engine) -> Iterable[DerivedTable]:
        """The live impression tables ``memory_report`` counts."""
        for named in getattr(engine, "_hierarchies", {}).values():
            for hierarchy in named.values():
                for impression in hierarchy.layers:
                    table = impression.cached_table()
                    if table is not None:
                        yield table

    def _footprint(self, engine, tables: List[Table]) -> int:
        """The same RAM total :meth:`SciBorq.memory_report` reports.

        Sharing one accounting matters: the governor must not declare
        victory at a footprint the report refutes.  Impression payloads
        count their resident columns only (see
        :mod:`repro.columnstore.table`, "The column-lazy rule"), so
        neither this sum nor :meth:`_columns` ever gathers one.
        """
        report = engine.memory_report()
        return int(report["ram_total"])

    def _columns(self, tables: List[Table]) -> Iterable[Column]:
        for table in tables:
            yield from table.resident_columns()

    def _demote_until_fits(
        self,
        tables: List[Table],
        impression_tables: Iterable[DerivedTable],
        footprint: int,
    ) -> int:
        candidates: List[_Candidate] = []
        sequence = 0
        for column in self._columns(tables):
            for block, tier, tick, ram in column.block_report():
                if tier == "cold" or ram == 0:
                    continue
                candidates.append(
                    _Candidate(tick, ram, column, block, tier, sequence)
                )
                sequence += 1
        for table in impression_tables:
            for column in table.resident_columns():
                if column.last_read == 0:  # gathered, never read since
                    candidates.append(
                        _Candidate(
                            0, column.nbytes(), column, -1,
                            sequence=-1, table=table,
                        )
                    )
        # least-recently-scanned first; stable on insertion order
        candidates.sort(key=lambda c: (c.tick, c.sequence))
        # pass 1: never-read impression columns dropped, then hot → warm
        # (quantisable) or cold; pass 2: warm → cold
        for passes in ("hot", "warm"):
            for cand in candidates:
                if footprint <= self.budget_bytes:
                    return footprint
                if cand.tier != passes:
                    continue
                if cand.table is not None:
                    footprint -= cand.table.drop(cand.column.name)
                    cand.tier = "dropped"
                    continue
                column, block = cand.column, cand.block
                before = column.block_nbytes(block)
                if passes == "hot" and column.quantisable:
                    if not column.demote(block, "warm", self.warm_bits):
                        continue
                else:
                    if not column.demote(block, "cold"):
                        continue
                after = column.block_nbytes(block)
                if column.tier_of(block) == "warm":
                    self.stats.demotions_warm += 1
                    cand.tier = "warm"
                else:
                    self.stats.demotions_cold += 1
                    cand.tier = "cold"
                footprint -= before - after
        return footprint

    def _promote_while_fits(self, tables: List[Table], footprint: int) -> int:
        ceiling = PROMOTE_HEADROOM * self.budget_bytes
        if footprint >= ceiling:
            return footprint
        demoted: List[Tuple[int, Column, int, int]] = []
        for column in self._columns(tables):
            if column.is_fully_hot or column.demoted_access_tick == 0:
                continue
            raw = column.block_size * column.dtype.itemsize
            for block, tier, tick, ram in column.block_report():
                if tier == "hot" or tick == 0:
                    continue  # resident already, or never scanned
                demoted.append((tick, column, block, raw - ram))
        # most-recently-scanned first: the working set comes back hot
        demoted.sort(key=lambda item: -item[0])
        for tick, column, block, growth in demoted:
            if footprint + growth > ceiling:
                break
            if column.promote(block):
                self.stats.promotions += 1
                footprint += growth
        return footprint
