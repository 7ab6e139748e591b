"""A single typed column with amortised append, zone maps, and tiers.

MonetDB stores every attribute as a Binary Association Table; the
reproduction keeps the essence — one contiguous typed array per
attribute — using numpy for the vectorised scans the samplers and
operators rely on.  Appends grow a backing buffer geometrically so the
daily-ingest load path (paper §3.3) stays O(1) amortised per tuple.

Storage is logically partitioned into fixed-size **blocks** of
:data:`DEFAULT_BLOCK_SIZE` rows.  Numeric columns maintain a per-block
**zone map** — the min/max of the block's live values, plus a NaN
flag — kept as arrays (:class:`Zones`).  Maintenance is lazy *and*
incremental: nothing is computed until the first :meth:`Column.zones`
call, and each call folds in only the rows appended since the last
one, so long-lived base tables pay O(appended values) per refresh while
throwaway intermediates (``take`` outputs that nobody
prunes) pay nothing at all.  Zone maps let selections skip whole blocks
a predicate cannot match (see
:meth:`repro.columnstore.expressions.Expression.keep_blocks`), which is
what makes SciBORQ's tuples-touched budgets go further.

Residency tiers
---------------
Each *full* block lives in one of three tiers:

* **hot** — a raw ndarray, today's representation.  A column that has
  never demoted a block keeps the single contiguous buffer and pays
  zero overhead (the fast path is unchanged).
* **warm** — the block linearly quantised to int8/int16 codes plus a
  recorded **max pointwise error bound** (``block_value_error``).
  Scans over warm blocks read dequantised values, so answers drift by
  at most that bound per value; the bound is threaded into every
  :class:`~repro.stats.estimators.Estimate` so reported CIs stay
  honest (ISSUE 7 / Liu et al., arXiv:2310.14133).
* **cold** — the raw bytes live only in an mmap-backed spill file
  (:class:`repro.columnstore.spill.ColumnBlockStore`); reads map them
  back lazily.  Cold is *exact* — demotion always spills the original
  raw bytes first, so promoting any block back to hot restores it
  byte-identically, and any reader may ask for the raw bytes of a
  warm block instead of its codes: :meth:`Column.gather` (and a
  ``raw`` :meth:`Column.read_range` or
  :meth:`Column.gather_with_error`) returns raw values from any tier,
  which is how ``Contract.exact()`` answers exactly over a demoted
  table without changing a tier.

Every column keeps a tally of its payload bytes per tier, updated where
a block changes tier or rows are appended, so :meth:`Column.nbytes` and
:meth:`Column.nbytes_by_tier` — what the memory governor sums after
every answer — cost O(1), not a walk over the blocks.

Zone maps are folded **before** a block may demote, i.e. they are
always built from the raw (pre-quantisation) values.  Quantised codes
dequantise into the closed interval ``[lo, hi]`` of the raw block, so
the raw zones remain exact bounds for every tier and zone-map pruning
never needs to decompress anything (``decompressions`` counts real
block materialisations only).
"""

from __future__ import annotations

import itertools
import math
import threading

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.columnstore.spill import ColumnBlockStore
from repro.errors import SchemaError

_MIN_CAPACITY = 16

#: Rows per storage block.  64K rows keeps zone maps tiny (a few
#: entries per million rows) while leaving enough blocks to prune on
#: the SkyServer scales the benchmarks run at.
DEFAULT_BLOCK_SIZE = 65_536

#: Monotone access clock shared by every column: ``next(_TICK)`` marks
#: a block as most-recently-scanned.  The memory governor demotes the
#: smallest ticks first (least-recently-scanned), so one global clock
#: gives a consistent LRU order across tables.
_TICK = itertools.count(1)


@dataclass(frozen=True)
class Zone:
    """Min/max summary of one block of one column.

    ``has_nan`` records whether any NaN was ever appended to the
    block; NaN rows fail every comparison *except* ``!=``, so pruning
    decisions must know about them.  A block containing only NaNs has
    an *empty* zone (``lo > hi``).
    """

    lo: object
    hi: object
    has_nan: bool = False

    @property
    def empty(self) -> bool:
        """True when the block holds no comparable (non-NaN) value."""
        return self.lo > self.hi


class Zones(NamedTuple):
    """Every block's :class:`Zone` of one column, as parallel arrays.

    ``lo``/``hi`` have the column's dtype; a block with no comparable
    value has ``lo = +inf > hi = -inf``.  Read-only by convention: a
    fold publishes new arrays rather than writing into these.
    """

    lo: np.ndarray
    hi: np.ndarray
    has_nan: np.ndarray


class _WarmBlock:
    """One block linearly quantised to int8/int16 codes.

    ``dequantise`` maps codes back into the closed raw range
    ``[offset, offset + span]``; ``value_error`` is the *measured*
    max pointwise |dequantised − raw| recorded at demotion time.
    """

    __slots__ = ("codes", "offset", "scale", "qlo", "value_error", "length")
    tier = "warm"

    def __init__(self, codes, offset, scale, qlo, value_error, length):
        self.codes = codes
        self.offset = offset
        self.scale = scale
        self.qlo = qlo
        self.value_error = value_error
        self.length = length

    @property
    def nbytes(self) -> int:
        return int(self.codes.nbytes)

    def dequantise(self, dtype: np.dtype) -> np.ndarray:
        values = (
            (self.codes.astype(np.float64) - self.qlo) * self.scale + self.offset
        )
        return values.astype(dtype, copy=False)


class _ColdBlock:
    """One block whose raw bytes live only in the spill store.

    Cold blocks are exact: the spill always holds the original raw
    bytes, so reads (np.memmap) and promotions are byte-identical.
    """

    __slots__ = ("length",)
    tier = "cold"

    def __init__(self, length):
        self.length = length

    @property
    def nbytes(self) -> int:
        return 0  # no RAM-resident payload


class _Tally(NamedTuple):
    """Payload bytes per tier of a chunked column's sealed blocks.
    Replaced whole on every change, so a reader never sees half an
    update."""

    hot: int = 0
    warm: int = 0
    cold: int = 0


class Column:
    """A named, typed, append-only vector of values.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"ra"``.
    dtype:
        Any numpy dtype specifier.  Strings use numpy unicode dtypes
        (fixed-width), which is adequate for the categorical attributes
        of the SkyServer stand-in.
    values:
        Optional initial contents.
    block_size:
        Rows per storage block (zone-map granularity).  Defaults to
        :data:`DEFAULT_BLOCK_SIZE`.
    """

    def __init__(
        self,
        name: str,
        dtype: Union[str, np.dtype] = "float64",
        values: Iterable | None = None,
        block_size: Optional[int] = None,
    ) -> None:
        if not name:
            raise SchemaError("column name must be non-empty")
        self.name = name
        self._dtype = np.dtype(dtype)
        self._size = 0
        self._data: Optional[np.ndarray] = np.empty(
            _MIN_CAPACITY, dtype=self._dtype
        )
        block_size = DEFAULT_BLOCK_SIZE if block_size is None else int(block_size)
        if block_size <= 0:
            raise SchemaError(
                f"block_size must be positive, got {block_size}"
            )
        self._block_size = block_size
        # Zone maps are kept for orderable numeric attributes only; an
        # empty zone (lo > hi) marks a block that has seen no comparable
        # value yet (e.g. all NaN so far).
        self._tracks_zones = np.issubdtype(self._dtype, np.number) and not (
            np.issubdtype(self._dtype, np.complexfloating)
        )
        self._zones = Zones(
            np.empty(0, dtype=self._dtype),
            np.empty(0, dtype=self._dtype),
            np.empty(0, dtype=bool),
        )
        #: rows already folded into the zone arrays; rows beyond this are
        #: folded lazily on the next ``zone()`` call, under the lock
        #: (queries are concurrent readers, so the lazy fold must not
        #: race itself).
        self._zone_rows = 0
        self._zone_lock = threading.Lock()
        # --- tiered residency state (all dormant until first demote) --
        #: per-block entries for sealed (full) blocks once chunked:
        #: ndarray (hot) | _WarmBlock | _ColdBlock.  None = contiguous
        #: mode, the zero-overhead fast path.
        self._chunks: Optional[List[object]] = None
        self._tail: Optional[np.ndarray] = None  # rows past the sealed blocks
        self._tail_size = 0
        #: the sealed blocks' bytes per tier (chunked mode; the tail's
        #: are ``_tail_size`` rows)
        self._tally = _Tally()
        self._spill: Optional[ColumnBlockStore] = None  # created at first demote
        self._tier_lock = threading.RLock()
        #: per block, the tick of the last read that touched it (0 =
        #: never); writers size it (:meth:`_grow_ticks`), so a read only
        #: assigns into it — a range read as one slice.  A read racing
        #: the regrow may stamp the old array: that tick is lost, which
        #: only ages the block in the governor's LRU order.
        self._ticks = np.zeros(0, dtype=np.int64)
        #: value-error floor inherited from the source column a
        #: take/gather materialised from: derived hot copies of
        #: dequantised values still carry the quantisation error.
        self._value_error_floor = 0.0
        #: real block materialisations of non-hot blocks (zone-map
        #: pruned blocks never appear here — pruning is zone-only).
        self.decompressions = 0
        #: tick of the last scan that touched a demoted block — the
        #: governor's promote-on-access signal.
        self._demoted_access_tick = 0
        #: tick of the last scan or gather that read this column
        self._read_tick = 0
        self._scratch = threading.local()
        if values is not None:
            self.extend(values)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """The numpy dtype of stored values."""
        return self._dtype

    def __len__(self) -> int:
        return self._size

    @property
    def values(self) -> np.ndarray:
        """A read-only view of the live region of the column.

        The view aliases internal storage; callers must not mutate it.
        It is invalidated by the next append that triggers a regrow,
        which is why operators copy (materialise) before returning.
        With demoted blocks the column has no contiguous buffer, so
        this materialises a fresh (read-only) array instead — warm
        blocks dequantise, cold blocks read from the spill.  Scans go
        through :meth:`read_range` and never pay this.

        Readers snapshot ``_data`` first: a concurrent first demotion
        (:meth:`_to_chunked`) publishes ``_chunks`` before clearing
        ``_data``, so a stale snapshot is still the complete, valid
        contiguous buffer.
        """
        data = self._data
        if data is not None:
            view = data[: self._size]
            view.flags.writeable = False
            return view
        out = self._materialise_range(0, self._size, touch=False)
        out.flags.writeable = False
        return out

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            if not -self._size <= index < self._size:
                raise IndexError(
                    f"index {index} out of range for column {self.name!r} "
                    f"of length {self._size}"
                )
            row = index if index >= 0 else self._size + index
            data = self._data
            if data is not None:
                return data[row]
            block = row // self._block_size
            return self._block_values(int(block))[row - block * self._block_size]
        return self.values[index]

    def __repr__(self) -> str:
        return f"Column({self.name!r}, dtype={self._dtype}, len={self._size})"

    # ------------------------------------------------------------------
    # blocks and zone maps
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        """Rows per storage block."""
        return self._block_size

    @property
    def num_blocks(self) -> int:
        """Number of (full or partial) blocks currently live."""
        return -(-self._size // self._block_size) if self._size else 0

    def zone(self, block: int) -> Optional[Zone]:
        """The zone map of ``block``, or None when zones are not kept.

        Blocks that have seen only NaNs report an *empty* zone
        (``lo > hi``, ``has_nan=True``): no comparable value exists,
        so any range predicate can skip the block.  Zones are folded
        from raw values before a block may demote, so the same bounds
        stay exact for the quantised data — pruning decisions are
        identical across tiers and decompression-free.
        """
        zones = self.zones()
        if zones is None:
            return None
        if not 0 <= block < self.num_blocks:
            raise IndexError(
                f"block {block} out of range for column {self.name!r} "
                f"with {self.num_blocks} blocks"
            )
        lo, hi = zones.lo[block], zones.hi[block]
        if lo > hi:
            return Zone(lo=math.inf, hi=-math.inf, has_nan=True)
        return Zone(lo=lo, hi=hi, has_nan=bool(zones.has_nan[block]))

    def zones(self) -> Optional[Zones]:
        """Every block's zone map as arrays, or None when zones are not
        kept — what a scan plan prunes with, one vector operation per
        predicate instead of one call per block."""
        if not self._tracks_zones:
            return None
        self._ensure_zones()
        return self._zones

    def _ensure_zones(self) -> None:
        """Fold rows appended since the last fold into the zone arrays.

        Serialised because concurrent queries all reach here through
        the read path; without the lock two threads could interleave
        the grow-then-merge sequence and leave phantom entries.
        """
        if self._zone_rows == self._size:
            return
        with self._zone_lock:
            if self._zone_rows == self._size:
                return
            data = self._data  # snapshot: see `values` on the demotion race
            if data is not None:
                pending = data[self._zone_rows : self._size]
            else:
                # rows past the fold point are always hot (a block must
                # fold its zones before it may demote), so this never
                # decompresses anything
                pending = self._materialise_range(
                    self._zone_rows, self._size, touch=False
                )
            self._update_zones(self._zone_rows, pending)
            self._zone_rows = self._size

    def _update_zones(self, start: int, arr: np.ndarray) -> None:
        """Fold the values at rows ``start...`` into the blocks' zones.

        One ``reduceat`` per statistic over the block boundaries inside
        ``arr``; ``fmin``/``fmax`` skip NaNs, so a block of NaNs only
        reduces to NaN and is stored as the empty zone ``(+inf, -inf)``.
        A block the previous fold left partial is merged, not replaced.
        """
        if arr.shape[0] == 0:
            return
        bs = self._block_size
        first = start // bs
        cuts = np.arange(first * bs, start + arr.shape[0], bs) - start
        cuts[0] = 0
        lo = np.fmin.reduceat(arr, cuts)
        hi = np.fmax.reduceat(arr, cuts)
        if np.issubdtype(arr.dtype, np.floating):
            nan = np.logical_or.reduceat(np.isnan(arr), cuts)
            empty = np.isnan(lo)
            lo[empty] = np.inf
            hi[empty] = -np.inf
        else:
            nan = np.zeros(cuts.shape[0], dtype=bool)
        old = self._zones
        if old.lo.shape[0] > first:  # the partial block we stopped in
            lo[0] = np.fmin(lo[0], old.lo[first])
            hi[0] = np.fmax(hi[0], old.hi[first])
            nan[0] |= old.has_nan[first]
        self._zones = Zones(
            np.concatenate([old.lo[:first], lo]),
            np.concatenate([old.hi[:first], hi]),
            np.concatenate([old.has_nan[:first], nan]),
        )

    # ------------------------------------------------------------------
    # tiered residency
    # ------------------------------------------------------------------
    @property
    def is_fully_hot(self) -> bool:
        """Whether every block is a raw ndarray (no demoted payloads)."""
        return self._chunks is None or not (self._tally.warm or self._tally.cold)

    def tier_of(self, block: int) -> str:
        """The residency tier of ``block``: ``hot``/``warm``/``cold``."""
        if not 0 <= block < self.num_blocks:
            raise IndexError(
                f"block {block} out of range for column {self.name!r} "
                f"with {self.num_blocks} blocks"
            )
        if self._chunks is None or block >= len(self._chunks):
            return "hot"
        entry = self._chunks[block]
        return "hot" if isinstance(entry, np.ndarray) else entry.tier

    def block_tiers(self) -> Dict[str, int]:
        """Block counts per residency tier."""
        counts = {"hot": 0, "warm": 0, "cold": 0}
        for block in range(self.num_blocks):
            counts[self.tier_of(block)] += 1
        return counts

    def block_value_error(self, block: int) -> float:
        """The recorded max pointwise error bound of ``block``.

        0.0 for hot and cold blocks (both exact); the measured
        quantisation bound for warm blocks.  The column-wide floor
        (inherited from a lossy source at materialisation time) is not
        included — see :meth:`max_value_error`.
        """
        if self._chunks is None or block >= len(self._chunks):
            return 0.0
        entry = self._chunks[block]
        return entry.value_error if isinstance(entry, _WarmBlock) else 0.0

    def max_value_error(self) -> float:
        """Max pointwise value-error bound across the whole column.

        The honest per-value uncertainty of anything read from this
        column: the max of all warm blocks' recorded quantisation
        bounds and the floor inherited from lossy sources.  0.0 on the
        all-hot fast path — estimates collapse to today's widths.
        """
        worst = self._value_error_floor
        if self._chunks is not None and self._tally.warm:
            for entry in self._chunks:
                if isinstance(entry, _WarmBlock):
                    worst = max(worst, entry.value_error)
        return worst

    def value_error_at(self, indices: np.ndarray, raw: bool = False) -> float:
        """The bound :meth:`gather_with_error` reports for ``indices`` —
        the floor and, unless ``raw``, every touched block's — without
        reading a value.

        The touched blocks are marked read, as that gather would mark
        them: the memory governor ranks a row answer's blocks by the
        rows it matched, not by the few it returns.
        """
        self._read_tick = next(_TICK)
        chunks = self._chunks
        worst = self._value_error_floor
        if self._data is not None or chunks is None or indices.size == 0:
            return worst
        for block in np.unique(indices // self._block_size).tolist():
            if block < len(chunks) and not isinstance(chunks[block], np.ndarray):
                if not raw:
                    worst = max(worst, self.block_value_error(block))
                last = int(self._ticks[block])
                self._demoted_access_tick = last or next(_TICK)
            self._ticks[block] = next(_TICK)
        return worst

    def lossy_state(self) -> tuple:
        """What a read of this column gets dequantised: the inherited
        floor and, by block, each warm block's recorded bound — ``()``
        when every value read is exact.  Equal states read equal values:
        a block quantises the same raw values the same way every time."""
        warm = ()
        if self._chunks is not None and self._tally.warm:
            warm = tuple(
                (block, entry.value_error)
                for block, entry in enumerate(self._chunks)
                if isinstance(entry, _WarmBlock) and entry.value_error > 0.0
            )
        if warm or self._value_error_floor > 0.0:
            return (self._value_error_floor, warm)
        return ()

    def declare_value_error(self, bound: float) -> None:
        """Raise the column's inherited value-error floor to ``bound``.

        Used when materialising from a lossy source (a take over
        a column with warm blocks): the copied values are raw ndarrays
        again, but they were dequantised, so the bound must travel.
        """
        if bound > self._value_error_floor:
            self._value_error_floor = float(bound)

    def last_scanned(self, block: int) -> int:
        """The access tick of ``block`` (0 = never scanned)."""
        ticks = self._ticks
        return int(ticks[block]) if 0 <= block < ticks.shape[0] else 0

    @property
    def last_read(self) -> int:
        """The access tick of the last scan or gather that read any of
        this column (0 = never read)."""
        return self._read_tick

    @property
    def demoted_access_tick(self) -> int:
        """Tick of the last scan that touched a demoted block."""
        return self._demoted_access_tick

    @property
    def quantisable(self) -> bool:
        """Whether blocks of this column may demote to the warm tier.

        Only floating-point payload columns quantise; hidden columns
        (names starting with ``_``, e.g. the ``_pi`` inclusion
        probabilities every estimate is weighted by) must stay exact,
        so they may only go cold (which is lossless).
        """
        return np.issubdtype(self._dtype, np.floating) and not self.name.startswith(
            "_"
        )

    def _sealed_rows(self) -> int:
        return len(self._chunks) * self._block_size if self._chunks else 0

    def _ensure_spill(self) -> ColumnBlockStore:
        if self._spill is None:
            self._spill = ColumnBlockStore()
        return self._spill

    def _spill_key(self, block: int) -> str:
        return f"{self.name}@{id(self):x}#{block}"

    def _to_chunked(self) -> None:
        """Switch from the contiguous buffer to per-block storage.

        Full blocks become owned per-block arrays (so demotion can
        actually free their bytes); the partial last block becomes the
        growable append tail.  Zones fold first, so they are always
        built from raw, pre-quantisation values.
        """
        if self._chunks is not None:
            return
        self._ensure_zones()
        bs = self._block_size
        n_sealed = self._size // bs
        chunks: List[object] = [
            self._data[i * bs : (i + 1) * bs].copy() for i in range(n_sealed)
        ]
        tail_rows = self._size - n_sealed * bs
        tail = np.empty(max(_MIN_CAPACITY, tail_rows), dtype=self._dtype)
        if tail_rows:
            tail[:tail_rows] = self._data[n_sealed * bs : self._size]
        self._tally = _Tally(hot=n_sealed * bs * self._dtype.itemsize)
        self._chunks = chunks
        self._tail = tail
        self._tail_size = tail_rows
        self._data = None

    def _entry_bytes(self, entry) -> Tuple[str, int]:
        """The tier of one sealed block's entry and the bytes its tier
        tallies: RAM for hot and warm, the spilled raw bytes for cold."""
        if isinstance(entry, np.ndarray):
            return "hot", int(entry.nbytes)
        if isinstance(entry, _WarmBlock):
            return "warm", entry.nbytes
        return "cold", int(entry.length * self._dtype.itemsize)

    def _set_block(self, block: int, entry) -> None:
        """Replace sealed block ``block`` by ``entry``, moving its bytes
        between the tier tallies (under the tier lock)."""
        old_tier, old_bytes = self._entry_bytes(self._chunks[block])
        new_tier, new_bytes = self._entry_bytes(entry)
        tally = self._tally._asdict()
        tally[old_tier] -= old_bytes
        tally[new_tier] += new_bytes
        self._chunks[block] = entry
        self._tally = _Tally(**tally)

    def demote(self, block: int, tier: str = "warm", bits: int = 8) -> bool:
        """Demote one full block to the ``warm`` or ``cold`` tier.

        Returns True when the block's residency changed.  The raw
        bytes are always spilled first, so promotion is exact and
        ``cold`` is lossless.  ``warm`` quantises to ``bits``-wide
        signed codes (8 → int8, 16 → int16) and records the measured
        max pointwise error; blocks the quantiser cannot bound
        (non-finite values, non-float dtypes, hidden columns) fall
        through to ``cold``.  Partial (tail) blocks never demote.
        """
        if tier not in ("warm", "cold"):
            raise SchemaError(f"unknown tier {tier!r}; expected warm or cold")
        if bits not in (8, 16):
            raise SchemaError(f"warm quantisation supports 8 or 16 bits, not {bits}")
        with self._tier_lock:
            if (block + 1) * self._block_size > self._size:
                return False  # partial tail block: stays hot
            current = self.tier_of(block)
            if current == tier or current == "cold":
                return False
            self._to_chunked()
            entry = self._chunks[block]
            if isinstance(entry, np.ndarray):
                raw = entry
                spill = self._ensure_spill()
                key = self._spill_key(block)
                if not spill.contains(key):
                    spill.put(key, raw)
            else:
                raw = None  # warm → cold: raw already spilled
            if tier == "warm":
                warm = self._quantise(raw, bits)
                if warm is None:
                    tier = "cold"  # unquantisable: lossless fallback
                else:
                    self._set_block(block, warm)
                    return True
            self._set_block(block, _ColdBlock(self._block_size))
            return True

    def promote(self, block: int) -> bool:
        """Restore one demoted block to the hot tier, byte-identically.

        The spill holds the original raw bytes, so promotion after any
        demotion chain (hot→warm→cold) reproduces the exact pre-demote
        values.  Returns True when the block's residency changed.
        """
        with self._tier_lock:
            if self._chunks is None or block >= len(self._chunks):
                return False
            entry = self._chunks[block]
            if isinstance(entry, np.ndarray):
                return False
            raw = self._spill.read(
                self._spill_key(block), self._dtype, self._block_size
            )
            self._set_block(block, np.array(raw, dtype=self._dtype))
            return True

    def promote_all(self) -> int:
        """Promote every demoted block to hot; returns blocks promoted."""
        if self._chunks is None:
            return 0
        return sum(1 for b in range(len(self._chunks)) if self.promote(b))

    def _quantise(self, raw: Optional[np.ndarray], bits: int):
        """Quantise one raw block, or None when it cannot be bounded."""
        if raw is None or not self.quantisable:
            return None
        values = raw.astype(np.float64, copy=False)
        if not np.isfinite(values).all():
            return None
        lo = float(values.min()) if values.shape[0] else 0.0
        hi = float(values.max()) if values.shape[0] else 0.0
        qlo = -(1 << (bits - 1))
        levels = (1 << bits) - 1
        span = hi - lo
        code_dtype = np.int8 if bits == 8 else np.int16
        if span == 0.0:
            codes = np.full(values.shape[0], qlo, dtype=code_dtype)
            warm = _WarmBlock(codes, lo, 0.0, qlo, 0.0, values.shape[0])
        else:
            scale = span / levels
            codes = np.clip(
                np.rint((values - lo) / scale) + qlo, qlo, qlo + levels
            ).astype(code_dtype)
            warm = _WarmBlock(codes, lo, scale, qlo, 0.0, values.shape[0])
            dequantised = warm.dequantise(np.float64)
            warm.value_error = float(np.abs(dequantised - values).max())
        return warm

    # ------------------------------------------------------------------
    # tier-aware reads
    # ------------------------------------------------------------------
    def _touch(self, first_block: int, last_block: int) -> None:
        self._read_tick = tick = next(_TICK)
        self._ticks[first_block : last_block + 1] = tick

    def _grow_ticks(self, rows: int) -> None:
        """Make room for a tick per block of ``rows`` rows (doubling, so
        appends pay amortised O(1)).  Writers call it before they
        publish the new size, so a reader never meets a block without a
        slot; readers never resize it."""
        blocks = -(-rows // self._block_size)
        held = self._ticks.shape[0]
        if blocks > held:
            ticks = np.zeros(max(blocks, 2 * held), dtype=np.int64)
            ticks[:held] = self._ticks
            self._ticks = ticks

    def _block_values(self, block: int, raw: bool = False) -> np.ndarray:
        """The values of one block (chunked mode), materialised.

        Hot blocks and the tail return aliasing views; warm blocks
        dequantise (or, with ``raw``, read their raw bytes from the
        spill) and cold blocks mmap-read from the spill — both counted
        in :attr:`decompressions` and recorded as demoted-block
        accesses for the governor's promote-on-access signal.
        """
        assert self._chunks is not None
        if block >= len(self._chunks):
            lo = block * self._block_size - self._sealed_rows()
            hi = min(lo + self._block_size, self._tail_size)
            return self._tail[lo:hi]
        entry = self._chunks[block]
        if isinstance(entry, np.ndarray):
            return entry
        self.decompressions += 1
        self._demoted_access_tick = int(self._ticks[block]) or next(_TICK)
        if isinstance(entry, _WarmBlock) and not raw:
            return entry.dequantise(self._dtype)
        return self._spill.read(
            self._spill_key(block), self._dtype, self._block_size
        )

    def _scratch_buffer(self, n: int) -> np.ndarray:
        buffer = getattr(self._scratch, "buffer", None)
        if buffer is None or buffer.shape[0] < n:
            buffer = np.empty(
                max(n, min(self._block_size, self._size or n)), dtype=self._dtype
            )
            self._scratch.buffer = buffer
        buffer.flags.writeable = True
        return buffer

    def _materialise_range(
        self,
        start: int,
        stop: int,
        out: Optional[np.ndarray] = None,
        touch=True,
        raw: bool = False,
    ) -> np.ndarray:
        """Assemble rows ``[start, stop)`` across block boundaries (warm
        blocks dequantised, or with ``raw`` read from the spill)."""
        n = stop - start
        if out is None:
            out = np.empty(n, dtype=self._dtype)
        bs = self._block_size
        block = start // bs
        pos = 0
        while pos < n:
            row = start + pos
            block = row // bs
            take = min(n - pos, (block + 1) * bs - row)
            values = self._block_values(block, raw)
            offset = row - block * bs
            out[pos : pos + take] = values[offset : offset + take]
            pos += take
        if touch:
            self._touch(start // bs, (stop - 1) // bs)
        return out

    def read_range(self, start: int, stop: int, raw: bool = False) -> np.ndarray:
        """Rows ``[start, stop)`` for a scan, tier-aware and read-only.

        The scan hot path: contiguous columns return the same
        zero-copy view as before; chunked columns return views when
        the range stays inside one hot block (or the tail) and
        otherwise decompress per-block into a reused per-thread
        scratch buffer — one allocation per (column, thread), not per
        morsel.  Warm blocks read dequantised, or with ``raw`` their raw
        bytes from the spill — what an exact scan reads, with no tier
        changed.  Callers must consume the result before the next
        ``read_range`` on the same column from the same thread.
        """
        start = max(int(start), 0)
        stop = min(int(stop), self._size)
        if stop <= start:
            return np.empty(0, dtype=self._dtype)
        data = self._data  # snapshot: see `values` on the demotion race
        if data is not None:
            self._touch(start // self._block_size, (stop - 1) // self._block_size)
            view = data[start:stop]
            view.flags.writeable = False
            return view
        bs = self._block_size
        first = start // bs
        last = (stop - 1) // bs
        sealed = self._sealed_rows()
        if start >= sealed:
            self._touch(first, last)
            view = self._tail[start - sealed : stop - sealed]
            view.flags.writeable = False
            return view
        if first == last:
            entry = self._chunks[first]
            if isinstance(entry, np.ndarray):
                self._touch(first, last)
                view = entry[start - first * bs : stop - first * bs]
                view.flags.writeable = False
                return view
        n = stop - start
        out = self._materialise_range(
            start, stop, out=self._scratch_buffer(n), raw=raw
        )
        view = out[:n]
        view.flags.writeable = False
        return view

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """``values[indices]`` exactly as stored, at every tier.

        Hot blocks and the tail are read from RAM; warm and cold blocks
        from the spill, which always holds their raw bytes (demotion
        spills first) — so no tier adds an error to the result, and a
        copy built from it is an exact copy.  Each touched block is read
        at most once.  Returns an owned array.
        """
        return self.gather_with_error(indices, raw=True)[0]

    def gather_with_error(
        self, indices: np.ndarray, raw: bool = False
    ) -> Tuple[np.ndarray, float]:
        """``values[indices]`` plus the max value-error bound of what was
        read: the one gather every other goes through.

        By default values are what a scan reads — warm blocks
        dequantised, their recorded bounds reported; with ``raw`` they
        are :meth:`gather`'s, and no block adds to the bound.  Either
        way the bound includes the column's inherited floor.  Touched
        blocks are read at most once, zone-pruned ones never.
        """
        idx = np.asarray(indices)
        if idx.dtype == np.bool_:
            raise SchemaError(
                f"gather on column {self.name!r} expects indices, got a mask"
            )
        idx = idx.astype(np.int64, copy=False)
        self._read_tick = next(_TICK)
        data = self._data  # snapshot: see `values` on the demotion race
        if data is not None:
            view = data[: self._size]
            view.flags.writeable = False
            return view[idx], self._value_error_floor
        if idx.size == 0:
            return np.empty(0, dtype=self._dtype), self._value_error_floor
        idx = np.where(idx < 0, idx + self._size, idx)
        out = np.empty(idx.shape[0], dtype=self._dtype)
        blocks = idx // self._block_size
        worst = self._value_error_floor
        for block in np.unique(blocks):
            block = int(block)
            sel = blocks == block
            values = self._block_values(block, raw)
            out[sel] = values[idx[sel] - block * self._block_size]
            if not raw:
                worst = max(worst, self.block_value_error(block))
            self._ticks[block] = next(_TICK)
        return out, worst

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _grow_to(self, capacity: int) -> None:
        if capacity <= self._data.shape[0]:
            return
        new_capacity = max(_MIN_CAPACITY, self._data.shape[0])
        while new_capacity < capacity:
            new_capacity *= 2
        new_data = np.empty(new_capacity, dtype=self._dtype)
        new_data[: self._size] = self._data[: self._size]
        self._data = new_data

    def _grow_tail_to(self, capacity: int) -> None:
        if capacity <= self._tail.shape[0]:
            return
        new_capacity = max(_MIN_CAPACITY, self._tail.shape[0])
        while new_capacity < capacity:
            new_capacity *= 2
        new_tail = np.empty(new_capacity, dtype=self._dtype)
        new_tail[: self._tail_size] = self._tail[: self._tail_size]
        self._tail = new_tail

    def _seal_full_tail_blocks(self) -> None:
        """Move full blocks out of the tail into sealed hot chunks."""
        bs = self._block_size
        while self._tail_size >= bs:
            self._chunks.append(self._tail[:bs].copy())
            self._tally = self._tally._replace(
                hot=self._tally.hot + bs * self._dtype.itemsize
            )
            remaining = self._tail_size - bs
            if remaining:
                self._tail[:remaining] = self._tail[bs : self._tail_size].copy()
            self._tail_size = remaining

    def extend(self, values: Iterable) -> None:
        """Append many values at once (the vectorised load path)."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise SchemaError(
                f"column {self.name!r} expects 1-d input, got shape {arr.shape}"
            )
        try:
            arr = arr.astype(self._dtype, casting="same_kind", copy=False)
        except TypeError as exc:
            raise SchemaError(
                f"cannot load dtype {arr.dtype} into column "
                f"{self.name!r} of dtype {self._dtype}"
            ) from exc
        self._grow_ticks(self._size + arr.shape[0])
        if self._chunks is None:
            self._grow_to(self._size + arr.shape[0])
            self._data[self._size : self._size + arr.shape[0]] = arr
            self._size += arr.shape[0]
            return
        with self._tier_lock:
            self._grow_tail_to(self._tail_size + arr.shape[0])
            self._tail[self._tail_size : self._tail_size + arr.shape[0]] = arr
            self._tail_size += arr.shape[0]
            self._size += arr.shape[0]
            self._seal_full_tail_blocks()

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    @classmethod
    def from_external(
        cls,
        name: str,
        dtype: Union[str, np.dtype],
        values: np.ndarray,
        block_size: Optional[int] = None,
    ) -> "Column":
        """Adopt an externally-owned buffer as a column, zero-copy.

        The array is used as the backing store directly, so the caller
        must keep the underlying buffer alive for the column's lifetime
        and must not resize it.  Appending still works — the first
        regrow copies out of the external buffer.  Zone maps are
        computed lazily from the adopted values like any other
        column's.  Adopted columns start (and, absent demotions, stay)
        on the contiguous fast path.  :meth:`take` hands its freshly
        gathered arrays over this way: nobody else
        holds them, so copying them into a new buffer buys nothing.
        """
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise SchemaError(
                f"column {name!r} expects 1-d input, got shape {arr.shape}"
            )
        column = cls(name, dtype, block_size=block_size)
        if arr.dtype != column._dtype:
            raise SchemaError(
                f"external buffer dtype {arr.dtype} does not match "
                f"column {name!r} dtype {column._dtype}"
            )
        column._grow_ticks(arr.shape[0])
        column._data = arr
        column._size = int(arr.shape[0])
        return column

    def take(self, indices: np.ndarray, raw: bool = False) -> "Column":
        """A new column holding ``values[indices]`` (materialised).

        Tier-aware: touched blocks decompress at most once each, and
        the result inherits the max value-error bound of the blocks it
        was gathered from (a hot copy of dequantised values is still
        only accurate to the quantisation bound) — none with ``raw``,
        which reads warm blocks' raw bytes (:meth:`gather_with_error`).
        """
        gathered, error = self.gather_with_error(np.asarray(indices), raw)
        # adopted, not copied again: the gather is already an owned array
        column = Column.from_external(
            self.name, self._dtype, gathered, block_size=self._block_size
        )
        column.declare_value_error(error)
        return column

    def nbytes(self) -> int:
        """RAM-resident payload bytes (excludes slack and cold spill).

        The contiguous fast path reports live size × itemsize exactly
        as before; with demoted blocks, warm blocks count their code
        bytes and cold blocks count nothing — that difference is the
        footprint the memory governor trades error bounds for.
        """
        if self._chunks is None:
            return int(self._size * self._dtype.itemsize)
        tally = self._tally
        return int(self._tail_size * self._dtype.itemsize + tally.hot + tally.warm)

    def nbytes_by_tier(self) -> Dict[str, int]:
        """Payload bytes per residency tier.

        ``hot`` and ``warm`` are RAM-resident; ``cold`` reports the
        mmap-backed spill bytes (the block's raw payload on disk).  Read
        from the column's tally: no block is visited.
        """
        if self._chunks is None:
            return {
                "hot": int(self._size * self._dtype.itemsize),
                "warm": 0,
                "cold": 0,
            }
        tally = self._tally
        return {
            "hot": int(self._tail_size * self._dtype.itemsize + tally.hot),
            "warm": tally.warm,
            "cold": tally.cold,
        }

    def block_nbytes(self, block: int) -> int:
        """RAM bytes of one block: raw for hot, codes for warm, none for
        cold."""
        chunks = self._chunks
        if chunks is None or block >= len(chunks):
            return min(self._block_size, self._size - block * self._block_size) * (
                self._dtype.itemsize
            )
        tier, size = self._entry_bytes(chunks[block])
        return 0 if tier == "cold" else size

    def block_report(self) -> List[Tuple[int, str, int, int]]:
        """Per full block: ``(block, tier, last_scanned, ram_bytes)``.

        The governor's demotion-candidate feed; partial tail blocks
        (never demotable) are omitted.
        """
        return [
            (block, self.tier_of(block), self.last_scanned(block), self.block_nbytes(block))
            for block in range(self._size // self._block_size)
        ]
