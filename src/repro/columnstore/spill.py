"""The cold tier's backing store: an anonymous raw-block spill file.

When a block of a :class:`~repro.columnstore.column.Column` first
demotes, its exact raw bytes are written here once; every later read —
a cold scan, a raw read of a warm block, or a promotion back to hot —
maps those bytes read-only via ``np.memmap``, so cold blocks cost no
RAM until touched and promotion is byte-identical by construction.

The file is an unnamed temporary that the OS reclaims when the store
is collected or the process exits: nothing here outlives the engine.
"""

from __future__ import annotations

import tempfile
import threading

import numpy as np

from repro.errors import ImpressionError


class ColumnBlockStore:
    """Append-only raw-block spill file with mmap-backed reads.

    Entries are immutable (one ``put`` per key) and keyed by an opaque
    string the column derives from its identity and block index.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int, str]] = {}
        self._offset = 0
        self._file = tempfile.TemporaryFile(prefix="sciborq-blocks-")

    def contains(self, key: str) -> bool:
        """Whether ``key`` was already spilled."""
        with self._lock:
            return key in self._index

    def put(self, key: str, values: np.ndarray) -> None:
        """Spill one block's raw bytes under ``key`` (write-once)."""
        arr = np.ascontiguousarray(values)
        with self._lock:
            if key in self._index:
                raise ImpressionError(f"block {key!r} already spilled")
            self._file.seek(self._offset)
            self._file.write(arr.tobytes())
            self._file.flush()
            self._index[key] = (self._offset, int(arr.shape[0]), arr.dtype.str)
            self._offset += arr.nbytes

    def read(self, key: str, dtype, count: int) -> np.ndarray:
        """A read-only mmap view of the block spilled under ``key``."""
        with self._lock:
            if key not in self._index:
                raise ImpressionError(f"no spilled block under {key!r}")
            offset, stored_count, stored_dtype = self._index[key]
        dtype = np.dtype(dtype)
        if dtype != np.dtype(stored_dtype):
            raise ImpressionError(
                f"block {key!r} was spilled as {stored_dtype}, not {dtype}"
            )
        if count != stored_count:
            raise ImpressionError(
                f"block {key!r} holds {stored_count} values, not {count}"
            )
        return np.memmap(
            self._file,
            dtype=dtype,
            mode="r",
            offset=offset,
            shape=(stored_count,),
        )
