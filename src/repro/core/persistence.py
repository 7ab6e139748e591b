"""Impression persistence: save and restore hierarchy state.

The paper's workflow splits exploration across sessions: "This
scenario, once proven correct and relevant, can be run in depth
against all data overnight" (§1).  An interactive session's
impressions — and the inclusion probabilities their error bounds rest
on — must therefore survive process restarts.  This module snapshots
a hierarchy's statistical state (per layer: base-row ids, inclusion
probabilities, stream position) to a single ``.npz`` file and
restores it into a freshly-built hierarchy of the same shape.

What is *not* saved: the tuple values (they live in the base table)
and the samplers' RNG state (a restored impression continues with its
sampler's fresh stream; the restored πs decay correctly through the
expected-churn bookkeeping, exactly as after a πps rebuild).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.core.hierarchy import ImpressionHierarchy
from repro.errors import ImpressionError

#: Format marker for forward compatibility.  Version 2 adds the
#: column-block spill sidecar (:class:`ColumnBlockStore`); version-1
#: hierarchy snapshots remain loadable.
FORMAT_VERSION = 2

#: Snapshot versions :func:`read_snapshot_metadata` accepts.
SUPPORTED_VERSIONS = (1, 2)


def save_hierarchy(hierarchy: ImpressionHierarchy, path: str | Path) -> Path:
    """Snapshot a hierarchy's sampling state to ``path`` (.npz).

    Returns the path written.  The snapshot is self-describing: layer
    names, capacities and the base table name travel along, and
    :func:`load_hierarchy` refuses mismatched targets.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    metadata = {
        "format_version": FORMAT_VERSION,
        "hierarchy_name": hierarchy.name,
        "base_table": hierarchy.base_table,
        "layers": [],
    }
    for index, impression in enumerate(hierarchy.layers):
        arrays[f"layer{index}_row_ids"] = impression.row_ids
        arrays[f"layer{index}_pis"] = impression.inclusion_probabilities()
        metadata["layers"].append(
            {
                "name": impression.name,
                "capacity": impression.capacity,
                "seen": impression.sampler.seen,
                "columns": list(impression.columns)
                if impression.columns is not None
                else None,
            }
        )
    arrays["metadata"] = np.frombuffer(
        json.dumps(metadata).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    # np.savez appends .npz when absent; report the real file
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def read_snapshot_metadata(path: str | Path) -> dict:
    """The snapshot's metadata dict (no sampler state is touched)."""
    with np.load(Path(path)) as bundle:
        raw = bundle["metadata"].tobytes().decode("utf-8")
    metadata = json.loads(raw)
    if metadata.get("format_version") not in SUPPORTED_VERSIONS:
        raise ImpressionError(
            f"snapshot format {metadata.get('format_version')!r} is not "
            f"supported (expected one of {SUPPORTED_VERSIONS})"
        )
    return metadata


def load_hierarchy(hierarchy: ImpressionHierarchy, path: str | Path) -> None:
    """Restore a snapshot into ``hierarchy`` (same shape required).

    The target hierarchy must sample the same base table and have the
    same layer capacities; its samplers are overwritten with the
    snapshot's row ids and inclusion probabilities via
    ``load_state`` and continue streaming from there.
    """
    metadata = read_snapshot_metadata(path)
    if metadata["base_table"] != hierarchy.base_table:
        raise ImpressionError(
            f"snapshot is for base table {metadata['base_table']!r}, "
            f"not {hierarchy.base_table!r}"
        )
    saved_layers = metadata["layers"]
    if len(saved_layers) != hierarchy.depth:
        raise ImpressionError(
            f"snapshot has {len(saved_layers)} layers, hierarchy has "
            f"{hierarchy.depth}"
        )
    for saved, impression in zip(saved_layers, hierarchy.layers):
        if saved["capacity"] != impression.capacity:
            raise ImpressionError(
                f"layer {impression.layer} capacity mismatch: snapshot "
                f"{saved['capacity']}, hierarchy {impression.capacity}"
            )
    with np.load(Path(path)) as bundle:
        for index, (saved, impression) in enumerate(
            zip(saved_layers, hierarchy.layers)
        ):
            impression.sampler.load_state(
                bundle[f"layer{index}_row_ids"],
                bundle[f"layer{index}_pis"],
                seen=saved["seen"],
            )
            impression.set_inclusion_override(None)


def save_intelligence(source, path: str | Path) -> Path:
    """Snapshot a mined region-popularity model to ``path`` (.npz).

    ``source`` is a :class:`~repro.core.intelligence.
    WorkloadIntelligenceService` or a bare :class:`~repro.workload.
    intelligence.RegionPopularityModel`.  The snapshot carries the
    full popularity grid (counts, settled outcomes, cost/rung/error
    sums), the per-table counts, and — for a service — the miner's
    log cursor, so a reloaded model makes *identical* predictions and
    a service rebuilt on top keeps mining where this one stopped.  A
    service is read like any other reader reads it: it first mines
    what its engine's log gained, so the snapshot is current.
    """
    path = Path(path)
    model = getattr(source, "model", None)
    if model is None:
        model, cursor = source, None
    else:
        cursor = source.queries_mined  # catches up with the log first
    metadata: dict = {
        "format_version": FORMAT_VERSION,
        "kind": "workload-intelligence",
        "model": model.state_metadata(),
    }
    if cursor is not None:
        metadata["next_sequence"] = int(cursor)
    arrays = dict(model.state_arrays())
    arrays["metadata"] = np.frombuffer(
        json.dumps(metadata).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_intelligence(path: str | Path):
    """Restore a model saved by :func:`save_intelligence`.

    Returns the rebuilt :class:`~repro.workload.intelligence.
    RegionPopularityModel`; pass it to
    ``WorkloadIntelligenceService(model=...)`` to serve (and keep
    mining) it — the collaborative half of workload intelligence:
    one fleet's mined history tells the next engine where to sample.
    """
    from repro.workload.intelligence import RegionPopularityModel

    metadata = read_snapshot_metadata(path)
    if metadata.get("kind") != "workload-intelligence":
        raise ImpressionError(
            f"snapshot at {path} is not a workload-intelligence model "
            f"(kind={metadata.get('kind')!r})"
        )
    with np.load(Path(path)) as bundle:
        arrays = {
            name: np.array(bundle[name])
            for name in bundle.files
            if name != "metadata"
        }
    return RegionPopularityModel.from_state(arrays, metadata["model"])


class ColumnBlockStore:
    """Append-only raw-block spill file with mmap-backed reads.

    The cold tier's backing store (see
    :mod:`repro.columnstore.column`): when a block first demotes, its
    exact raw bytes are written here once; every later read — a cold
    scan or a promotion back to hot — maps those bytes read-only via
    ``np.memmap``, so cold blocks cost no RAM until touched and
    promotion is byte-identical by construction.

    Entries are immutable (one ``put`` per key) and keyed by an opaque
    string the column derives from its identity and block index.  By
    default the store uses an anonymous temporary file that the OS
    reclaims when the process exits; pass ``path`` to spill to a named
    file with a JSON **sidecar** (``<path>.blocks.json``) describing
    ``format_version`` and the key → (offset, count, dtype) index, so
    a partially-cold table can be reattached after restart.
    """

    SIDECAR_SUFFIX = ".blocks.json"

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int, str]] = {}
        self._offset = 0
        if self._path is None:
            self._file = tempfile.TemporaryFile(prefix="sciborq-blocks-")
        else:
            self._file = open(self._path, "a+b")
            sidecar = self.sidecar_path()
            if sidecar.exists():
                payload = json.loads(sidecar.read_text())
                if payload.get("format_version") not in SUPPORTED_VERSIONS:
                    raise ImpressionError(
                        f"block sidecar format "
                        f"{payload.get('format_version')!r} is not supported "
                        f"(expected one of {SUPPORTED_VERSIONS})"
                    )
                self._index = {
                    key: (int(off), int(count), dtype)
                    for key, (off, count, dtype) in payload["index"].items()
                }
                self._offset = self._path.stat().st_size

    def sidecar_path(self) -> Path:
        """The JSON sidecar path for a named store."""
        if self._path is None:
            raise ImpressionError("anonymous block stores have no sidecar")
        return self._path.with_name(self._path.name + self.SIDECAR_SUFFIX)

    def contains(self, key: str) -> bool:
        """Whether ``key`` was already spilled."""
        with self._lock:
            return key in self._index

    @property
    def keys(self) -> list[str]:
        """All spilled keys (insertion order)."""
        with self._lock:
            return list(self._index)

    @property
    def size_bytes(self) -> int:
        """Total raw bytes spilled so far."""
        with self._lock:
            return self._offset

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
        if self._path is not None:
            self._write_sidecar()

    def read(self, key: str, dtype, count: int | None = None) -> np.ndarray:
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
        if count is not None and count != stored_count:
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

    def _write_sidecar(self) -> None:
        with self._lock:
            payload = {
                "format_version": FORMAT_VERSION,
                "index": {
                    key: [off, count, dtype]
                    for key, (off, count, dtype) in self._index.items()
                },
            }
        tmp = self.sidecar_path().with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.sidecar_path())

    def close(self) -> None:
        """Close the backing file (reads fail afterwards)."""
        self._file.close()
