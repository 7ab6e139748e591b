"""Reference accounting for tiered columns: a walk over every block.

A column keeps its per-tier byte tally as blocks change tier and rows
are appended (``Column.nbytes_by_tier``), so the memory governor's
footprint check visits no block.  The walk below visits every block
instead, and is what the tally must always equal.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.columnstore.column import Column, _WarmBlock


def walked_nbytes_by_tier(column: Column) -> Dict[str, int]:
    """Payload bytes per tier, summed block by block: hot counts raw
    bytes (the tail too), warm its codes, cold the spilled raw bytes."""
    itemsize = column.dtype.itemsize
    chunks = column._chunks
    if chunks is None:
        return {"hot": len(column) * itemsize, "warm": 0, "cold": 0}
    report = {"hot": column._tail_size * itemsize, "warm": 0, "cold": 0}
    for entry in chunks:
        if isinstance(entry, np.ndarray):
            report["hot"] += int(entry.nbytes)
        elif isinstance(entry, _WarmBlock):
            report["warm"] += int(entry.codes.nbytes)
        else:
            report["cold"] += int(entry.length * itemsize)
    return report


def walked_memory_report(engine) -> Dict[str, object]:
    """``engine.memory_report()``'s totals, recomputed from block walks."""
    tiers = {"hot": 0, "warm": 0, "cold": 0}
    for name in engine.catalog.table_names:
        for column in engine.catalog.table(name).resident_columns():
            for tier, size in walked_nbytes_by_tier(column).items():
                tiers[tier] += size
    impressions = 0
    for named in engine._hierarchies.values():
        for hierarchy in named.values():
            for impression in hierarchy.layers:
                table = impression.cached_table()
                if table is None:
                    impressions += np.dtype(np.float64).itemsize * impression.size
                    continue
                for column in table.resident_columns():
                    walked = walked_nbytes_by_tier(column)
                    impressions += walked["hot"] + walked["warm"]
    recycler = engine.recycler.size_bytes if engine.recycler is not None else 0
    return {
        "tiers": tiers,
        "impressions_bytes": impressions,
        "recycler_bytes": recycler,
        "ram_total": tiers["hot"] + tiers["warm"] + impressions + recycler,
        "cold_bytes": tiers["cold"],
    }
