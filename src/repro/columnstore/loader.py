"""The load pipeline: bulk and incremental ingest with observer hooks.

Impressions "are constructed with little overhead during the load
phase, without the need to visit the base tables after the data is
stored.  The construction algorithms reside in the load process,
considering each tuple as it is being loaded, much like a stream"
(paper §3.3).  This module is that load process: observers —
impression builders, interest models, statistics — register per table
and are handed every batch as it streams through.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.columnstore.catalog import Catalog


class LoadObserver:
    """Interface for components that ride along the load stream.

    ``on_batch`` receives the column-wise batch *after* it has been
    appended, together with the index of its first row in the base
    table, so observers can record base-table row ids for the tuples
    they keep.
    """

    def on_batch(
        self,
        table_name: str,
        start_row: int,
        batch: Mapping[str, np.ndarray],
    ) -> None:
        """Handle one appended batch."""
        raise NotImplementedError


class Loader:
    """Appends batches to catalog tables and fans them out to observers."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._observers: Dict[str, List[LoadObserver]] = defaultdict(list)

    # ------------------------------------------------------------------
    # observer registry
    # ------------------------------------------------------------------
    def register(self, table_name: str, observer: LoadObserver) -> None:
        """Attach an observer to future loads of ``table_name``."""
        if not isinstance(observer, LoadObserver):
            raise TypeError(
                f"observer must be a LoadObserver, got {type(observer).__name__}"
            )
        self._observers[table_name].append(observer)

    def observers_of(self, table_name: str) -> list[LoadObserver]:
        """Observers currently attached to ``table_name``."""
        return list(self._observers.get(table_name, ()))

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def load_batch(
        self, table_name: str, batch: Mapping[str, np.ndarray | Sequence]
    ) -> int:
        """Append one column-wise batch; notify observers; return count."""
        table = self.catalog.table(table_name)
        start_row = table.num_rows
        arrays = {name: np.asarray(values) for name, values in batch.items()}
        count = table.append_batch(arrays)
        for observer in self._observers.get(table_name, ()):
            observer.on_batch(table_name, start_row, arrays)
        return count
