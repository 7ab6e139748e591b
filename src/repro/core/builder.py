"""The impression builder: a load observer feeding every layer.

"Impressions ... are constructed with little overhead during the load
phase, without the need to visit the base tables after the data is
stored" (paper §3.3).  The builder registers with the
:class:`~repro.columnstore.loader.Loader`; each appended batch is
offered — as a stream of (row id, values) — to every impression
registered for that table.  Samplers that don't inspect values
(Algorithm R, Last Seen) get only the row ids; the biased reservoir
receives the column batch so it can evaluate the interest mass.

The builder also keys every loaded row with its interest cell
(:class:`~repro.core.impression.CellKeys`), from the raw batch, before
any sampler sees it: the impressions it feeds lay their tables out in
cell order without ever reading the base table back.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.columnstore.loader import LoadObserver
from repro.core.impression import CellKeys, Impression
from repro.sampling.biased import BiasedReservoir


class ImpressionBuilder(LoadObserver):
    """Routes load batches into all registered impressions.

    One builder serves any number of hierarchies and tables; register
    it once per table with the loader, then attach impressions.
    ``interest_domains`` are the engine's interest attributes and their
    domains, the axes of every table's cells (a table with none of them
    has one cell).
    """

    def __init__(self, interest_domains: Mapping[str, Tuple[float, float]]) -> None:
        self._interest_domains = dict(interest_domains)
        self._cells: Dict[str, CellKeys] = {}
        self._impressions: Dict[str, List[Impression]] = defaultdict(list)
        self.batches_processed = 0
        self.tuples_processed = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def attach(self, impression: Impression) -> None:
        """Register an impression for its base table's future loads."""
        impression.cells = self.cells_of(impression.base_table)
        self._impressions[impression.base_table].append(impression)

    def cells_of(self, table_name: str) -> CellKeys:
        """The interest cells of ``table_name``'s rows seen so far."""
        cells = self._cells.get(table_name)
        if cells is None:
            cells = self._cells[table_name] = CellKeys(self._interest_domains)
        return cells

    def attach_hierarchy(self, hierarchy) -> None:
        """Register every layer of a hierarchy."""
        for impression in hierarchy.layers:
            self.attach(impression)

    def detach(self, impression: Impression) -> None:
        """Unregister an impression (e.g. of a replaced hierarchy)."""
        try:
            self._impressions[impression.base_table].remove(impression)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # the load hook
    # ------------------------------------------------------------------
    def on_batch(
        self,
        table_name: str,
        start_row: int,
        batch: Mapping[str, np.ndarray],
    ) -> None:
        """Offer one appended batch to every registered impression."""
        targets = self._impressions.get(table_name, ())
        if not targets:
            return
        lengths = {np.asarray(v).shape[0] for v in batch.values()}
        (count,) = lengths or {0}
        if count == 0:
            return
        row_ids = np.arange(start_row, start_row + count, dtype=np.int64)
        self.cells_of(table_name).observe(start_row, batch)
        for impression in targets:
            if isinstance(impression.sampler, BiasedReservoir):
                impression.sampler.offer_batch(row_ids, batch)
            else:
                impression.sampler.offer_batch(row_ids)
            impression.set_inclusion_override(None)
        self.batches_processed += 1
        self.tuples_processed += count
