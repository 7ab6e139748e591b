"""Multi-layer impression hierarchies.

"SciBORQ is a multi-layer hierarchical and parallel collection of
impressions. ... Each less detailed impression is derived from a
previous more detailed one.  In such a derivation, the focal point of
the larger impression is inherited by the smaller, but many such
hierarchies of impressions exist.  If the error bounds during query
execution are not met, the process continues on a larger impression
of the same hierarchy" (paper §3.1).

Layer 0 is the most detailed (largest) impression; higher layers are
smaller and cheaper.  The bounded query processor walks a hierarchy
smallest-first and escalates toward layer 0 — and ultimately the base
table — until the quality contract is satisfied.

The base table stays in load order, but the hierarchy already
partitions it in interest-cell order: the largest layer's table plus
its complement.  :meth:`ImpressionHierarchy.base_cover` decides when a
base scan reads those two instead.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.columnstore.executor import BaseCover
from repro.columnstore.expressions import Expression
from repro.columnstore.operators import scan_plan
from repro.columnstore.query import Query
from repro.columnstore.table import Table
from repro.core.impression import Impression
from repro.errors import ImpressionError


class ImpressionHierarchy:
    """An ordered stack of impressions over one base table.

    Parameters
    ----------
    name:
        Hierarchy name, e.g. ``"PhotoObjAll/biased"``.
    base_table:
        The table all layers sample.
    layers:
        Impressions ordered most-detailed first (layer 0 largest);
        capacities must strictly decrease.
    """

    def __init__(
        self, name: str, base_table: str, layers: Sequence[Impression]
    ) -> None:
        if not layers:
            raise ImpressionError("a hierarchy needs at least one layer")
        for impression in layers:
            if impression.base_table != base_table:
                raise ImpressionError(
                    f"layer {impression.name!r} samples "
                    f"{impression.base_table!r}, not {base_table!r}"
                )
        capacities = [impression.capacity for impression in layers]
        if any(a <= b for a, b in zip(capacities, capacities[1:])):
            raise ImpressionError(
                f"layer capacities must strictly decrease, got {capacities}"
            )
        self.name = name
        self.base_table = base_table
        self._layers = list(layers)
        for index, impression in enumerate(self._layers):
            impression.layer = index

    # ------------------------------------------------------------------
    @property
    def layers(self) -> list[Impression]:
        """Layers, most detailed (largest) first."""
        return list(self._layers)

    @property
    def depth(self) -> int:
        """Number of layers."""
        return len(self._layers)

    def layer(self, index: int) -> Impression:
        """The impression at layer ``index`` (0 = most detailed)."""
        try:
            return self._layers[index]
        except IndexError:
            raise ImpressionError(
                f"hierarchy {self.name!r} has {self.depth} layers, "
                f"no layer {index}"
            ) from None

    def from_smallest(self) -> Iterator[Impression]:
        """Iterate layers cheapest-first (the escalation order)."""
        return iter(reversed(self._layers))

    # ------------------------------------------------------------------
    def candidates_for(self, query: Query, base: Table) -> list[Impression]:
        """Layers able to answer ``query``, cheapest first.

        A layer qualifies if it covers every column the query reads
        (column-subset impressions may not).
        """
        return [
            impression
            for impression in self.from_smallest()
            if impression.covers(query, base)
        ]

    def base_cover(self, predicate: Expression, base: Table) -> Optional[BaseCover]:
        """What a scan of ``base`` for ``predicate`` reads instead, if
        anything: the access-path rule of every base scan.

        The largest layer's table and its complement partition the base
        in interest-cell order (:meth:`Impression.cover`), so a selective
        predicate on the cell attributes prunes most of both, where the
        base, in load order, offers every block to every cone.  The cover
        is read only when all of these hold, checked cheapest first:

        1. the predicate reads an attribute the cells are keyed on, and
           only columns the largest layer holds;
        2. its two tables hold exactly ``base.num_rows`` rows;
        3. the two zone plans together scan fewer rows than the base's.

        The base's tiers do not enter the rule: both parts are exact
        copies of base rows (:class:`~repro.columnstore.table.DerivedTable`
        gathers raw values, and the governor never demotes them), so a
        cover over a demoted base selects exactly what a scan of the
        never-demoted base would.

        The executor scans what this returns
        (:meth:`Executor.select_indices
        <repro.columnstore.executor.Executor.select_indices>`), and the
        bounded processor prices a base rung's select step with its
        ``scan_rows`` — one rule for both.  ``None`` means: scan the base.
        """
        largest = self._layers[0]
        columns = predicate.columns()
        held = largest.columns if largest.columns is not None else base.column_names
        if not columns & largest.cells.attributes or not columns <= set(held):
            return None
        parts = largest.cover(base)
        if parts is None:
            return None
        scan_rows = sum(scan_plan(part, predicate)[1] for part in parts)
        if scan_rows >= scan_plan(base, predicate)[1]:
            return None
        return BaseCover(parts, scan_rows)

    # ------------------------------------------------------------------
    def escalation_deltas(self) -> list[int | None]:
        """Rows each escalation step *adds*, smallest layer upward.

        Entry ``i`` is the delta between the ``i``-th and ``i+1``-th
        rung of the escalation order (cheapest first), or ``None`` when
        the pair is not nested and a from-scratch scan would be needed.
        The first entry is the smallest layer's own size — escalation
        always pays for its entry rung in full.  Delta results are
        cached on the impressions themselves (:meth:`Impression.
        delta_row_ids`), so this is cheap to call repeatedly.
        """
        ladder = list(self.from_smallest())
        if not ladder:
            return []
        deltas: list[int | None] = [ladder[0].size]
        for prev, nxt in zip(ladder, ladder[1:]):
            delta = nxt.delta_row_ids(prev)
            deltas.append(None if delta is None else int(delta.shape[0]))
        return deltas

    def is_nested(self) -> bool:
        """Whether every escalation step is a superset of the previous.

        True for ladders maintained by refresh-from-below (the paper's
        derivation discipline); False when layers were sampled
        independently, in which case delta escalation falls back to
        from-scratch scans between impressions (the base rung still
        benefits — any impression is a subset of its base table).
        """
        return all(delta is not None for delta in self.escalation_deltas())

    def describe(self) -> str:
        """One line per layer, for examples and logs."""
        lines = [f"hierarchy {self.name} over {self.base_table}:"]
        lines.extend(
            f"  layer {impression.layer}: {impression.name} "
            f"({impression.size}/{impression.capacity} rows)"
            for impression in self._layers
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        sizes = [impression.capacity for impression in self._layers]
        return f"ImpressionHierarchy({self.name!r}, capacities={sizes})"
