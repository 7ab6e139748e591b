"""Predicate-set extraction.

"Given a query workload ... the predicate set is the set of all
values of the interesting attributes that are requested by the
queries" (paper §4).  The collector filters each query's requested
values down to a declared attribute whitelist — the paper's first
step of "identifying the attributes of the data that contain relevant
scientific observation values rather than annotations or metadata" —
and fans them out to any number of consumers (interest histograms,
drift detectors, figure harnesses).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.columnstore.query import Query

#: Consumers receive ``(attribute, values)`` per query.
Consumer = Callable[[str, np.ndarray], None]


class PredicateSetCollector:
    """Accumulates per-attribute requested values from queries.

    Parameters
    ----------
    attributes:
        The whitelist of scientifically meaningful attributes
        (e.g. ``("ra", "dec")`` for SkyServer).
    """

    def __init__(self, attributes: Sequence[str]) -> None:
        if not attributes:
            raise ValueError("need at least one attribute of interest")
        self.attributes = tuple(attributes)
        self._values: Dict[str, List[float]] = {a: [] for a in self.attributes}
        self._consumers: list[Consumer] = []
        self.queries_observed = 0

    def subscribe(self, consumer: Consumer) -> None:
        """Register a consumer for future observations."""
        self._consumers.append(consumer)

    def observe(self, query: Query) -> Dict[str, np.ndarray]:
        """Extract and store a query's requested values.

        Returns what was extracted (possibly empty) so callers can
        chain without re-parsing the predicate.
        """
        self.queries_observed += 1
        extracted: Dict[str, np.ndarray] = {}
        for attribute, values in query.requested_values().items():
            if attribute not in self._values or not values:
                continue
            arr = np.asarray(values, dtype=float)
            self._values[attribute].extend(arr.tolist())
            extracted[attribute] = arr
            for consumer in self._consumers:
                consumer(attribute, arr)
        return extracted

    # ------------------------------------------------------------------
    def values(self, attribute: str) -> np.ndarray:
        """All collected values for one attribute."""
        try:
            return np.asarray(self._values[attribute], dtype=float)
        except KeyError:
            raise KeyError(
                f"{attribute!r} is not a collected attribute "
                f"(have {self.attributes})"
            ) from None

    def predicate_set_size(self, attribute: str) -> int:
        """N for one attribute — the paper's predicate-set size."""
        return len(self._values[attribute])

