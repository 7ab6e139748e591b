"""Tests for the query log."""

import pytest

from repro.columnstore.expressions import Between
from repro.columnstore.query import Query
from repro.workload.log import QueryLog, QueryLogEntry, QueryOutcome


def make_query(lo: float) -> Query:
    return Query(table="t", predicate=Between("x", lo, lo + 1))


class TestRecording:
    def test_sequence_numbers_monotone(self):
        log = QueryLog()
        entries = [log.record(make_query(i)) for i in range(5)]
        assert [e.sequence for e in entries] == list(range(5))
        assert len(log) == 5

    def test_iteration_order(self):
        log = QueryLog()
        for i in range(3):
            log.record(make_query(i))
        assert [e.sequence for e in log] == [0, 1, 2]

    def test_fingerprint_exposed(self):
        log = QueryLog()
        entry = log.record(make_query(1))
        assert entry.fingerprint == make_query(1).fingerprint()


class TestWindowing:
    def test_max_entries_truncates_oldest(self):
        log = QueryLog(max_entries=3)
        for i in range(6):
            log.record(make_query(i))
        assert len(log) == 3
        assert [e.sequence for e in log] == [3, 4, 5]

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError, match="positive"):
            QueryLog(max_entries=0)


class TestQueries:
    def test_most_common_fingerprints(self):
        log = QueryLog()
        for _ in range(3):
            log.record(make_query(1))
        log.record(make_query(2))
        (top_fp, top_count), *_ = log.most_common_fingerprints(2)
        assert top_count == 3
        assert top_fp == make_query(1).fingerprint()


def make_outcome(**overrides) -> QueryOutcome:
    fields = dict(
        tuples_charged=120.0,
        rungs_climbed=2,
        achieved_error=0.03,
        wall_seconds=0.5,
        session_id=7,
    )
    fields.update(overrides)
    return QueryOutcome(**fields)


class TestOutcomes:
    def test_two_field_construction_still_works(self):
        entry = QueryLogEntry(0, make_query(1))
        assert entry.outcome is None
        assert not entry.settled

    def test_settle_attaches_outcome(self):
        log = QueryLog()
        entry = log.record(make_query(1))
        assert not entry.settled
        settled = log.settle(entry.sequence, make_outcome())
        assert settled is not None and settled.settled
        assert settled.outcome.tuples_charged == 120.0
        assert settled.outcome.session_id == 7
        # the stored entry is the settled one
        (stored,) = log.snapshot()
        assert stored.settled

    def test_first_settle_wins(self):
        log = QueryLog()
        entry = log.record(make_query(1))
        log.settle(entry.sequence, make_outcome(rungs_climbed=1))
        again = log.settle(entry.sequence, make_outcome(rungs_climbed=9))
        assert again.outcome.rungs_climbed == 1

    def test_settle_tolerates_window_eviction(self):
        log = QueryLog(max_entries=2)
        first = log.record(make_query(0))
        for i in range(1, 4):
            log.record(make_query(i))
        assert log.settle(first.sequence, make_outcome()) is None
        # surviving entries still settle by absolute sequence number
        assert log.settle(3, make_outcome()) is not None

    def test_settle_unknown_sequence(self):
        log = QueryLog()
        log.record(make_query(0))
        assert log.settle(99, make_outcome()) is None
