"""Tests for the catalog: tables, views, foreign keys."""

import pytest

from repro.columnstore.catalog import Catalog, ForeignKey
from repro.columnstore.expressions import col_eq
from repro.columnstore.query import Query
from repro.columnstore.table import Table
from repro.errors import SchemaError, UnknownTableError


@pytest.fixture
def catalog() -> Catalog:
    c = Catalog()
    c.add_table(Table("fact", {"id": "int64", "fk": "int64"}))
    c.add_table(Table("dim", {"pk": "int64"}))
    return c


class TestTables:
    def test_add_and_lookup(self, catalog):
        assert catalog.table("fact").name == "fact"
        assert set(catalog.table_names) == {"fact", "dim"}

    def test_duplicate_rejected(self, catalog):
        with pytest.raises(SchemaError, match="already has"):
            catalog.add_table(Table("fact", {"id": "int64"}))

    def test_unknown_table(self, catalog):
        with pytest.raises(UnknownTableError, match="ghost"):
            catalog.table("ghost")


class TestViews:
    def test_add_and_lookup(self, catalog):
        catalog.add_view("v", Query(table="fact", predicate=col_eq("id", 1)))
        assert catalog.has_view("v")
        assert catalog.view("v").table == "fact"

    def test_view_name_collision_with_table(self, catalog):
        with pytest.raises(SchemaError, match="already has"):
            catalog.add_view("fact", Query(table="dim"))

    def test_view_over_unknown_table(self, catalog):
        with pytest.raises(UnknownTableError):
            catalog.add_view("v", Query(table="ghost"))

    def test_unknown_view(self, catalog):
        with pytest.raises(UnknownTableError):
            catalog.view("ghost")


class TestForeignKeys:
    def test_add_and_query(self, catalog):
        fk = ForeignKey("fact", "fk", "dim", "pk")
        catalog.add_foreign_key(fk)
        assert catalog.summary().splitlines()[-1] == f"  fk {fk}"

    def test_missing_column_rejected(self, catalog):
        with pytest.raises(SchemaError, match="missing column"):
            catalog.add_foreign_key(ForeignKey("fact", "nope", "dim", "pk"))

    def test_missing_table_rejected(self, catalog):
        with pytest.raises(UnknownTableError):
            catalog.add_foreign_key(ForeignKey("ghost", "x", "dim", "pk"))

    def test_str_rendering(self):
        fk = ForeignKey("fact", "fk", "dim", "pk")
        assert str(fk) == "fact.fk -> dim.pk"


class TestSummary:
    def test_summary_mentions_everything(self, catalog):
        catalog.add_view("v", Query(table="fact"))
        catalog.add_foreign_key(ForeignKey("fact", "fk", "dim", "pk"))
        text = catalog.summary()
        assert "fact" in text and "view v" in text and "fk fact.fk" in text
