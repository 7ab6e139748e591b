"""Tests for the synthetic SkyServer schema."""

from repro.skyserver.schema import (
    DEC_RANGE,
    GALAXY,
    RA_RANGE,
    STAR,
    create_skyserver_catalog,
    field_schema,
    frame_schema,
    photoobj_schema,
    photoz_schema,
)


class TestSchemas:
    def test_photoobj_has_science_attributes(self):
        schema = photoobj_schema()
        for column in ("objID", "ra", "dec", "r_mag", "mjd", "obj_type"):
            assert column in schema

    def test_photoobj_has_fk_columns(self):
        schema = photoobj_schema()
        assert "fieldID" in schema and "frameID" in schema

    def test_dimension_schemas_have_keys(self):
        assert "fieldID" in field_schema()
        assert "frameID" in frame_schema()
        assert "pz_objID" in photoz_schema()

    def test_type_codes_follow_sdss(self):
        assert GALAXY == 3 and STAR == 6

    def test_survey_window_matches_paper_figures(self):
        assert RA_RANGE == (120.0, 240.0)
        assert DEC_RANGE == (0.0, 60.0)


class TestCatalogFactory:
    def test_tables_present(self):
        catalog = create_skyserver_catalog()
        assert set(catalog.table_names) == {
            "PhotoObjAll",
            "Field",
            "Frame",
            "Photoz",
        }

    def test_foreign_keys_declared(self):
        catalog = create_skyserver_catalog()
        edges = [
            line.split()[1:]
            for line in catalog.summary().splitlines()
            if line.startswith("  fk ")
        ]
        assert all(fact.startswith("PhotoObjAll.") for fact, _, _ in edges)
        targets = {dim.split(".")[0] for _, _, dim in edges}
        assert targets == {"Field", "Frame", "Photoz"}

    def test_tables_start_empty(self):
        catalog = create_skyserver_catalog()
        assert catalog.table("PhotoObjAll").num_rows == 0
