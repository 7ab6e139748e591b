"""Tests for the interest model (Figure 5 + f̆ + combine function)."""

import numpy as np
import pytest

from repro.columnstore.expressions import RadialPredicate
from repro.columnstore.query import Query
from repro.workload.interest import AttributeInterest, InterestModel


@pytest.fixture
def model() -> InterestModel:
    return InterestModel({"ra": (120.0, 240.0), "dec": (0.0, 60.0)}, bins=24)


def warm(model: InterestModel, rng, n=300) -> None:
    model.observe_values("ra", rng.normal(150, 4, n))
    model.observe_values("dec", rng.normal(10, 3, n))


class TestAttributeInterest:
    def test_mass_is_fbreve_times_N(self, rng):
        interest = AttributeInterest("ra", (120, 240), bins=24)
        values = rng.normal(150, 4, 200)
        interest.observe(values)
        mass = interest.mass(np.array([150.0]))[0]
        density = interest.kde.evaluate(np.array([150.0]))[0]
        assert mass == pytest.approx(density * 200)

    def test_cold_model_gives_unit_mass(self):
        interest = AttributeInterest("ra", (120, 240))
        np.testing.assert_array_equal(interest.mass(np.array([1.0, 2.0])), [1, 1])

    def test_decay_reduces_N(self, rng):
        interest = AttributeInterest("ra", (120, 240))
        interest.observe(rng.normal(150, 4, 100))
        interest.decay(0.5)
        assert interest.predicate_set_size <= 50


class TestInterestModel:
    def test_observe_query_feeds_attributes(self, model):
        model.observe_query(
            Query(table="t", predicate=RadialPredicate("ra", "dec", 185, 30, 2))
        )
        assert model.interest_for("ra").predicate_set_size == 1
        assert model.interest_for("dec").predicate_set_size == 1

    def test_mass_peaks_at_focal_point(self, model, rng):
        warm(model, rng)
        focal = model.mass({"ra": np.array([150.0]), "dec": np.array([10.0])})[0]
        distant = model.mass({"ra": np.array([230.0]), "dec": np.array([55.0])})[0]
        assert focal > 10 * distant

    def test_mass_with_partial_batch_uses_present_attributes(self, model, rng):
        warm(model, rng)
        only_ra = model.mass({"ra": np.array([150.0])})[0]
        assert only_ra > 1.0

    def test_mass_without_any_interest_attribute(self, model, rng):
        warm(model, rng)
        mass = model.mass({"mjd": np.zeros(4)})
        np.testing.assert_array_equal(mass, np.ones(4))

    def test_unknown_attribute_lookup(self, model):
        with pytest.raises(KeyError, match="no interest model"):
            model.interest_for("zzz")

    def test_decay_applies_to_all_attributes(self, model, rng):
        warm(model, rng)
        before = [model.interest_for(a).predicate_set_size for a in model.attributes]
        model.decay(0.5)
        for attribute, n in zip(model.attributes, before):
            assert model.interest_for(attribute).predicate_set_size <= n / 2 + 1

    def test_requires_domains(self):
        with pytest.raises(ValueError, match="at least one"):
            InterestModel({})

    def test_unknown_combiner(self):
        with pytest.raises(ValueError, match="combiner"):
            InterestModel({"x": (0, 1)}, combiner="median")


class TestCombiners:
    def build(self, combiner, rng):
        model = InterestModel(
            {"ra": (120.0, 240.0), "dec": (0.0, 60.0)}, bins=24, combiner=combiner
        )
        # interest only in ra; dec predicate set focused elsewhere
        model.observe_values("ra", rng.normal(150, 4, 300))
        model.observe_values("dec", rng.normal(50, 3, 300))
        return model

    def test_mean_averages_attribute_masses(self, rng):
        model = self.build("mean", rng)
        batch = {"ra": np.array([150.0]), "dec": np.array([5.0])}
        per_ra = model.interest_for("ra").mass(batch["ra"])[0]
        per_dec = model.interest_for("dec").mass(batch["dec"])[0]
        assert model.mass(batch)[0] == pytest.approx((per_ra + per_dec) / 2)

    def test_max_takes_strongest_signal(self, rng):
        model = self.build("max", rng)
        batch = {"ra": np.array([150.0]), "dec": np.array([5.0])}
        per_ra = model.interest_for("ra").mass(batch["ra"])[0]
        assert model.mass(batch)[0] == pytest.approx(per_ra)

    def test_geometric_zeroes_on_any_dead_attribute(self, rng):
        model = self.build("geometric", rng)
        # dec=5 is far outside dec's focal area -> near-zero density
        batch = {"ra": np.array([150.0]), "dec": np.array([5.0])}
        geo = model.mass(batch)[0]
        mean_model = self.build("mean", rng)
        assert geo < mean_model.mass(batch)[0]
