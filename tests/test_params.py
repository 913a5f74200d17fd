"""Unit tests for parameter types (repro.core.params)."""

import math

import numpy as np
import pytest

from repro.core.params import Categorical, Integer, Parameter, Real


class TestReal:
    def test_normalize_bounds(self):
        p = Real("x", 2.0, 10.0)
        assert p.normalize(2.0) == 0.0
        assert p.normalize(10.0) == 1.0
        assert p.normalize(6.0) == pytest.approx(0.5)

    def test_denormalize_roundtrip(self):
        p = Real("x", -3.0, 7.0)
        for v in [-3.0, 0.0, 3.3, 7.0]:
            assert p.denormalize(p.normalize(v)) == pytest.approx(v)

    def test_out_of_range_clipped(self):
        p = Real("x", 0.0, 1.0)
        assert p.normalize(2.0) == 1.0
        assert p.normalize(-1.0) == 0.0
        assert p.denormalize(1.7) == 1.0

    def test_log_transform(self):
        p = Real("x", 1.0, 100.0, transform="log")
        assert p.denormalize(0.5) == pytest.approx(10.0)
        assert p.normalize(10.0) == pytest.approx(0.5)

    def test_log_requires_positive_lb(self):
        with pytest.raises(ValueError):
            Real("x", 0.0, 1.0, transform="log")

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Real("x", 1.0, 1.0)

    def test_invalid_transform(self):
        with pytest.raises(ValueError):
            Real("x", 0.0, 1.0, transform="sqrt")

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Real("not a name", 0.0, 1.0)

    def test_cardinality_infinite(self):
        assert Real("x", 0, 1).cardinality == math.inf

    def test_sample_within_bounds(self, rng):
        p = Real("x", -5.0, 5.0)
        vals = [p.sample(rng) for _ in range(50)]
        assert all(-5.0 <= v <= 5.0 for v in vals)

    def test_grid(self):
        p = Real("x", 0.0, 1.0)
        g = p.grid(5)
        assert g == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


class TestInteger:
    def test_roundtrip_every_value(self):
        p = Integer("k", 3, 12)
        for v in range(3, 13):
            assert p.denormalize(p.normalize(v)) == v

    def test_uniform_cells(self, rng):
        """Each integer owns an equal slice of [0,1]."""
        p = Integer("k", 0, 3)
        u = rng.random(20000)
        vals = np.array([p.denormalize(x) for x in u])
        counts = np.bincount(vals, minlength=4)
        assert counts.min() > 0.2 * len(u)

    def test_endpoint_one(self):
        p = Integer("k", 1, 5)
        assert p.denormalize(1.0) == 5
        assert p.denormalize(0.0) == 1

    def test_clipping(self):
        p = Integer("k", 1, 5)
        assert p.normalize(100) == p.normalize(5)
        assert p.normalize(-3) == p.normalize(1)

    def test_log_transform(self):
        p = Integer("k", 1, 1024, transform="log")
        assert p.denormalize(0.5) == 32
        assert p.denormalize(0.0) == 1
        assert p.denormalize(1.0) == 1024

    def test_log_requires_lb_ge_1(self):
        with pytest.raises(ValueError):
            Integer("k", 0, 8, transform="log")

    def test_cardinality(self):
        assert Integer("k", 2, 6).cardinality == 5

    def test_singleton_range(self):
        p = Integer("k", 4, 4)
        assert p.denormalize(0.3) == 4
        assert p.cardinality == 1

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Integer("k", 5, 4)

    def test_grid_unique_sorted(self):
        p = Integer("k", 1, 4)
        assert p.grid(10) == [1, 2, 3, 4]


class TestCategorical:
    def test_roundtrip(self):
        p = Categorical("alg", ["x", "y", "z"])
        for c in ["x", "y", "z"]:
            assert p.denormalize(p.normalize(c)) == c

    def test_unknown_category_raises(self):
        p = Categorical("alg", ["x", "y"])
        with pytest.raises(ValueError):
            p.normalize("w")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Categorical("alg", [])

    def test_duplicates_raise(self):
        with pytest.raises(ValueError):
            Categorical("alg", ["x", "x"])

    def test_is_categorical_flag(self):
        assert Categorical("alg", ["x"]).is_categorical
        assert not Integer("k", 0, 1).is_categorical
        assert not Real("x", 0, 1).is_categorical

    def test_endpoint_maps_to_last(self):
        p = Categorical("alg", ["x", "y", "z"])
        assert p.denormalize(1.0) == "z"
        assert p.denormalize(0.0) == "x"

    def test_non_string_categories(self):
        p = Categorical("alg", [1, (2, 3), "s"])
        assert p.denormalize(p.normalize((2, 3))) == (2, 3)

    def test_sample_covers_all(self, rng):
        p = Categorical("alg", ["x", "y", "z"])
        seen = {p.sample(rng) for _ in range(100)}
        assert seen == {"x", "y", "z"}

    def test_grid(self):
        p = Categorical("alg", ["x", "y", "z"])
        assert p.grid(10) == ["x", "y", "z"]
        assert p.grid(2) == ["x", "y"]


class TestEquality:
    def test_equal_params(self):
        assert Real("x", 0, 1) == Real("x", 0, 1)
        assert Real("x", 0, 1) != Real("x", 0, 2)
        assert Integer("x", 0, 1) != Real("x", 0, 1)

    def test_hash_agrees_with_eq(self):
        pairs = [
            (Real("x", 0, 1), Real("x", 0, 1)),
            (Integer("b", 4, 256, transform="log"), Integer("b", 4, 256, transform="log")),
            (Categorical("c", ["u", "v"]), Categorical("c", ["u", "v"])),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)
        # equal names but different types or bounds are distinct set members
        assert len({Real("x", 0, 1), Real("x", 0, 2), Integer("x", 0, 1)}) == 3


class TestRepr:
    def test_parameter(self):
        assert repr(Parameter("a")) == "Parameter('a')"

    @pytest.mark.parametrize(
        "param, text",
        [
            (Real("x", 0.0, 2.0), "Real('x', 0.0, 2.0, 'linear')"),
            (Real("lr", 1e-4, 1.0, transform="log"), "Real('lr', 0.0001, 1.0, 'log')"),
            (Integer("p", 1, 16), "Integer('p', 1, 16, 'linear')"),
            (Integer("b", 4, 256, transform="log"), "Integer('b', 4, 256, 'log')"),
            (Categorical("c", ["u", "v"]), "Categorical('c', ['u', 'v'])"),
        ],
    )
    def test_repr_rebuilds_the_parameter(self, param, text):
        assert repr(param) == text
        assert eval(text) == param
