"""Unit tests for Space and Constraint (repro.core.space)."""

import numpy as np
import pytest

from repro.core import Categorical, Constraint, Integer, Real, Space


@pytest.fixture
def space():
    return Space(
        [Real("x", 0.0, 2.0), Integer("p", 1, 16), Integer("p_r", 1, 16)],
        constraints=["p_r <= p"],
    )


class TestSpaceBasics:
    def test_repr(self, space):
        assert repr(space) == (
            "Space([Real('x', 0.0, 2.0, 'linear'), Integer('p', 1, 16, 'linear'), "
            "Integer('p_r', 1, 16, 'linear')], constraints=['p_r <= p'])"
        )
        assert repr(space.constraints[0]) == "Constraint('p_r <= p')"

    def test_dimension(self, space):
        assert space.dimension == 3
        assert len(space) == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Space([Real("x", 0, 1), Integer("x", 0, 1)])

    def test_getitem_by_name_and_index(self, space):
        assert space["x"].name == "x"
        assert space[1].name == "p"
        assert "p_r" in space
        assert "nope" not in space

    def test_iteration_order(self, space):
        assert [p.name for p in space] == ["x", "p", "p_r"]


class TestConversions:
    def test_to_dict_from_sequence(self, space):
        d = space.to_dict([1.0, 4, 2])
        assert d == {"x": 1.0, "p": 4, "p_r": 2}

    def test_to_dict_from_mapping_reorders(self, space):
        d = space.to_dict({"p_r": 2, "x": 1.0, "p": 4})
        assert list(d) == ["x", "p", "p_r"]

    def test_to_dict_missing_key(self, space):
        with pytest.raises(KeyError):
            space.to_dict({"x": 1.0, "p": 4})

    def test_to_dict_wrong_length(self, space):
        with pytest.raises(ValueError):
            space.to_dict([1.0, 4])

    def test_normalize_denormalize_roundtrip(self, space):
        cfg = {"x": 1.5, "p": 8, "p_r": 3}
        back = space.denormalize(space.normalize(cfg))
        assert back["x"] == pytest.approx(1.5)
        assert back["p"] == 8
        assert back["p_r"] == 3

    def test_denormalize_shape_check(self, space):
        with pytest.raises(ValueError):
            space.denormalize([0.5, 0.5])

    def test_normalize_many(self, space):
        rows = [{"x": 0.0, "p": 1, "p_r": 1}, {"x": 2.0, "p": 16, "p_r": 16}]
        U = space.normalize_many(rows)
        assert U.shape == (2, 3)
        assert U[0, 0] == 0.0 and U[1, 0] == 1.0

    def test_denormalize_many(self, space):
        out = space.denormalize_many(np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0]]))
        assert len(out) == 2 and out[1]["p"] == 1

    def test_round_trip_snaps(self, space):
        got = space.round_trip({"x": 0.7, "p": 7.6, "p_r": 2.2})
        assert got["p"] == 8 and got["p_r"] == 2


class TestConstraints:
    def test_string_constraint(self, space):
        assert space.is_feasible({"x": 0.0, "p": 8, "p_r": 4})
        assert not space.is_feasible({"x": 0.0, "p": 4, "p_r": 8})

    def test_callable_constraint(self):
        sp = Space([Integer("a", 0, 9), Integer("b", 0, 9)], constraints=[lambda a, b: a + b < 10])
        assert sp.is_feasible({"a": 3, "b": 4})
        assert not sp.is_feasible({"a": 9, "b": 9})

    def test_callable_subset_kwargs(self):
        """Callable constraints may accept only some parameters."""
        sp = Space([Integer("a", 0, 9), Integer("b", 0, 9)], constraints=[lambda a: a > 2])
        assert sp.is_feasible({"a": 5, "b": 0})
        assert not sp.is_feasible({"a": 0, "b": 9})

    def test_extra_bindings_visible(self):
        """Constraints may reference task parameters via `extra`."""
        sp = Space([Integer("p", 1, 64)], constraints=["p <= m"])
        assert sp.is_feasible({"p": 10}, extra={"m": 32})
        assert not sp.is_feasible({"p": 10}, extra={"m": 5})

    def test_constraint_uses_numpy(self):
        sp = Space([Real("x", 0, 10)], constraints=["np.sqrt(x) < 2"])
        assert sp.is_feasible({"x": 3.0})
        assert not sp.is_feasible({"x": 5.0})

    def test_constraint_repr(self):
        c = Constraint("a < b")
        assert "a < b" in repr(c)


class TestIntrospection:
    def test_categorical_mask(self):
        sp = Space([Real("x", 0, 1), Categorical("c", ["u", "v"])])
        assert sp.categorical_mask.tolist() == [False, True]

    def test_cardinalities(self):
        sp = Space([Real("x", 0, 1), Integer("k", 0, 4), Categorical("c", ["u", "v"])])
        cards = sp.cardinalities
        assert np.isinf(cards[0]) and cards[1] == 5 and cards[2] == 2

    def test_grid_cross_product(self):
        sp = Space([Integer("a", 0, 1), Categorical("c", ["u", "v"])])
        g = sp.grid(2)
        assert len(g) == 4
        assert {"a": 0, "c": "u"} in g and {"a": 1, "c": "v"} in g

    def test_grid_too_large(self):
        sp = Space([Integer(f"a{i}", 0, 99) for i in range(4)])
        with pytest.raises(ValueError):
            sp.grid(100)
