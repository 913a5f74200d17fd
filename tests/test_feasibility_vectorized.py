"""Column-wise feasibility must equal the row-wise predicate it replaces.

``Parameter.denormalize_array`` is checked element by element against the
scalar ``denormalize`` on dense grids that hit 0, 1 and every cell edge;
``Space.feasible_mask`` is checked row by row against
``is_feasible(denormalize(u))`` on every bundled application's tuning space,
and on string constraints that only the row-wise fallback can evaluate.
"""

import math
import pickle
import types

import numpy as np
import pytest

import repro.core.space as space_mod
from repro.apps import (
    PDGEQRF,
    PDSYEVX,
    AnalyticalApp,
    BraninApp,
    HypreApp,
    M3DC1,
    NIMROD,
    RosenbrockApp,
    SphereApp,
    SuperLUDIST,
)
from repro.core import Categorical, Constraint, Integer, Real, Space
from repro.runtime.machine import cori_haswell

PARAMS = [
    Real("r", -3.0, 7.5),
    Real("rl", 1e-4, 0.9, transform="log"),
    Real("rl2", 2.0, 2.5, transform="log"),
    Integer("i", 0, 9),
    Integer("i1", 5, 5),
    Integer("ibig", -50, 400),
    Integer("il", 1, 64, transform="log"),
    Integer("il2", 4, 256, transform="log"),
    Integer("il3", 3, 3, transform="log"),
    Categorical("c", ["a", "b", "c"]),
    Categorical("c1", [7]),
    Categorical("ct", [(1, 2), (3, 4), None, 2.5]),
]


def _unit_grid(p):
    """0, 1, out-of-range values, a dense grid, and every cell edge ±1 ulp."""
    pts = [0.0, 1.0, -0.0, -0.25, 1.25, np.nan, np.inf, -np.inf]
    pts += list(np.linspace(0.0, 1.0, 1001))
    card = p.cardinality
    if math.isfinite(card):
        pts += [k / card for k in range(int(card) + 1)]
    if isinstance(p, Integer) and p.transform == "log" and p.ub > p.lb:
        # rounding edges of the geometric map: exp(...) == k + 0.5
        lo, hi = math.log(p.lb), math.log(p.ub)
        pts += [(math.log(k + 0.5) - lo) / (hi - lo) for k in range(p.lb, p.ub)]
    u = np.asarray(pts, dtype=float)
    finite = u[np.isfinite(u)]
    return np.concatenate(
        [u, np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf)]
    )


def _same(a, b):
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.name)
def test_denormalize_array_matches_scalar(p):
    u = _unit_grid(p)
    got = p.denormalize_array(u)
    assert got.shape == u.shape
    want = [p.denormalize(v) for v in u.tolist()]
    # tolist() turns int64/float64 elements into the Python int/float the
    # scalar path returns; object arrays hand back the categories themselves
    for v, a, b in zip(u.tolist(), got.tolist(), want):
        assert _same(a, b), (p.name, v, a, b)


def test_denormalize_array_categorical_returns_objects():
    p = Categorical("ct", [(1, 2), (3, 4)])
    got = p.denormalize_array(np.array([0.1, 0.9]))
    assert got.dtype == object and got[0] == (1, 2) and got[1] == (3, 4)


def test_denormalize_columns_matches_denormalize():
    sp = Space(PARAMS)
    U = np.random.default_rng(0).random((200, sp.dimension))
    cols = sp.denormalize_columns(U)
    assert list(cols) == sp.names
    for i, u in enumerate(U):
        row = sp.denormalize(u)
        for name in sp.names:
            assert _same(cols[name].tolist()[i], row[name])


def test_denormalize_columns_shape_check():
    sp = Space([Real("x", 0, 1), Real("y", 0, 1)])
    with pytest.raises(ValueError):
        sp.denormalize_columns(np.zeros((4, 3)))


# -- feasible_mask -------------------------------------------------------------

APPS = [
    AnalyticalApp(),
    BraninApp(),
    RosenbrockApp(),
    SphereApp(),
    PDGEQRF(machine=cori_haswell(4)),
    PDSYEVX(machine=cori_haswell(4)),
    SuperLUDIST(machine=cori_haswell(4)),
    HypreApp(machine=cori_haswell(2), solve_cap=10),
    M3DC1(machine=cori_haswell(2), plane_size=50),
    NIMROD(machine=cori_haswell(2), plane_size=50),
]


def _rowwise(space, U, extra):
    return np.array([space.is_feasible(space.denormalize(u), extra=extra) for u in U])


def _candidates(dim, seed):
    """Random blocks plus corner rows on 0/1, like clipped PSO particles."""
    rng = np.random.default_rng(seed)
    corners = rng.integers(0, 2, size=(64, dim)).astype(float)
    return np.vstack([rng.random((400, dim)), corners, rng.uniform(-0.2, 1.2, (64, dim))])


@pytest.mark.parametrize("app", APPS, ids=lambda a: type(a).__name__)
def test_feasible_mask_matches_rowwise_on_apps(app):
    problem = app.problem()
    rng = np.random.default_rng(1)
    for k in range(3):
        task = {p.name: p.sample(rng) for p in problem.task_space}
        U = _candidates(problem.tuning_space.dimension, k)
        want = _rowwise(problem.tuning_space, U, task)
        got = problem.feasibility_on_unit(task)(U)
        assert got.dtype == bool and got.shape == (U.shape[0],)
        np.testing.assert_array_equal(got, want)


def test_constrained_apps_reject_some_candidates():
    """The equivalence above is not vacuous: the constraints bite."""
    for app in (PDGEQRF(machine=cori_haswell(4)), HypreApp(machine=cori_haswell(2))):
        problem = app.problem()
        task = {p.name: p.sample(np.random.default_rng(0)) for p in problem.task_space}
        ok = problem.feasibility_on_unit(task)(_candidates(problem.tuning_space.dimension, 0))
        assert 0 < ok.sum() < ok.size


def test_feasible_mask_on_empty_block():
    sp = Space([Integer("p", 1, 8), Integer("q", 1, 8)], constraints=["q <= p"])
    assert sp.feasible_mask(np.empty((0, 2))).shape == (0,)


STRING_CASES = [
    # vectorizable over columns
    ("q <= p", True),
    ("p * q <= m", True),
    ("np.sqrt(x) < 2", True),
    ("(alg == 'a') | (q < 4)", True),
    ("m > 3", True),  # task bindings only: the scalar result broadcasts
    # needs scalars: row-wise fallback
    ("q <= p and x > 1", False),
    ("k <= 6 or alg == 'a'", False),
    ("not q > p", False),
    ("1 <= q <= p", False),
    ("np.log(x) > -1", False),  # log(0) raises under np.errstate(all="raise")
    ("'a' in alg", False),  # scalar result naming a column
]


@pytest.mark.parametrize("expr,vectorizes", STRING_CASES, ids=[c[0] for c in STRING_CASES])
def test_string_constraint_mask_matches_rowwise(expr, vectorizes):
    sp = Space(
        [
            Integer("p", 1, 16),
            Integer("q", 1, 16, transform="log"),
            Integer("k", 1, 12),
            Real("x", 0.0, 9.0),
            Categorical("alg", ["a", "b", "c"]),
        ],
        constraints=[expr],
    )
    extra = {"m": 40}
    for seed in range(3):
        U = _candidates(sp.dimension, seed)
        with np.errstate(divide="ignore"):  # np.log(0.0) on a corner row
            np.testing.assert_array_equal(sp.feasible_mask(U, extra), _rowwise(sp, U, extra))
    assert sp.constraints[0]._vectorize is vectorizes


def test_fallback_decision_is_cached(monkeypatch):
    """A non-vectorizable expression fails its array attempt only once."""
    sp = Space([Integer("p", 1, 9), Integer("q", 1, 9)], constraints=["q <= p and p > 2"])
    c = sp.constraints[0]
    calls = []
    real_eval = eval

    def spy(code, g, scope):
        calls.append(isinstance(scope.get("p"), np.ndarray))
        return real_eval(code, g, scope)

    monkeypatch.setattr(space_mod, "eval", spy, raising=False)
    U = _candidates(2, 0)
    sp.feasible_mask(U)
    assert calls[0] is True and c._vectorize is False
    calls.clear()
    sp.feasible_mask(U)
    assert calls and not any(calls)


def test_multiple_constraints_short_circuit_like_is_feasible():
    """Later constraints see only rows the earlier ones accepted."""
    seen = []

    def only_valid(p, q):
        seen.append((p, q))
        assert q <= p  # would raise on a row the first constraint rejects
        return p + q < 14

    sp = Space([Integer("p", 1, 9), Integer("q", 1, 9)], constraints=["q <= p", only_valid])
    U = _candidates(2, 3)
    np.testing.assert_array_equal(sp.feasible_mask(U), _rowwise(sp, U, None))
    assert seen and all(isinstance(v, int) for pq in seen for v in pq)


def test_callable_constraint_gets_native_scalars():
    got = []

    def record(a, c):
        got.append((type(a), c))
        return True

    sp = Space([Integer("a", 0, 3), Categorical("c", ["u", "v"])], constraints=[record])
    sp.feasible_mask(np.array([[0.1, 0.1], [0.9, 0.9]]))
    assert got == [(int, "u"), (int, "v")]


# -- compile once ---------------------------------------------------------------


def test_syntax_error_raises_at_construction_and_names_constraint():
    with pytest.raises(ValueError, match=r"p_r <=< p"):
        Constraint("p_r <=< p")
    with pytest.raises(ValueError, match="grid"):
        Space([Integer("p", 1, 4)], constraints=[Constraint("p +", name="grid")])


def test_is_feasible_evaluates_the_compiled_code(monkeypatch):
    sp = Space([Integer("p", 1, 16), Integer("p_r", 1, 16)], constraints=["p_r <= p"])
    seen = []
    real_eval = eval

    def spy(code, *args):
        seen.append(code)
        return real_eval(code, *args)

    monkeypatch.setattr(space_mod, "eval", spy, raising=False)
    assert sp.is_feasible({"p": 8, "p_r": 2})
    assert not sp.is_feasible({"p": 2, "p_r": 8})
    assert len(seen) == 2
    assert all(isinstance(code, types.CodeType) for code in seen)
    assert seen[0] is seen[1] is sp.constraints[0]._code


def test_constraint_pickles_and_recompiles():
    c = pickle.loads(pickle.dumps(Constraint("p_r <= p", name="grid")))
    assert c.name == "grid" and isinstance(c._code, types.CodeType)
    assert c({"p": 4, "p_r": 2}) and not c({"p": 2, "p_r": 4})
    np.testing.assert_array_equal(
        c.mask({"p": np.array([4, 2]), "p_r": np.array([2, 4])}, 2), [True, False]
    )
