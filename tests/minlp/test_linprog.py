"""Tests for the LP layer (HiGHS backend)."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from repro.minlp.expr import VarRef
from repro.minlp.linprog import (
    IncrementalLPSolver,
    LinearProgram,
    solve_lp,
    solve_problem_lp,
)
from repro.minlp.modeling import Model
from repro.minlp.problem import Problem, Sense
from repro.minlp.solution import Status

X, Y = VarRef("x"), VarRef("y")


def _lp(c, A, row_lb, row_ub, var_lb, var_ub, **kw):
    return LinearProgram(
        c=np.array(c, float),
        A=np.array(A, float),
        row_lb=np.array(row_lb, float),
        row_ub=np.array(row_ub, float),
        var_lb=np.array(var_lb, float),
        var_ub=np.array(var_ub, float),
        **kw,
    )


def test_simple_lp():
    # min -x - y  s.t. x + y <= 4, x,y in [0, 3]
    lp = _lp([-1, -1], [[1, 1]], [-math.inf], [4], [0, 0], [3, 3])
    res = solve_lp(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-4.0)
    assert res.x.sum() == pytest.approx(4.0)


def test_equality_row():
    lp = _lp([1, 2], [[1, 1]], [3], [3], [0, 0], [10, 10])
    res = solve_lp(lp)
    assert res.status is Status.OPTIMAL
    np.testing.assert_allclose(res.x, [3.0, 0.0], atol=1e-8)


def test_two_sided_row():
    # min x s.t. 2 <= x + y <= 5, 0 <= x,y <= 10
    lp = _lp([1, 0], [[1, 1]], [2], [5], [0, 0], [10, 10])
    res = solve_lp(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(0.0)
    assert res.x[0] + res.x[1] >= 2 - 1e-8


def test_infeasible():
    lp = _lp([1], [[1]], [5], [math.inf], [0], [1])
    assert solve_lp(lp).status is Status.INFEASIBLE


def test_unbounded():
    lp = _lp([-1], np.zeros((0, 1)), [], [], [0], [math.inf])
    assert solve_lp(lp).status is Status.UNBOUNDED


@pytest.mark.parametrize(
    "lp, objective, x",
    [
        pytest.param(
            # min x s.t. x >= -7 with x free: the optimum sits below zero.
            _lp([1], [[1]], [-7], [math.inf], [-math.inf], [math.inf]),
            -7.0, [-7.0], id="free-negative",
        ),
        pytest.param(
            # min -x s.t. x >= -50 (row) and x <= 9, its only bound.
            _lp([-1], [[1]], [-50], [math.inf], [-math.inf], [9]),
            -9.0, [9.0], id="upper-only",
        ),
        pytest.param(
            # min x - y over the box [2.5, 7] x [-3, 4] with a (0, 2) matrix.
            _lp([1, -1], np.zeros((0, 2)), [], [], [2.5, -3.0], [7.0, 4.0]),
            -1.5, [2.5, 4.0], id="shifted-no-rows",
        ),
        pytest.param(
            # x + y = 2 stated three times (once scaled): min x + 2y -> (2, 0).
            _lp([1, 2], [[1, 1], [1, 1], [2, 2]], [2, 2, 4], [2, 2, 4], [0, 0], [5, 5]),
            2.0, [2.0, 0.0], id="duplicated-equalities",
        ),
        pytest.param(
            # y has only an upper bound and a positive cost: no rows needed
            # for min x + y to run off to -inf.
            _lp([1, 1], np.zeros((0, 2)), [], [], [0.0, -math.inf], [1.0, 5.0]),
            None, None, id="box-only-unbounded",
        ),
    ],
)
def test_edge_shape_closed_form(lp, objective, x):
    res = solve_lp(lp)
    if objective is None:
        assert res.status is Status.UNBOUNDED
        return
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(objective)
    np.testing.assert_allclose(res.x, x, atol=1e-9)


def _random_lp(rng, n, m, *, degenerate=False, redundant=False, free=False):
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.0, 1.0, n)
    row_lb = b - rng.uniform(0.1, 1.0, m)
    row_ub = b + rng.uniform(0.1, 1.0, m)
    var_lb = np.zeros(n)
    var_ub = np.ones(n)
    if degenerate:
        # Equality rows through a common point create degenerate vertices.
        k = max(1, m // 2)
        row_lb[:k] = row_ub[:k] = b[:k]
    if redundant:
        A = np.vstack([A, A[0] * 2.0])
        row_lb = np.append(row_lb, row_lb[0] * 2.0)
        row_ub = np.append(row_ub, row_ub[0] * 2.0)
    if free:
        var_lb[0], var_ub[0] = -math.inf, math.inf
        var_lb[1 % n] = -math.inf  # only an upper bound
    return LinearProgram(
        c=rng.normal(size=n),
        A=A,
        row_lb=row_lb,
        row_ub=row_ub,
        var_lb=var_lb,
        var_ub=var_ub,
    )


def _naive_split_objective(lp):
    """Oracle: every finite row side as its own <= row, no equality rows."""
    upper = np.isfinite(lp.row_ub)
    lower = np.isfinite(lp.row_lb)
    res = scipy_linprog(
        c=lp.c,
        A_ub=np.vstack([lp.A[upper], -lp.A[lower]]),
        b_ub=np.concatenate([lp.row_ub[upper], -lp.row_lb[lower]]),
        bounds=np.column_stack([lp.var_lb, lp.var_ub]),
        method="highs",
    )
    return res.status, res.fun


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"degenerate": True},
        {"redundant": True},
        {"free": True},
        {"degenerate": True, "redundant": True, "free": True},
    ],
    ids=["plain", "degenerate", "redundant", "free", "all"],
)
def test_random_shapes_match_naive_split(shape):
    """The range-row split agrees with a naive <=-only formulation."""
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 8))
        lp = _random_lp(rng, n, m, **shape)
        res = solve_lp(lp)
        status, objective = _naive_split_objective(lp)
        if res.status is Status.OPTIMAL:
            assert status == 0, seed
            assert res.objective == pytest.approx(objective, abs=1e-7)
            assert np.all(lp.A @ res.x <= lp.row_ub + 1e-7)
            assert np.all(lp.A @ res.x >= lp.row_lb - 1e-7)
        else:
            assert status != 0, (seed, res.message)


def test_constant_offset_carried():
    lp = _lp([1], [[1]], [2], [math.inf], [0], [10], c0=7.0)
    res = solve_lp(lp)
    assert res.objective == pytest.approx(9.0)


def test_validation_errors():
    with pytest.raises(ValueError, match="columns"):
        _lp([1, 2], [[1]], [0], [1], [0, 0], [1, 1])
    with pytest.raises(ValueError, match="row_lb"):
        _lp([1], [[1]], [0, 1], [1], [0], [1])
    with pytest.raises(ValueError, match="crossed"):
        _lp([1], [[1]], [2], [1], [0], [1])


def test_from_problem_minimize():
    p = Problem()
    p.add_variable("x", 0, 4)
    p.add_variable("y", 0, 4)
    p.add_constraint("c", X + 2 * Y, ub=6.0)
    p.set_objective(-X - Y)
    sol = solve_problem_lp(p)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(-5.0)  # x=4, y=1
    assert sol.values["x"] == pytest.approx(4.0)


def test_from_problem_maximize_sign_handling():
    p = Problem()
    p.add_variable("x", 0, 4)
    p.add_constraint("c", X, ub=3.0)
    p.set_objective(5 * X + 1, Sense.MAXIMIZE)
    sol = solve_problem_lp(p)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(16.0)
    assert sol.values["x"] == pytest.approx(3.0)


def test_from_problem_constant_term_in_constraint():
    # body (x + 1) <= 4 means x <= 3.
    p = Problem()
    p.add_variable("x", 0, 10)
    p.add_constraint("c", X + 1, ub=4.0)
    p.set_objective(-X)
    sol = solve_problem_lp(p)
    assert sol.values["x"] == pytest.approx(3.0)


def test_lp_result_values_mapping():
    lp = _lp([1, 1], [[1, 1]], [2], [2], [0, 0], [2, 2], names=("a", "b"))
    res = solve_lp(lp)
    vals = res.values(lp)
    assert set(vals) == {"a", "b"}
    assert vals["a"] + vals["b"] == pytest.approx(2.0)


def test_incremental_solver_add_row_invalidates_cache():
    rng = np.random.default_rng(1)
    value = rng.uniform(1.0, 10.0, 5)
    weight = rng.uniform(1.0, 5.0, 5)
    m = Model("knapsack")
    xs = [m.binary_var(f"x{i}") for i in range(5)]
    m.add(sum(float(weight[i]) * xs[i] for i in range(5)) <= float(weight.sum()) / 2)
    m.maximize(sum(float(value[i]) * xs[i] for i in range(5)))
    solver = IncrementalLPSolver(m.build())
    first = solver.solve({})
    assert first.status is Status.OPTIMAL
    # A cut that actually binds: forbid the current all-or-nothing optimum.
    body = sum(VarRef(f"x{i}") for i in range(5))
    solver.add_row(body, -math.inf, 2.0)
    second = solver.solve({})
    assert second.status is Status.OPTIMAL
    assert sum(v for k, v in second.values.items() if k.startswith("x")) <= 2 + 1e-9
