"""LP kernel checks against closed forms and an independent solver."""
import numpy as np
import pytest

from meanrisk import simplex
from meanrisk.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPError, solve_lp


def test_textbook_optimum():
    res = solve_lp([2, 3], A_ub=[[1, 1], [6, 3], [1, 2]],
                   b_ub=[100, 360, 120], maximize=True)
    assert res.status == OPTIMAL
    assert np.allclose(res.x, [40, 40])
    assert res.value == pytest.approx(200.0)


def test_equality_and_free_variables():
    res = solve_lp([1.0], A_ub=[[-1.0]], b_ub=[5.0], lower=[-np.inf])
    assert res.status == OPTIMAL and res.x[0] == pytest.approx(-5.0)
    res = solve_lp([1, 1], A_eq=[[1, -1]], b_eq=[3])
    assert res.status == OPTIMAL and res.value == pytest.approx(3.0)


def test_two_sided_bounds():
    res = solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[1.5],
                   lower=[0, 0], upper=[1, 1])
    assert res.status == OPTIMAL and res.value == pytest.approx(-1.5)


def test_infeasible_and_unbounded():
    assert solve_lp([1, 1], A_eq=[[1, 1], [1, 1]],
                    b_eq=[1, 2]).status == INFEASIBLE
    assert solve_lp([-1], A_ub=[[0.0]], b_ub=[1.0]).status == UNBOUNDED
    assert solve_lp([0.0], lower=[2.0], upper=[1.0]).status == INFEASIBLE


def test_degenerate_cycling_instance(monkeypatch):
    # Beale's classical cycling example: Dantzig pricing cycles on it, so
    # the switch to Bland's rule after a degenerate run must terminate it.
    c = [-0.75, 150, -0.02, 6]
    A_ub = [[0.25, -60, -0.04, 9],
            [0.5, -90, -0.02, 3],
            [0.0, 0.0, 1.0, 0.0]]
    b_ub = [0, 0, 1]
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-0.05)
    assert res.pivots > simplex._DEGENERATE_RUN
    monkeypatch.setattr(simplex, "_DEGENERATE_RUN", 10**9)
    with pytest.raises(LPError):
        solve_lp(c, A_ub=A_ub, b_ub=b_ub, max_iter=500)


def test_pivot_count():
    # slack start basis: x <= 1 rows need no phase 1
    res = solve_lp([-1, -1], A_ub=np.eye(2), b_ub=[1, 1])
    assert res.status == OPTIMAL and res.pivots == 2
    assert solve_lp([1, 1], A_ub=np.eye(2), b_ub=[1, 1]).pivots == 0
    # an equality row needs one phase-1 pivot to drive its artificial out
    res = solve_lp([1, 1], A_eq=[[1, 1]], b_eq=[1])
    assert res.status == OPTIMAL and res.pivots == 1
    assert solve_lp([1, 1], A_eq=[[1, 1], [1, 1]],
                    b_eq=[1, 2]).status == INFEASIBLE


def test_phase1_skips_a_column_without_pivot_row():
    # Rounding noise can leave a negative phase-1 reduced cost on a column
    # with no positive entry; phase 1 is bounded, so that column is passed
    # over, where phase 2 would call the LP unbounded.
    def tableau():
        return np.array([[-1.0, 1.0, 1.0],     # row held by its artificial
                         [0.0, 0.0, 0.0],      # phase-2 costs
                         [-5.0, -1.0, -1.0]])  # phase-1 costs, col 0 noisy
    basis = np.array([2])
    status, pivots = simplex._iterate(tableau(), basis, 1, 2, 2, 10, True)
    assert (status, pivots, basis[0]) == (OPTIMAL, 1, 1)
    status, _ = simplex._iterate(tableau(), np.array([2]), 1, 2, 2, 10, False)
    assert status == UNBOUNDED


def _random_bounds(rng, nvar):
    """Per variable one of: x >= 0, free, lo <= x <= hi, x <= hi, x >= lo."""
    kind = rng.integers(0, 5, nvar)
    a = rng.uniform(-2.0, 0.5, nvar)
    lower = np.where(kind == 0, 0.0, np.where((kind == 2) | (kind == 4), a,
                                              -np.inf))
    upper = np.where(kind == 2, a + rng.uniform(0.0, 3.0, nvar),
                     np.where(kind == 3, rng.uniform(-0.5, 2.0, nvar),
                              np.inf))
    return lower, upper


def _random_instance(rng):
    nvar = int(rng.integers(2, 8))
    nub = int(rng.integers(0, 6))
    neq = int(rng.integers(0, 3))
    c = rng.normal(0, 1, nvar)
    lower, upper = _random_bounds(rng, nvar)
    A_ub = rng.normal(0, 1, (nub, nvar))
    A_eq = rng.normal(0, 1, (neq, nvar))
    if rng.random() < 0.7:
        # feasible by construction, some inequality rows tight at x0
        x0 = np.clip(rng.normal(0, 1, nvar), lower, upper)
        gap = np.where(rng.random(nub) < 0.4, 0.0, rng.uniform(0, 1, nub))
        b_ub = A_ub @ x0 + gap
        b_eq = A_eq @ x0
    else:
        b_ub = rng.normal(0.3, 1, nub)   # negative entries included
        b_ub[rng.random(nub) < 0.3] = 0.0
        b_eq = rng.normal(0, 1, neq)
    return (c, A_ub if nub else None, b_ub if nub else None,
            A_eq if neq else None, b_eq if neq else None, lower, upper,
            bool(rng.random() < 0.5))


def test_matches_reference_solver_on_random_instances(rng):
    linprog = pytest.importorskip("scipy.optimize").linprog
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(400):
        c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize = \
            _random_instance(rng)
        res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       lower=lower, upper=upper, maximize=maximize)
        bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                  for lo, hi in zip(lower, upper)]
        ref = linprog(-c if maximize else c, A_ub=A_ub, b_ub=b_ub,
                      A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
        status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
        assert res.status == status
        seen[status] += 1
        if status != OPTIMAL:
            continue
        ref_value = -ref.fun if maximize else ref.fun
        assert res.value == pytest.approx(ref_value, abs=1e-8)
        assert res.value == pytest.approx(float(c @ res.x), abs=1e-12)
        assert np.all(res.x >= lower - 1e-8) and np.all(res.x <= upper + 1e-8)
        if A_ub is not None:
            assert np.all(A_ub @ res.x <= b_ub + 1e-8)
        if A_eq is not None:
            assert np.allclose(A_eq @ res.x, b_eq, atol=1e-8)
    assert min(seen.values()) >= 20, seen


def _loop_standard_form(c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize):
    """Column-by-column reference for the standard form solve_lp builds."""
    nvar = c.size
    A_ub = np.zeros((0, nvar)) if A_ub is None else A_ub
    b_ub = np.zeros(0) if b_ub is None else b_ub
    A_eq = np.zeros((0, nvar)) if A_eq is None else A_eq
    b_eq = np.zeros(0) if b_eq is None else b_eq
    cols, offset, extra_rows = [], np.zeros(nvar), []
    for j in range(nvar):
        if np.isfinite(lower[j]):
            offset[j] = lower[j]
            cols.append((j, 1.0))
            if np.isfinite(upper[j]):
                extra_rows.append((len(cols) - 1, upper[j] - lower[j]))
        elif np.isfinite(upper[j]):
            offset[j] = upper[j]
            cols.append((j, -1.0))
        else:
            cols += [(j, 1.0), (j, -1.0)]
    ny = len(cols)

    def transform(M):
        out = np.zeros((M.shape[0], ny))
        for k, (j, s) in enumerate(cols):
            out[:, k] = s * M[:, j]
        return out

    cy = np.array([s * c[j] for j, s in cols])
    Au, bu = transform(A_ub), b_ub - A_ub @ offset
    for k, rhs in extra_rows:
        Au = np.vstack([Au, np.eye(ny)[k]])
        bu = np.append(bu, rhs)
    mu, me = Au.shape[0], A_eq.shape[0]
    A = np.vstack([np.hstack([Au, np.eye(mu)]),
                   np.hstack([transform(A_eq), np.zeros((me, mu))])])
    b = np.concatenate([bu, b_eq - A_eq @ offset])
    c_std = np.concatenate([-cy if maximize else cy, np.zeros(mu)])
    slack = np.concatenate([ny + np.arange(mu), np.full(me, -1)])

    def to_x(y):
        x = offset.copy()
        for k, (j, s) in enumerate(cols):
            x[j] += s * y[k]
        return x
    return c_std, A, b, slack, to_x


def test_standard_form_matches_column_loop(rng, monkeypatch):
    # same arithmetic as the per-column loop, so results are bit-identical
    seen = []
    inner = simplex._solve_standard

    def spy(*args):
        seen.append((args, inner(*args)))
        return seen[-1][1]

    monkeypatch.setattr(simplex, "_solve_standard", spy)
    for _ in range(200):
        inst = _random_instance(rng)
        c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize = inst
        res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       lower=lower, upper=upper, maximize=maximize)
        (args, std), = seen
        seen.clear()
        c_std, A, b, slack, to_x = _loop_standard_form(*inst)
        for got, want in zip(args[:4], (c_std, A, b, slack)):
            assert np.array_equal(got, want)
        if res.status == OPTIMAL:
            assert np.array_equal(res.x, to_x(std.x))
