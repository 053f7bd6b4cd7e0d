"""LP kernel checks against closed forms and an independent solver."""
import copy
import dataclasses
import importlib.util
import sys
import types

import numpy as np
import pytest

from conftest import random_market
from meanrisk import (LossFunction, Market, RiskSpec, detect_arbitrage, dual,
                      frontier, market, optimal_boundary, rho_nu, simplex,
                      table_profile)
from meanrisk.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LPError, solve_lp,
                              unit_scale)


def assert_feasible(res, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                    lower=None, upper=None, **_):
    """An optimal result meets its rows and bounds to 1e-9 relative: each
    residual within 1e-9 (1 + |rhs| + |row| . |x|)."""
    if res.status != OPTIMAL:
        return
    x = res.x
    for A, b, equal in ((A_ub, b_ub, False), (A_eq, b_eq, True)):
        if A is None:
            continue
        A, b = np.atleast_2d(np.asarray(A, float)), np.asarray(b, float)
        gap = A @ x - b
        tol = 1e-9 * (1.0 + np.abs(b) + np.abs(A) @ np.abs(x))
        assert np.all((np.abs(gap) if equal else gap) <= tol), \
            float(np.max(gap - tol))
    lo = np.zeros(x.size) if lower is None else np.asarray(lower, float)
    hi = np.full(x.size, np.inf) if upper is None else np.asarray(upper,
                                                                  float)
    assert np.all(x >= lo - 1e-9 * (1.0 + np.abs(lo)))
    assert np.all(x <= hi + 1e-9 * (1.0 + np.abs(hi)))


def checked_lps(monkeypatch, *modules):
    """Route each module's solve_lp through assert_feasible; the returned
    list gets one entry per call."""
    seen = []

    def checked(c, **kwargs):
        res = solve_lp(c, **kwargs)
        assert_feasible(res, c, **kwargs)
        seen.append(res)
        return res

    for module in modules:
        monkeypatch.setattr(module, "solve_lp", checked)
    return seen


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


def test_phase1_pivots_are_counted():
    # the textbook program starts from its slack basis: no phase 1
    res = solve_lp([2, 3], A_ub=[[1, 1], [6, 3], [1, 2]],
                   b_ub=[100, 360, 120], maximize=True)
    assert res.phase1_pivots == 0 < res.pivots
    # x1 + x2 >= 2 needs an artificial, and phase 1 pivots it out
    res = solve_lp([1, 2], A_ub=[[-1, -1]], b_ub=[-2])
    assert res.status == OPTIMAL and res.value == pytest.approx(2.0)
    assert 0 < res.phase1_pivots <= res.pivots
    res = solve_lp([1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
    assert res.status == INFEASIBLE and res.phase1_pivots == res.pivots


def test_zero_variables():
    # no column can enter: optimal at the empty point when the rows hold
    res = solve_lp(np.zeros(0))
    assert res.status == OPTIMAL and res.x.size == 0 and res.value == 0.0
    for kwargs in ({"A_ub": np.zeros((2, 0)), "b_ub": [1.0, 0.0]},
                   {"A_eq": np.zeros((2, 0)), "b_eq": [0.0, 0.0]},
                   {"A_ub": np.zeros((1, 0)), "b_ub": [0.0],
                    "A_eq": np.zeros((1, 0)), "b_eq": [0.0]}):
        res = solve_lp(np.zeros(0), **kwargs)
        assert res.status == OPTIMAL and res.x.size == 0, kwargs
        assert res.value == 0.0 and res.pivots == 0, kwargs
    res = solve_lp(np.zeros(0), A_eq=np.zeros((2, 0)), b_eq=[0.0, 0.0],
                   maximize=True)
    assert res.status == OPTIMAL


def test_zero_variables_infeasible_rhs():
    for kwargs in ({"A_ub": np.zeros((2, 0)), "b_ub": [1.0, -1.0]},
                   {"A_eq": np.zeros((1, 0)), "b_eq": [2.0]},
                   {"A_eq": np.zeros((2, 0)), "b_eq": [0.0, -0.5]}):
        assert solve_lp(np.zeros(0), **kwargs).status == INFEASIBLE, kwargs


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
    monkeypatch.setattr(simplex, "_budget", lambda A_std: 500)
    with pytest.raises(LPError):
        solve_lp(c, A_ub=A_ub, b_ub=b_ub)


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


def _random_bounds(rng, nvar, nonneg=0.0):
    """Per variable one of: x >= 0, free, lo <= x <= hi, x <= hi, x >= lo.
    With probability ``nonneg`` every variable is x >= 0 instead, as
    explicit zeros and infs (``_nonneg_as_none`` may then drop them)."""
    kind = rng.integers(0, 5, nvar)
    a = rng.uniform(-2.0, 0.5, nvar)
    lower = np.where(kind == 0, 0.0, np.where((kind == 2) | (kind == 4), a,
                                              -np.inf))
    upper = np.where(kind == 2, a + rng.uniform(0.0, 3.0, nvar),
                     np.where(kind == 3, rng.uniform(-0.5, 2.0, nvar),
                              np.inf))
    if nonneg and rng.random() < nonneg:
        return np.zeros(nvar), np.full(nvar, np.inf)
    return lower, upper


def _nonneg_as_none(rng, lower, upper):
    """Half the time, bounds that make every variable x >= 0 as None, the
    default; other bounds as they are."""
    if (not lower.any() and np.all(upper == np.inf)
            and rng.random() < 0.5):
        return None, None
    return lower, upper


def _random_instance(rng, nonneg=0.0):
    """A random general-form LP; ``nonneg`` as in _random_bounds, and then
    half the time with lower = upper = None."""
    nvar = int(rng.integers(2, 8))
    nub = int(rng.integers(0, 6))
    neq = int(rng.integers(0, 3))
    c = rng.normal(0, 1, nvar)
    lower, upper = _random_bounds(rng, nvar, nonneg)
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
    if nonneg:
        lower, upper = _nonneg_as_none(rng, lower, upper)
    return (c, A_ub if nub else None, b_ub if nub else None,
            A_eq if neq else None, b_eq if neq else None, lower, upper,
            bool(rng.random() < 0.5))


def test_unit_scale():
    # 1 within 2^+-8 of unit scale, else the power of two at or above max|a|
    assert unit_scale([]) == unit_scale([0.0]) == 1.0
    for a in ([0.19, -0.4], [-256.0], [2.0 ** -8]):
        assert unit_scale(a) == 1.0
    assert unit_scale([257.0]) == unit_scale([-512.0]) == 512.0
    assert unit_scale([2.0 ** -9]) == 2.0 ** -9
    assert unit_scale([1e-9, -3e-9]) == 2.0 ** -28


def test_cost_scale_leaves_the_answer(rng):
    # each cost is read over its unit: at any scale of c the same status
    # and point, and the value c.x in c's own units
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(300):
        c, *rest = _random_instance(rng, nonneg=0.3)
        want = solve_lp(c, *rest)
        seen[want.status] += 1
        for k in (-40, -20, 20):
            got = solve_lp(c * 2.0 ** k, *rest)
            assert got.status == want.status, k
            if want.status == OPTIMAL:
                assert np.array_equal(got.x, want.x), k
                assert got.value == want.value * 2.0 ** k, k
    assert min(seen.values()) >= 10, seen


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
        assert_feasible(res, c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                        lower=lower, upper=upper)
    assert min(seen.values()) >= 20, seen


def _loop_standard_form(c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize):
    """Column-by-column reference for the standard form solve_lp builds."""
    nvar = c.size
    lower = np.zeros(nvar) if lower is None else lower
    upper = np.full(nvar, np.inf) if upper is None else upper
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


def _block_slack(T, mu, n):
    """The slack column of each row of T's block (-1 on equality rows), in
    the form _loop_standard_form gives it."""
    rows = np.arange(T.shape[0] - 2)
    return np.where(rows < mu, n - mu + rows, -1)


def test_standard_form_matches_column_loop(rng, monkeypatch):
    # same arithmetic as the per-column loop, so results are bit-identical;
    # about a third of the instances are all x >= 0 (the identity column
    # map), half of those with lower = upper = None
    seen = []
    for name in ("_phase1", "_phase2"):
        def spy(*args, inner=getattr(simplex, name)):
            # phase 1 works on its block in place, and the driver maps
            # phase 2's result in place: keep both as they were
            kept = [a.copy() if isinstance(a, np.ndarray) else a
                    for a in args]
            out = inner(*args)
            seen.append((kept, copy.copy(out)))
            return out
        monkeypatch.setattr(simplex, name, spy)
    plain = 0
    for _ in range(300):
        inst = _random_instance(rng, nonneg=0.3)
        c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize = inst
        plain += lower is None or (not lower.any()
                                   and np.all(upper == np.inf))
        res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       lower=lower, upper=upper, maximize=maximize)
        (c_got, T, mu, _), std = seen[0][0], seen[-1][1]
        assert len(seen) == 1 + isinstance(seen[0][1], tuple)
        seen.clear()
        c_std, A, b, slack, to_x = _loop_standard_form(*inst)
        m, n = A.shape
        assert T.shape == (m + 2, n + 1)
        assert np.array_equal(c_got, c_std)
        assert np.array_equal(T[:m], np.column_stack([A, b]))
        assert not T[m:].any()      # the two cost rows start empty
        assert np.array_equal(_block_slack(T, mu, n), slack)
        if res.status == OPTIMAL:
            assert np.array_equal(res.x, to_x(std.x))
    assert plain >= 60, plain


class TestTinyPivots:
    """A pivot just above the admissible floor used to leave optimal points
    that broke their rows by up to 0.64."""

    def test_sr_detector_on_a_large_market(self, monkeypatch):
        # raised ValueError('density must integrate to one')
        lps = checked_lps(monkeypatch, frontier, dual, market)
        m = random_market(np.random.default_rng(1000), n=50, d=5,
                          arbitrage_free=True)
        rep = detect_arbitrage(
            RiskSpec.sr_with(LossFunction.pwl((0.5, 2.0), (0.0,))), m)
        assert rep.errors == [] and lps

    def test_boundary_minimum_is_its_slice(self, monkeypatch):
        # reported rho_min -0.200105 where the slice at nu_min gives -0.199903
        lps = checked_lps(monkeypatch, frontier)
        spec = RiskSpec.adjusted(table_profile([(0.2, 3.0), (0.5, 1.0),
                                                (1.0, 0.0)]))
        m = random_market(np.random.default_rng(2), n=40, d=5,
                          arbitrage_free=True)
        fr = optimal_boundary(spec, m, 0.2, 11)
        assert fr.errors == [] and fr.regime == "POSITIVE"
        assert rho_nu(spec, m, fr.nu_min)[0] == pytest.approx(fr.rho_min,
                                                              abs=1e-9)
        assert lps


def test_harris_repick_keeps_every_row_feasible():
    # Row 0 holds a tiny pivot at ratio 0.  A window of 1e-8 / entry let
    # row 1 (entry 1e-7, ratio 0.09) leave, which took row 2 to -0.04.
    col = np.array([1e-9, 1e-7, 1.0])
    rhs = np.array([0.0, 0.09e-7, 0.05])
    rows = np.arange(3)
    leaving, step = simplex._ratio_test(col, rhs, rows.copy(), rows)
    assert leaving != 1
    assert step == rhs[leaving] / col[leaving]
    end = rhs - col * step
    assert np.all(end >= -simplex._HARRIS_TOL)
    assert np.all(end >= -simplex._HARRIS_TOL * np.minimum(1.0, col))


def test_harris_repick_bound_on_random_columns():
    rng = np.random.default_rng(0)
    rows = np.arange(12)
    for _ in range(200):
        col = 10.0 ** rng.uniform(-9, 1, 12)
        col[0] = 1e-9
        rhs = col * rng.uniform(0, 2, 12)
        rhs[0] = 0.0
        _, step = simplex._ratio_test(col, rhs, rows.copy(), rows)
        end = rhs - col * step
        assert np.all(end >= -simplex._HARRIS_TOL * np.minimum(1.0, col))


class TestSmallScale:
    """Excess returns near 1e-7 make every pivot tiny.  A re-pick that
    ignored the ratios left the basis primal infeasible, and the martingale
    program then handed Density negative values.  Seeds 34 and 41 ended
    phase 1 on an artificial worth 1.4e-9 in a row of entries near 7e-9,
    under phase 1's absolute tolerance, until equality rows were scaled."""

    @staticmethod
    def check(monkeypatch, seed, spec, small_spec):
        m = random_market(np.random.default_rng(seed), n=4 + seed % 8,
                          d=1 + seed % 3, arbitrage_free=True)
        small = Market.from_excess(m.space.probs, m.r, 1e-7 * m.excess)
        want = detect_arbitrage(spec, m)
        lps = checked_lps(monkeypatch, frontier, dual, market)
        rep = detect_arbitrage(small_spec, small)
        assert rep.errors == [] and lps
        assert rep.rho_arbitrage == want.rho_arbitrage
        assert rep.strong_rho_arbitrage == want.strong_rho_arbitrage
        assert (rep.strong_recession_arbitrage
                == want.strong_recession_arbitrage)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 34, 41])
    def test_es_detector_at_1e_7(self, monkeypatch, seed):
        spec = RiskSpec.es_at(0.25)
        self.check(monkeypatch, seed, spec, spec)

    def test_lses_detector_at_1e_7(self, monkeypatch):
        # LSES's b scales with the returns
        self.check(monkeypatch, 34, RiskSpec.lses_at(0.5),
                   RiskSpec.lses_at(0.5e-7))


def _random_polytope(rng, nonneg=0.0):
    """Bounded by construction: box bounds, or +-5 rows on free columns.
    Equality rows include a redundant combination of the others; 30% of
    the instances draw their rhs at random and are mostly infeasible.
    ``nonneg`` as in _random_instance."""
    nvar = int(rng.integers(2, 8))
    lower, upper = _random_bounds(rng, nvar, nonneg)
    unbox = ~(np.isfinite(lower) & np.isfinite(upper))
    A_ub = np.vstack([rng.normal(0, 1, (int(rng.integers(0, 5)), nvar)),
                      np.eye(nvar)[unbox], -np.eye(nvar)[unbox]])
    A_eq = rng.normal(0, 1, (int(rng.integers(1, 4)), nvar))
    A_eq = np.vstack([A_eq, rng.normal(0, 1, A_eq.shape[0]) @ A_eq])
    x0 = np.clip(rng.normal(0, 1, nvar), np.maximum(lower, -4.0),
                 np.minimum(upper, 4.0))
    b_ub = A_ub @ x0 + np.where(rng.random(A_ub.shape[0]) < 0.4, 0.0,
                                rng.uniform(0, 1, A_ub.shape[0]))
    b_ub[A_ub.shape[0] - 2 * unbox.sum():] = 5.0
    b_eq = A_eq @ x0
    if rng.random() < 0.3:
        b_eq = b_eq + rng.normal(0, 1, b_eq.size)
    if nonneg:
        lower, upper = _nonneg_as_none(rng, lower, upper)
    return dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lower=lower,
                upper=upper), rng.normal(0, 1, nvar)


def test_range_matches_two_cold_solves(rng):
    # [c, -c]: min c.x, then max c.x as min -c.x from the min leg's basis
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    phase1 = 0
    for _ in range(300):
        rows, c = _random_polytope(rng)
        low, high = simplex.solve_lp_sequence([c, -c], **rows)
        ref_low = solve_lp(c, **rows)
        ref_high = solve_lp(c, maximize=True, **rows)
        assert (low.status, high.status) == (ref_low.status, ref_high.status)
        assert high.phase1_pivots == 0
        seen[low.status] += 1
        if low.status != OPTIMAL:
            continue
        phase1 += low.phase1_pivots > 0
        for got, want, sign in ((low, ref_low, 1.0), (high, ref_high, -1.0)):
            assert got.value == pytest.approx(sign * want.value, rel=1e-9,
                                              abs=1e-12)
            assert got.value == float(sign * c @ got.x)
            assert_feasible(got, c, **rows)
    assert min(seen.values()) >= 30 and phase1 >= 30, (seen, phase1)


def test_range_after_unbounded_min_matches_cold_max(rng):
    # Free columns bounded above only, and c > 0: max c.x is bounded while
    # min c.x is mostly not, so the max leg starts from the basis of an
    # unbounded exit.
    seen = {}
    for _ in range(200):
        nvar = int(rng.integers(2, 8))
        A_ub = np.vstack([rng.normal(0, 1, (int(rng.integers(0, 3)), nvar)),
                          np.eye(nvar)])
        A_eq = rng.normal(0, 1, (int(rng.integers(0, nvar)), nvar))
        A_eq = np.vstack([A_eq, rng.normal(0, 1, A_eq.shape[0]) @ A_eq])
        x0 = rng.normal(0, 1, nvar)
        rows = dict(A_ub=A_ub, b_ub=A_ub @ x0 + rng.uniform(0, 1, len(A_ub)),
                    A_eq=A_eq, b_eq=A_eq @ x0, lower=-np.inf)
        c = np.abs(rng.normal(0, 1, nvar)) + 0.1
        low, high = simplex.solve_lp_sequence([c, -c], **rows)
        ref_low = solve_lp(c, **rows)
        ref_high = solve_lp(c, maximize=True, **rows)
        assert (low.status, high.status) == (ref_low.status, ref_high.status)
        assert high.phase1_pivots == 0
        key = (low.status, high.status)
        seen[key] = seen.get(key, 0) + 1
        for got, want, sign in ((low, ref_low, 1.0), (high, ref_high, -1.0)):
            if got.status == OPTIMAL:
                assert got.value == pytest.approx(sign * want.value,
                                                  rel=1e-9, abs=1e-12)
                assert_feasible(got, c, **rows)
    assert seen.get((UNBOUNDED, OPTIMAL), 0) >= 80, seen


def test_range_unbounded_and_empty_legs():
    # min unbounded: the max leg starts from the basis the min leg left
    low, high = simplex.solve_lp_sequence([[1.0], [-1.0]], A_ub=[[1.0]],
                                          b_ub=[5.0], lower=[-np.inf])
    assert low.status == UNBOUNDED
    assert high.status == OPTIMAL and high.value == pytest.approx(-5.0)
    assert high.phase1_pivots == 0
    # max unbounded from the min leg's tableau
    low, high = simplex.solve_lp_sequence([[1.0, 0.0], [-1.0, 0.0]],
                                          A_eq=[[1.0, -1.0]], b_eq=[0.0])
    assert (low.status, low.value, high.status) == (OPTIMAL, 0.0, UNBOUNDED)
    assert high.phase1_pivots == 0
    # a tie-break unbounded on the face makes its leg unbounded
    low, high = simplex.solve_lp_sequence(
        [([1.0, 0.0], [0.0, -1.0]), [0.0, 1.0]], A_ub=[[1.0, -1.0]],
        b_ub=[0.0])
    assert (low.status, high.status, high.value) == (UNBOUNDED, OPTIMAL, 0.0)
    # every leg of an empty polytope is infeasible, tie-breaks included
    for kwargs in ({"A_eq": [[1.0, 1.0], [1.0, 1.0]], "b_eq": [1.0, 2.0]},
                   {"lower": [2.0, 0.0], "upper": [1.0, 1.0]}):
        legs = simplex.solve_lp_sequence(
            [[1.0, 2.0], ([-1.0, 0.0], [0.0, 1.0]), [0.0, -1.0]], **kwargs)
        assert [res.status for res in legs] == [INFEASIBLE] * 3, kwargs


def _degenerate_objective(rng, rows):
    """c = A_eq^T lam, or that plus nu A_ub[i] with nu < 0: c.x is constant
    on the equality rows, so the whole polytope, or the face on which row i
    is tightest, is optimal."""
    A_ub, A_eq = rows["A_ub"], rows["A_eq"]
    c = rng.normal(0, 1, A_eq.shape[0]) @ A_eq
    if A_ub.shape[0] and rng.random() < 0.5:
        c = c - rng.uniform(0.2, 2.0) * A_ub[rng.integers(A_ub.shape[0])]
    return c


def test_tie_break_on_the_optimal_face(rng):
    # A pair (c, tie) minimises tie over c's optimal face.  Reference: min
    # c.x cold, then min tie.x with the row c.x <= c* added.  The next
    # objective starts from c's optimal tableau and matches a cold solve.
    seen = {"degenerate": 0, "moved": 0, INFEASIBLE: 0}
    for _ in range(600):
        rows, _ = _random_polytope(rng)
        c = _degenerate_objective(rng, rows)
        tie, after = rng.normal(0, 1, (2, c.size))
        face, nxt = simplex.solve_lp_sequence([(c, tie), after], **rows)
        best = solve_lp(c, **rows)
        ref_next = solve_lp(after, **rows)
        assert (face.status, nxt.status) == (best.status, ref_next.status)
        if best.status == INFEASIBLE:
            seen[INFEASIBLE] += 1
            continue
        assert face.status == OPTIMAL, face.status
        on_face = dict(rows, A_ub=np.vstack([rows["A_ub"], c]),
                       b_ub=np.append(rows["b_ub"], best.value))
        ref = solve_lp(tie, **on_face)
        widest = solve_lp(tie, maximize=True, **on_face)
        assert ref.status == widest.status == OPTIMAL
        scale = 1.0 + np.abs(c) @ np.abs(face.x)
        assert face.value == pytest.approx(best.value, rel=1e-9, abs=1e-9)
        assert abs(float(c @ face.x) - best.value) <= 1e-9 * scale
        assert float(tie @ face.x) == pytest.approx(ref.value, rel=1e-9,
                                                    abs=1e-9)
        assert_feasible(face, c, **rows)
        assert nxt.phase1_pivots == 0
        assert nxt.value == pytest.approx(ref_next.value, rel=1e-9,
                                          abs=1e-12)
        seen["degenerate"] += widest.value > ref.value + 1e-6
        seen["moved"] += float(tie @ face.x) < float(tie @ best.x) - 1e-6
    assert seen["degenerate"] >= 200 and min(seen.values()) >= 30, seen


def _full_rank_polytope(rng, nonneg=0.0):
    """_random_polytope with fewer equality rows than variables and none
    redundant, so phase 1 drops no row and an optimal result keeps its
    basis."""
    rows, c = _random_polytope(rng, nonneg)
    keep = min(rows["A_eq"].shape[0] - 1, c.size - 1)
    rows["A_eq"], rows["b_eq"] = rows["A_eq"][:keep], rows["b_eq"][:keep]
    return rows, c


def _moved_columns(rng, b, count, scale):
    """b and count - 1 further columns, each the last moved by N(0, scale)."""
    steps = rng.normal(0, scale, (b.size, count - 1))
    return np.column_stack([b, b[:, None] + steps.cumsum(axis=1)])


def test_path_matches_cold_solves(rng):
    # each column of solve_lp_path matches a cold solve_lp on it
    seen = {"dual": 0, INFEASIBLE: 0, "phase1": 0}
    for _ in range(400):
        rows, c = _full_rank_polytope(rng)
        B_ub = _moved_columns(rng, rows["b_ub"], int(rng.integers(4, 7)),
                              rng.choice([0.05, 0.5, 3.0]))
        fixed = {key: rows[key] for key in ("A_eq", "b_eq", "lower", "upper")}
        path = simplex.solve_lp_path(c, rows["A_ub"], B_ub, **fixed)
        assert len(path) == B_ub.shape[1]
        after_optimal = False
        for res, b in zip(path, B_ub.T):
            moved = dict(rows, b_ub=b)
            cold = solve_lp(c, **moved)
            assert res.status == cold.status
            seen[INFEASIBLE] += res.status == INFEASIBLE
            if res.status == OPTIMAL:
                if after_optimal:
                    assert res.phase1_pivots == 0
                assert res.value == pytest.approx(cold.value, rel=1e-9,
                                                  abs=1e-12)
                assert_feasible(res, c, **moved)
            seen["dual"] += res.dual_pivots > 0
            seen["phase1"] += res.phase1_pivots > 0
            after_optimal = res.status == OPTIMAL
    assert min(seen.values()) >= 20, seen


def test_path_on_an_empty_box_is_infeasible_at_every_column():
    path = simplex.solve_lp_path([1.0, -1.0], [[1.0, 1.0]],
                                 [[1.0, 2.0, 3.0]], lower=[0.0, 1.0],
                                 upper=[1.0, 0.0])
    assert [res.status for res in path] == [INFEASIBLE] * 3


def test_path_restarts_cold_when_the_dual_budget_runs_out(rng, monkeypatch):
    # with a one-pivot budget every continued column that needs a second
    # dual pivot gets (None, ...) back; it restarts cold and is then
    # solve_lp on its column, bit for bit
    dual_iterate, outcomes = simplex._dual_iterate, []

    def one_pivot(T, basis, m, ncols, max_iter, scale):
        status, pivots = dual_iterate(T, basis, m, ncols, 1, scale)
        outcomes.append(status)
        return status, pivots
    monkeypatch.setattr(simplex, "_dual_iterate", one_pivot)
    restarts = 0
    for _ in range(200):
        rows, c = _full_rank_polytope(rng)
        B_ub = _moved_columns(rng, rows["b_ub"], 4, 3.0)
        fixed = {key: rows[key] for key in ("A_eq", "b_eq", "lower", "upper")}
        outcomes.clear()
        path = simplex.solve_lp_path(c, rows["A_ub"], B_ub, **fixed)
        continued = iter(outcomes)
        for k, (res, b) in enumerate(zip(path, B_ub.T)):
            if k == 0 or path[k - 1].status != OPTIMAL:
                continue
            if next(continued) is not None:
                continue
            restarts += 1
            cold = solve_lp(c, **dict(rows, b_ub=b))
            assert (res.status, res.value, res.pivots, res.phase1_pivots,
                    res.dual_pivots) == (cold.status, cold.value, cold.pivots,
                                         cold.phase1_pivots, cold.dual_pivots)
            for got, want in ((res.x, cold.x), (res.basis, cold.basis)):
                assert (got is None) == (want is None)
                assert got is None or got.tobytes() == want.tobytes()
    assert restarts >= 20, restarts


def test_max_of_zero_is_positive_zero():
    # the value is c.x in the caller's c, not minus the minimum of -c.x,
    # which would be -0.0
    res = solve_lp([1.0, -1.0], A_ub=[[1.0, -1.0]], b_ub=[0.0],
                   maximize=True)
    assert res.status == OPTIMAL and res.value == 0.0
    assert np.copysign(1.0, res.value) == 1.0


class _Frozen:
    """The kernel before its numpy calls were trimmed, kept as the reference
    for pivot paths: np.outer rank-1 updates, phase 1 ended by basis.max(),
    an (m+2)-row phase-1 tableau even with no artificial, and the standard
    form through broadcast_to and fancy-indexed slack columns; the dual
    simplex (_dual_iterate) and the multi-column rhs of a path in the
    standard form and phase 1; and the one driver (_solve with _phase2,
    _price and _face_min) as it was when the three entry points became its
    wrappers.  So a change to any kernel function reaches only the live
    side.  _frozen_kernel patches these functions into a fresh copy of the
    simplex module."""

    def _pivot(T, row, col):
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])

    def _ratio_test(col, rhs, basis, rows):
        ratios = rhs[rows] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _RATIO_TIE]
        leaving = int(ties[np.argmin(basis[ties])])
        if col[leaving] < _SMALL_PIVOT:
            relax = _HARRIS_TOL * np.minimum(1.0, col[rows])
            theta_max = ((rhs[rows] + relax) / col[rows]).min()
            k = int(np.argmax(np.where(ratios <= theta_max, col[rows], 0.0)))
            leaving, best = int(rows[k]), ratios[k]
        return leaving, float(best)

    def _iterate(T, basis, m, cost, ncols, max_iter, phase1):
        if ncols == 0:
            return OPTIMAL, 0
        reduced = T[cost, :ncols]
        rhs = T[:m, -1]
        skipped = []
        degenerate = pivots = 0
        for _ in range(max_iter):
            if phase1 and basis.max() < ncols:
                return OPTIMAL, pivots
            priced = reduced
            if skipped:
                priced = reduced.copy()
                priced[skipped] = 0.0
            if degenerate < _DEGENERATE_RUN:
                entering = int(np.argmin(priced))
                if priced[entering] >= -_RCOST_TOL:
                    return OPTIMAL, pivots
            else:
                candidates = np.flatnonzero(priced < -_RCOST_TOL)
                if candidates.size == 0:
                    return OPTIMAL, pivots
                entering = int(candidates[0])
            col = T[:m, entering]
            rows = np.flatnonzero(col > _PIVOT_TOL)
            if rows.size == 0:
                if not phase1:
                    return UNBOUNDED, pivots
                skipped.append(entering)
                continue
            leaving, best = _ratio_test(col, rhs, basis, rows)
            degenerate = degenerate + 1 if best <= _RATIO_TIE else 0
            skipped = []
            basis[leaving] = entering
            _pivot(T, leaving, entering)
            pivots += 1
        raise LPError("simplex iteration budget exhausted")

    def _phase1(c, A, b, slack, max_iter):
        m, n = A.shape
        if b.ndim == 1:                 # the last column is solved
            b = b[:, None]
        T = np.zeros((m + 2, n + b.shape[1]))
        T[:m, :n] = A
        T[:m, n:] = b
        eq = np.flatnonzero(slack < 0)
        size = np.abs(A[eq]).max(axis=1, initial=0.0)
        T[eq] /= np.where(size > 0.0, size, 1.0)[:, None]
        T[m, :n] = c
        neg = b[:, -1] < 0
        T[:m][neg] *= -1.0
        basis = np.where((slack >= 0) & ~neg, slack, n + np.arange(m))
        artificial = basis >= n
        pivots = 0
        if artificial.any():
            T[m + 1] = -T[:m][artificial].sum(axis=0)
            _, pivots = _iterate(T, basis, m, m + 1, n, max_iter, True)
            held = basis >= n
            if T[:m, -1][held].sum() > _PHASE1_TOL:
                return LPResult(INFEASIBLE, pivots=pivots,
                                phase1_pivots=pivots)
            keep = np.ones(m + 1, dtype=bool)
            for i in np.flatnonzero(held):
                size = np.abs(T[i, :n])
                if not np.any(size > _PIVOT_TOL):
                    keep[i] = False
                else:
                    j = int(np.argmax(size))
                    basis[i] = j
                    _pivot(T, i, j)
                    pivots += 1
            if keep.all():
                T = T[:m + 1]
            else:
                T = T[np.flatnonzero(keep)]
                basis = basis[keep[:m]]
        return T, basis, pivots

    def _standard_form(nvar, A_ub, b_ub, A_eq, b_eq, lower, upper):
        lo = np.full(nvar, 0.0) if lower is None else np.broadcast_to(
            np.asarray(lower, dtype=float), (nvar,))
        hi = np.full(nvar, np.inf) if upper is None else np.broadcast_to(
            np.asarray(upper, dtype=float), (nvar,))
        if np.any(lo > hi):
            return None
        A_ub = np.zeros((0, nvar)) if A_ub is None else np.atleast_2d(
            np.asarray(A_ub, dtype=float))
        b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(
            np.asarray(b_ub, dtype=float))
        A_eq = np.zeros((0, nvar)) if A_eq is None else np.atleast_2d(
            np.asarray(A_eq, dtype=float))
        b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(
            np.asarray(b_eq, dtype=float))
        lo_f, hi_f = np.isfinite(lo), np.isfinite(hi)
        free = ~lo_f & ~hi_f
        src = np.repeat(np.arange(nvar), np.where(free, 2, 1))
        first = np.cumsum(np.where(free, 2, 1)) - np.where(free, 2, 1)
        sign = np.ones(src.size)
        sign[first[~lo_f & hi_f]] = -1.0
        sign[first[free] + 1] = -1.0
        offset = np.where(lo_f, lo, np.where(hi_f, hi, 0.0))
        boxed = np.flatnonzero(lo_f & hi_f)
        ny = src.size
        n_ub, n_eq, n_box = A_ub.shape[0], A_eq.shape[0], boxed.size
        mu = n_ub + n_box
        A_std = np.zeros((mu + n_eq, ny + mu))
        A_std[:n_ub, :ny] = A_ub[:, src] * sign
        A_std[n_ub + np.arange(n_box), first[boxed]] = 1.0
        A_std[np.arange(mu), ny + np.arange(mu)] = 1.0
        A_std[mu:, :ny] = A_eq[:, src] * sign
        cols = b_ub.shape[1:]           # (k,) for a path's k rhs columns

        def fixed(v):                   # one rhs entry per row, every column
            return np.broadcast_to(v.reshape(v.shape + (1,) * len(cols)),
                                   v.shape + cols)
        b_std = np.concatenate([b_ub - fixed(A_ub @ offset),
                                fixed(hi[boxed] - lo[boxed]),
                                fixed(b_eq - A_eq @ offset)])
        slack = np.concatenate([ny + np.arange(mu), np.full(n_eq, -1)])

        def cost(c):
            c_std = np.zeros(ny + mu)
            c_std[:ny] = np.asarray(c, dtype=float)[src] * sign
            return c_std

        def unmap(res, c):
            if res.status != OPTIMAL:
                return res
            x = offset + np.bincount(src, weights=sign * res.x[:ny],
                                     minlength=nvar)
            full = res.basis.size == A_std.shape[0]
            return LPResult(OPTIMAL, x, float(c @ x), res.pivots,
                            res.phase1_pivots, res.dual_pivots,
                            res.basis if full else None)
        return A_std, b_std, slack, cost, unmap

    def _dual_iterate(T, basis, m, ncols, max_iter, scale):
        rhs = T[:m, -1]
        reduced = T[m, :ncols]
        for pivots in range(max_iter):
            short = rhs / scale[basis]
            leaving = int(np.argmin(short))
            if short[leaving] >= -_PHASE1_TOL:
                return OPTIMAL, pivots
            row = T[leaving, :ncols]
            cols = np.flatnonzero(row < -_PIVOT_TOL)
            if cols.size == 0:
                return INFEASIBLE, pivots
            ratios = reduced[cols] / -row[cols]
            entering = int(cols[np.argmax(ratios <= ratios.min()
                                          + _RATIO_TIE)])
            basis[leaving] = entering
            _pivot(T, leaving, entering)
        return None, max_iter

    def _phase2(T, basis, c, phase1, max_iter):
        m = basis.size
        status, phase2 = _iterate(T, basis, m, m, c.size, max_iter, False)
        pivots = phase1 + phase2
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, pivots=pivots, phase1_pivots=phase1)
        x = np.zeros(c.size)
        x[basis] = T[:m, -1]
        return LPResult(OPTIMAL, x, float(c @ x), pivots, phase1,
                        basis=basis.copy())

    def _price(T, basis, c):
        m = basis.size
        T[m] = np.append(c, 0.0)
        T[m] -= c[basis] @ T[:m]

    def _face_min(T, basis, tie, max_iter):
        m = basis.size
        face = T[:m + 1].copy()
        _price(face, basis, tie)
        face[m, :-1][T[m, :-1] > _RCOST_TOL] = np.inf
        return _phase2(face, basis.copy(), tie, 0, max_iter)

    def _solve(legs, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize=False):
        legs = [(np.asarray(c, dtype=float), tie) for c, tie in legs]
        path = np.ndim(b_ub) == 2
        if path:
            b_ub = np.asarray(b_ub, dtype=float)[:, ::-1]
        ncol = b_ub.shape[1] if path else 1
        form = _standard_form(legs[0][0].size, A_ub, b_ub, A_eq, b_eq,
                              lower, upper)
        if form is None:
            return [LPResult(INFEASIBLE) for _ in range(ncol * len(legs))]
        A_std, b_std, slack, cost, unmap = form
        max_iter = _budget(A_std)
        costs = [cost(-c if maximize else c) for c, _ in legs]

        def column(T, basis, pivots, dual):
            out = []
            for (c, tie), c_std in zip(legs, costs):
                if out:
                    _price(T, basis, c_std)
                res = unmap(_phase2(T, basis, c_std, pivots, max_iter), c)
                res.pivots += dual
                res.dual_pivots = dual
                pivots = dual = 0
                if tie is not None and res.status == OPTIMAL:
                    face = unmap(_face_min(T, basis, cost(tie), max_iter), c)
                    res = replace(res, status=face.status, x=face.x,
                                  basis=face.basis,
                                  pivots=res.pivots + face.pivots)
                out.append(res)
            return out

        results, T, scale = [], None, None
        for j in range(ncol, 0, -1):
            out = None
            if T is not None and basis.size:
                T = T[:, :-1]
                if scale is None:
                    rows = (slack >= 0).nonzero()[0]
                    scale = np.ones(A_std.shape[1])
                    scale[slack[rows]] = np.abs(
                        A_std[rows, :scale.size - rows.size]).max(
                        axis=1, initial=0.0).clip(_PIVOT_TOL, 1.0)
                status, dual = _dual_iterate(T, basis, basis.size, scale.size,
                                             max_iter, scale)
                if status == OPTIMAL:
                    out = column(T, basis, 0, dual)
            if out is None or out[0].status != OPTIMAL:
                start = _phase1(costs[0],
                                A_std, b_std[:, :j] if path else b_std,
                                slack, max_iter)
                if isinstance(start, LPResult):
                    out = [start] + [LPResult(INFEASIBLE) for _ in legs[1:]]
                else:
                    T, basis, pivots = start
                    out = column(T, basis, pivots, 0)
            if out[0].status != OPTIMAL:
                T = None
            results += out
        return results


def _frozen_kernel(monkeypatch):
    """A fresh copy of the simplex module running _Frozen's functions.
    Each is rebuilt over the copy's namespace, so the frozen functions call
    one another and the copy's unchanged ones (_budget and the entry
    points, which only wrap _solve), plus the dataclasses.replace that
    the frozen _solve calls."""
    spec = importlib.util.spec_from_file_location("frozen_simplex",
                                                  simplex.__file__)
    ref = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, ref)   # for @dataclass
    spec.loader.exec_module(ref)
    ref.replace = dataclasses.replace
    for name, fn in vars(_Frozen).items():
        if callable(fn):
            setattr(ref, name, types.FunctionType(fn.__code__, vars(ref),
                                                  name, fn.__defaults__))
    return ref


def _tiny_rows(rng, *polytopes):
    """Half the time, scale a few rows (entries and rhs) of each polytope,
    alike, by 1e-8..1e-6: the polytope is the same, but its pivots are
    tiny, so Harris' re-pick runs."""
    if rng.random() < 0.5:
        for A, b in (("A_ub", "b_ub"), ("A_eq", "b_eq")):
            rows = polytopes[0][A]
            if rows is not None and len(rows):
                scale = np.where(rng.random(len(rows)) < 0.4,
                                 10.0 ** rng.uniform(-8, -6, len(rows)), 1.0)
                for poly in polytopes:
                    poly[A], poly[b] = poly[A] * scale[:, None], poly[b] * scale
    return polytopes[0]


def test_kernel_matches_frozen_reference(rng, monkeypatch):
    # Every pivot path of the kernel is bit-identical to the frozen one:
    # status, pivot counts, the sign and bits of the value, basis and the
    # bytes of x, on cold solves, sequences with tie-break legs and the
    # whole of every path, whose later columns also match frozen cold
    # solves in value.  A third of the paths give the dual simplex one
    # pivot per column on both sides, so that columns restart cold.  A
    # fifth of the instances of each kind are all x >= 0, half of those
    # with lower = upper = None: the driver's identity column map.
    ref = _frozen_kernel(monkeypatch)
    seen = {"repick": 0, "tie": 0, "dual": 0, "dropped": 0, "restart": 0,
            "beale": 0, "none": 0, "nonneg": 0}
    frozen_ratio_test = ref._ratio_test

    def counted(col, rhs, basis, rows):
        ratios = rhs[rows] / col[rows]
        ties = rows[ratios <= ratios.min() + simplex._RATIO_TIE]
        seen["tie"] += ties.size > 1
        first = ties[np.argmin(basis[ties])]
        seen["repick"] += col[first] < simplex._SMALL_PIVOT
        return frozen_ratio_test(col, rhs, basis, rows)
    ref._ratio_test = counted
    dual_budget = [None]

    def budgeted(dual_iterate, count):
        def call(T, basis, m, ncols, max_iter, scale):
            out = dual_iterate(T, basis, m, ncols, dual_budget[0] or max_iter,
                               scale)
            seen["restart"] += count and out[0] is None
            return out
        return call
    monkeypatch.setattr(simplex, "_dual_iterate",
                        budgeted(simplex._dual_iterate, True))
    ref._dual_iterate = budgeted(ref._dual_iterate, False)

    def same(got, want):
        assert got.status == want.status
        assert (got.pivots, got.phase1_pivots, got.dual_pivots) == (
            want.pivots, want.phase1_pivots, want.dual_pivots)
        assert repr(got.value) == repr(want.value)
        for a, b in ((got.basis, want.basis), (got.x, want.x)):
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes()

    def both(name, *args, **kwargs):
        got = getattr(simplex, name)(*args, **kwargs)
        want = getattr(ref, name)(*args, **kwargs)
        for g, w in zip(*(r if isinstance(r, list) else [r]
                          for r in (got, want))):
            same(g, w)
        return got

    beale = dict(A_ub=[[0.25, -60, -0.04, 9], [0.5, -90, -0.02, 3],
                       [0.0, 0.0, 1.0, 0.0]], b_ub=[0, 0, 1])
    res = both("solve_lp", [-0.75, 150, -0.02, 6], **beale)
    seen["beale"] += res.pivots > simplex._DEGENERATE_RUN
    both("solve_lp", [1.0, -1.0], A_ub=[[1.0, -1.0]], b_ub=[0.0],
         maximize=True)                           # a max of 0.0 is +0.0
    for i in range(1260):
        if i % 3 == 0:
            c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize = \
                _random_instance(rng, nonneg=0.2)
            rows = _tiny_rows(rng, dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                                        b_eq=b_eq, lower=lower, upper=upper))
            both("solve_lp", c, maximize=maximize, **rows)
        elif i % 3 == 1:
            rows, c = _random_polytope(rng, nonneg=0.2)
            rows = _tiny_rows(rng, rows)
            tie, after = rng.normal(0, 1, (2, c.size))
            legs = both("solve_lp_sequence",
                        [(_degenerate_objective(rng, rows), tie), -c, after],
                        **rows)
            seen["dropped"] += (legs[1].status == OPTIMAL
                                and legs[1].basis is None)
        else:
            rows, c = _full_rank_polytope(rng, nonneg=0.2)
            columns = [dict(rows, b_ub=b) for b in
                       _moved_columns(rng, rows["b_ub"], 3, 0.5).T]
            _tiny_rows(rng, *columns)
            dual_budget[0] = 1 if i % 9 == 2 else None
            path = both(
                "solve_lp_path", c, columns[0]["A_ub"],
                np.column_stack([col["b_ub"] for col in columns]),
                **{key: columns[0][key] for key in (
                    "A_eq", "b_eq", "lower", "upper")})
            dual_budget[0] = None
            same(path[0], ref.solve_lp(c, **columns[0]))
            for res, col in zip(path[1:], columns[1:]):
                cold = ref.solve_lp(c, **col)
                assert res.status == cold.status
                if res.status == OPTIMAL:
                    assert res.value == pytest.approx(cold.value, rel=1e-9,
                                                      abs=1e-12)
                seen["dual"] += res.dual_pivots > 0
        lower, upper = rows["lower"], rows["upper"]
        if lower is None:
            seen["none"] += 1
        elif not lower.any() and np.all(upper == np.inf):
            seen["nonneg"] += 1
    assert seen.pop("beale") == 1 and min(seen.values()) >= 30, seen


def test_phase1_without_artificials_has_no_phase1_row():
    # x <= 1 on three variables: every row starts on its slack, so the
    # tableau holds the constraints and the phase-2 cost row only
    c = np.array([-1.0, 0.5, -2.0])
    for A_eq, b_eq in ((None, None), (np.ones((1, 3)), np.array([2.0]))):
        inst = (c, None, None, A_eq, b_eq, np.zeros(3), np.ones(3), False)
        block, mu, cost, _ = simplex._standard_form(3, *inst[1:7])
        c_std, A, b, slack, _ = _loop_standard_form(*inst)
        m, n = A.shape
        assert np.array_equal(block[:m], np.column_stack([A, b]))
        assert not block[m:].any()
        assert np.array_equal(_block_slack(block, mu, n), slack)
        assert np.array_equal(cost(c), c_std)
        T, basis, pivots = simplex._phase1(cost(c), block, mu, 100)
        assert T.shape == (m + 1, n + 1)
        if A_eq is None:
            assert m == 3 and np.array_equal(basis, slack) and pivots == 0
        else:   # phase 1 runs and its cost row is dropped after
            assert pivots > 0
