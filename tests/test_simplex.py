"""LP kernel checks against closed forms and an independent solver."""
import numpy as np
import pytest

from conftest import random_market
from meanrisk import (LossFunction, Market, RiskSpec, detect_arbitrage, dual,
                      frontier, market, optimal_boundary, rho_nu, simplex,
                      table_profile)
from meanrisk.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPError, solve_lp


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
        assert_feasible(res, c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                        lower=lower, upper=upper)
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
    for name in ("_phase1", "_phase2"):
        def spy(*args, inner=getattr(simplex, name)):
            seen.append((args, inner(*args)))
            return seen[-1][1]
        monkeypatch.setattr(simplex, name, spy)
    for _ in range(200):
        inst = _random_instance(rng)
        c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize = inst
        res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       lower=lower, upper=upper, maximize=maximize)
        args, std = seen[0][0], seen[-1][1]
        assert len(seen) == 1 + isinstance(seen[0][1], tuple)
        seen.clear()
        c_std, A, b, slack, to_x = _loop_standard_form(*inst)
        for got, want in zip(args[:4], (c_std, A, b, slack)):
            assert np.array_equal(got, want)
        if res.status == OPTIMAL:
            assert np.array_equal(res.x, to_x(std.x))


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


def _random_polytope(rng):
    """Bounded by construction: box bounds, or +-5 rows on free columns.
    Equality rows include a redundant combination of the others; 30% of
    the instances draw their rhs at random and are mostly infeasible."""
    nvar = int(rng.integers(2, 8))
    lower, upper = _random_bounds(rng, nvar)
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


def _same_solve(got, want):
    return (got.status == want.status and got.pivots == want.pivots
            and got.phase1_pivots == want.phase1_pivots
            and got.dual_pivots == want.dual_pivots
            and (got.x is None or np.array_equal(got.x, want.x)))


def _full_rank_polytope(rng):
    """_random_polytope with fewer equality rows than variables and none
    redundant, so phase 1 drops no row and an optimal result keeps its
    basis."""
    rows, c = _random_polytope(rng)
    keep = min(rows["A_eq"].shape[0] - 1, c.size - 1)
    rows["A_eq"], rows["b_eq"] = rows["A_eq"][:keep], rows["b_eq"][:keep]
    return rows, c


def test_warm_start_after_rhs_change_matches_cold(rng):
    # a start differs from the LP it starts only in b
    seen = {"dual": 0, INFEASIBLE: 0, "phase1": 0}
    for _ in range(400):
        rows, c = _full_rank_polytope(rng)
        base = solve_lp(c, **rows)
        if base.status != OPTIMAL:
            continue
        assert base.basis.size == (
            rows["A_ub"].shape[0] + rows["A_eq"].shape[0]
            + int(np.sum(np.isfinite(rows["lower"])
                         & np.isfinite(rows["upper"]))))
        scale = rng.choice([0.05, 0.5, 3.0])
        moved = dict(rows,
                     b_ub=rows["b_ub"] + rng.normal(0, scale,
                                                    rows["b_ub"].size),
                     b_eq=rows["b_eq"] + rng.normal(0, scale,
                                                    rows["b_eq"].size))
        warm = solve_lp(c, start=base.basis, **moved)
        cold = solve_lp(c, **moved)
        assert warm.status == cold.status
        if warm.status == INFEASIBLE:
            seen[INFEASIBLE] += 1
            continue
        assert warm.phase1_pivots == 0
        assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
        assert_feasible(warm, c, **moved)
        seen["dual"] += warm.dual_pivots > 0
        seen["phase1"] += cold.phase1_pivots > 0
    assert min(seen.values()) >= 20, seen


def test_bad_start_falls_back_to_cold(rng):
    kinds = {"short": 0, "repeated": 0, "dual infeasible": 0}
    for _ in range(200):
        rows, c = _full_rank_polytope(rng)
        base = solve_lp(c, **rows)
        if base.status != OPTIMAL or base.basis.size < 2:
            continue
        repeated = base.basis.copy()
        repeated[0] = repeated[1]
        starts = {"short": base.basis[:-1], "repeated": repeated}
        for kind, start in starts.items():
            assert _same_solve(solve_lp(c, start=start, **rows), base), kind
            kinds[kind] += 1
        # the optimal basis for c prices -c with negative reduced costs
        cold = solve_lp(c, maximize=True, **rows)
        warm = solve_lp(c, maximize=True, start=base.basis, **rows)
        if np.any(base.x != cold.x):
            assert _same_solve(warm, cold)
            kinds["dual infeasible"] += 1
    assert min(kinds.values()) >= 30, kinds
    # distinct columns that are linearly dependent: B is singular
    rows = dict(A_ub=[[1.0, 1.0], [2.0, 2.0]], b_ub=[1.0, 3.0])
    cold = solve_lp([-1.0, -2.0], **rows)
    warm = solve_lp([-1.0, -2.0], start=np.array([0, 1]), **rows)
    assert cold.status == OPTIMAL and _same_solve(warm, cold)
