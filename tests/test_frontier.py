"""Boundary sweeps, efficient frontiers, detectors and mean-risk problems."""
import math

import numpy as np
import pytest

from conftest import random_market
import meanrisk.frontier as frontier
from meanrisk import (LossFunction, LPError, Market, RandVar, RiskSpec,
                      bounded_tail_profile, check_classical_arbitrage,
                      classify_sensitivity, detect_arbitrage,
                      efficient_frontier, evaluate, excess_return,
                      general_profile, lses_profile, mean_rho_solve,
                      optimal_boundary, portfolio_slice, recession_ball_min,
                      recession_efficient_frontier, rho_inf_nu, rho_nu,
                      step_profile, table_profile)
from meanrisk.fixtures import (IRREGULAR_SPOT_VALUES, boundary_norm_market,
                               boundary_norm_profile, irregular_boundary)

BINOMIAL = boundary_norm_market()
EXP = LossFunction.exp()
PWL = LossFunction.pwl((0.5, 2.0), (0.0,))

TRINOMIAL = Market.from_excess([0.25, 0.25, 0.5], 0.0,
                               [[0.3, -0.1], [-0.2, 0.25], [0.1, -0.2]])


def shortfall_specs():
    """LSES and adjusted ES whose profiles are constant / affine in 1/x."""
    return [RiskSpec.lses_at(0.3),
            RiskSpec.adjusted(lses_profile(0.5)),
            RiskSpec.adjusted(table_profile([(0.3, 2.0), (1.0, 0.0)])),
            RiskSpec.adjusted(table_profile([(0.2, 3.0), (0.5, 1.0),
                                             (1.0, 0.0)])),
            RiskSpec.adjusted(bounded_tail_profile(0.8, 0.3))]


def suite_specs():
    return [RiskSpec.es_at(0.3), RiskSpec.es_at(0.75),
            RiskSpec.lses_at(0.3),
            RiskSpec.adjusted(step_profile(0.4)),
            RiskSpec.adjusted(bounded_tail_profile(2.0, 0.3)),
            RiskSpec.adjusted(general_profile(
                lambda x: 1.0 / (np.asarray(x) - 0.4) - 1.0 / 0.6, 0.4, True)),
            RiskSpec.oce_with(EXP),
            RiskSpec.sr_with(PWL)]


class TestRhoNu:
    def test_point_slice_binomial(self):
        value, pi = rho_nu(RiskSpec.es_at(0.5), BINOMIAL, 0.25)
        assert value == pytest.approx(0.5)
        assert np.allclose(pi, [1.0])

    def test_zero_return_is_acceptable(self):
        for spec in (RiskSpec.es_at(0.5), RiskSpec.lses_at(0.4),
                     RiskSpec.oce_with(EXP)):
            value, _ = rho_nu(spec, TRINOMIAL, 0.0)
            assert value <= 1e-12

    def test_var_unsupported(self):
        with pytest.raises(ValueError):
            rho_nu(RiskSpec.var_at(0.3), TRINOMIAL, 0.1)

    def test_matches_brute_slice_scan(self, rng):
        sl = portfolio_slice(TRINOMIAL, 0.3)

        def on_slice(spec, t):
            return evaluate(spec, RandVar(
                TRINOMIAL.space, TRINOMIAL.excess @ sl.point(np.array([t]))))

        for spec in (RiskSpec.es_at(0.4), RiskSpec.lses_at(0.3),
                     RiskSpec.adjusted(step_profile(0.5)),
                     RiskSpec.adjusted(bounded_tail_profile(1.5, 0.4)),
                     RiskSpec.oce_with(EXP), RiskSpec.oce_with(PWL),
                     RiskSpec.sr_with(PWL), RiskSpec.sr_with(EXP),
                     RiskSpec.wc(), RiskSpec.ew_with(PWL),
                     RiskSpec.ew_with(EXP)):
            value, pi = rho_nu(spec, TRINOMIAL, 0.3)
            coarse = np.linspace(-25.0, 25.0, 2001)
            vals = [on_slice(spec, t) for t in coarse]
            k = int(np.argmin(vals))
            fine = np.linspace(coarse[max(k - 1, 0)],
                               coarse[min(k + 1, coarse.size - 1)], 2001)
            brute = min(min(vals), min(on_slice(spec, t) for t in fine))
            assert value <= brute + 1e-7, spec.label()
            assert value >= brute - 1e-6, spec.label()
            achieved = evaluate(spec, RandVar(TRINOMIAL.space,
                                              TRINOMIAL.excess @ pi))
            assert achieved == pytest.approx(value, abs=1e-6), spec.label()

    def test_shortfall_lp_matches_cutting_planes(self):
        for n in (3, 4, 6, 12, 20):
            for seed in range(2):
                local = np.random.default_rng(50 * n + seed)
                m = random_market(local, n=n, d=min(3, n - 1),
                                  arbitrage_free=True)
                for spec in shortfall_specs():
                    for nu in (0.0, 0.1, 0.3):
                        lp_val, pi = rho_nu(spec, m, nu)
                        par = frontier._slice_param(m, nu)
                        kel_val, _ = frontier._kelley_min(
                            frontier._sup_es_oracle(par, m.space, spec),
                            par.C.shape[1])
                        tag = (spec.label(), n, seed, nu)
                        assert lp_val == pytest.approx(
                            kel_val, rel=1e-7, abs=1e-12), tag
                        assert evaluate(spec, excess_return(m, pi)) == \
                            pytest.approx(lp_val, rel=1e-9, abs=1e-12), tag

    def test_large_nu_stays_under_the_recession_slope(self):
        # rho_t / t increases to rho_inf_1 and never passes it
        rng = np.random.default_rng(1)
        w = rng.uniform(0.2, 1.0, 5)
        p = w / w.sum()
        x = rng.normal(0.0, 1.0, (5, 2))
        x = x - p @ x
        x = 0.03 + 0.4 * x / np.sqrt(p @ x ** 2)
        m = Market.from_excess(p, 0.0, x)
        for spec in shortfall_specs():
            r1 = rho_inf_nu(spec, m, 1.0)
            seq = [rho_nu(spec, m, 4.0 ** k)[0] / 4.0 ** k
                   for k in range(11)]
            assert max(seq) <= r1 + 1e-7, spec.label()
            assert abs(seq[-1] - r1) <= 1e-5, spec.label()

    def test_shortfall_sweep_is_one_lp_per_slice(self, monkeypatch):
        m = random_market(np.random.default_rng(8), n=20, d=3,
                          arbitrage_free=True)
        lps = counting(monkeypatch, "solve_lp")
        per_slice = []
        inner = frontier.rho_nu

        def rho_nu_counted(spec, market, nu):
            before = len(lps)
            out = inner(spec, market, nu)
            per_slice.append(len(lps) - before)
            return out

        monkeypatch.setattr(frontier, "rho_nu", rho_nu_counted)
        fr = optimal_boundary(RiskSpec.lses_at(0.5), m, 0.2, 11)
        assert fr.errors == [] and len(per_slice) >= 11
        assert per_slice == [1] * len(per_slice)

    def test_es_slice_is_the_plain_shortfall_lp(self, monkeypatch):
        # variables (theta, m, u >= 0): min m + E[u]/alpha, u >= -X - m
        m = random_market(np.random.default_rng(9), n=6, d=3)
        seen = []
        inner = frontier.solve_lp

        def spy(c, **kwargs):
            seen.append((c, kwargs))
            return inner(c, **kwargs)

        monkeypatch.setattr(frontier, "solve_lp", spy)
        rho_nu(RiskSpec.es_at(0.3), m, 0.2)
        (c, kw), = seen
        par = frontier._slice_param(m, 0.2)
        n, q = par.C.shape
        assert np.array_equal(c, np.concatenate([np.zeros(q), [1.0],
                                                 m.space.probs / 0.3]))
        assert np.array_equal(kw["A_ub"], np.hstack(
            [-par.C, -np.ones((n, 1)), -np.eye(n)]))
        assert np.array_equal(kw["b_ub"], par.x0)
        assert np.array_equal(kw["lower"], np.concatenate(
            [np.full(q, -np.inf), [-np.inf], np.zeros(n)]))
        assert np.array_equal(kw["upper"], np.full(q + 1 + n, np.inf))

    def test_es_slice_pivot_count(self, monkeypatch):
        # Dantzig pricing from the slack basis takes 88 pivots on this
        # 150-atom slice LP; Bland's rule from an all-artificial basis
        # takes 421, which the bound rejects
        m = random_market(np.random.default_rng(0), n=150, d=2)
        seen = []
        inner = frontier.solve_lp

        def spy(c, **kwargs):
            seen.append(inner(c, **kwargs))
            return seen[-1]

        monkeypatch.setattr(frontier, "solve_lp", spy)
        rho_nu(RiskSpec.es_at(0.1), m, 0.1)
        (res,) = seen
        assert 0 < res.pivots <= 120

    def test_es_boundary_homogeneous(self):
        rho1 = rho_nu(RiskSpec.es_at(0.4), TRINOMIAL, 1.0)[0]
        for nu in (0.3, 0.7, 2.0):
            assert rho_nu(RiskSpec.es_at(0.4), TRINOMIAL, nu)[0] == \
                pytest.approx(nu * rho1, abs=1e-8)


class TestRecessionBoundary:
    def test_binomial_es_values(self):
        # the single portfolio with unit return is pi = 4, X = (4, -2)
        assert rho_inf_nu(RiskSpec.es_at(0.8), BINOMIAL, 1.0) == \
            pytest.approx(-0.25)
        assert rho_inf_nu(RiskSpec.es_at(0.5), BINOMIAL, 1.0) == \
            pytest.approx(2.0)

    def test_majorant_over_boundary(self, rng):
        for spec in (RiskSpec.lses_at(0.3), RiskSpec.oce_with(PWL),
                     RiskSpec.sr_with(PWL)):
            r1 = rho_inf_nu(spec, TRINOMIAL, 1.0)
            for nu in (0.2, 0.6, 1.4):
                assert nu * r1 >= rho_nu(spec, TRINOMIAL, nu)[0] - 1e-8

    def test_ball_minimum_certificate(self):
        value, pi = recession_ball_min(RiskSpec.es_at(0.8), BINOMIAL)
        assert value == pytest.approx(-0.0625)
        X = RandVar(BINOMIAL.space, BINOMIAL.excess @ pi)
        assert evaluate(RiskSpec.es_at(0.8), X) < 0

    def test_point_slice_equals_recession_value(self, rng):
        # d = 1 slices are single portfolios, so the dualised minimax LP must
        # reproduce the direct recession evaluation there
        from meanrisk import recession_value
        for seed in range(15):
            local = np.random.default_rng(400 + seed)
            m = random_market(local, n=int(local.integers(2, 7)), d=1)
            sl = portfolio_slice(m, 0.8)
            X = RandVar(m.space, m.excess @ sl.particular)
            for spec in (RiskSpec.es_at(0.35), RiskSpec.lses_at(0.4),
                         RiskSpec.adjusted(step_profile(0.3)),
                         RiskSpec.oce_with(PWL), RiskSpec.sr_with(PWL),
                         RiskSpec.oce_with(EXP), RiskSpec.ew_with(PWL),
                         RiskSpec.ew_with(EXP)):
                assert rho_inf_nu(spec, m, 0.8) == pytest.approx(
                    recession_value(spec, X), abs=1e-8), spec.label()

    def test_ball_minimum_achieved_and_not_beaten(self, rng):
        from meanrisk import recession_value
        for seed in range(10):
            local = np.random.default_rng(900 + seed)
            m = random_market(local, n=4, d=2)
            for spec in (RiskSpec.es_at(0.4), RiskSpec.oce_with(PWL),
                         RiskSpec.sr_with(PWL), RiskSpec.lses_at(0.5)):
                value, pi = recession_ball_min(spec, m)
                X = RandVar(m.space, m.excess @ pi)
                assert recession_value(spec, X) == pytest.approx(value,
                                                                 abs=1e-7)
                # sampled l1-sphere directions cannot beat the LP minimum
                for theta in np.linspace(0, 2 * np.pi, 41):
                    w = np.array([np.cos(theta), np.sin(theta)])
                    w = w / np.sum(np.abs(w))
                    Xi = RandVar(m.space, m.excess @ w)
                    assert recession_value(spec, Xi) >= value - 1e-8


class TestOptimalBoundary:
    def test_star_shaped_and_majorant(self):
        for spec in (RiskSpec.lses_at(0.3), RiskSpec.oce_with(EXP),
                     RiskSpec.sr_with(PWL)):
            fr = optimal_boundary(spec, TRINOMIAL, 2.0, 9)
            values = fr.rho_values
            grid = fr.nu_grid
            # rho_{2 nu} >= 2 rho_nu on grid pairs
            for i, nu in enumerate(grid):
                j = np.where(np.isclose(grid, 2 * nu))[0]
                if j.size:
                    assert values[j[0]] >= 2 * values[i] - 1e-7
            assert np.all(fr.rho_inf_values() >= values - 1e-7)

    def test_convex_midpoint_on_grid(self):
        fr = optimal_boundary(RiskSpec.lses_at(0.3), TRINOMIAL, 1.5, 13)
        v = fr.rho_values
        assert np.all(v[1:-1] <= 0.5 * (v[:-2] + v[2:]) + 1e-8)

    def test_positive_regime_shape(self):
        fr = optimal_boundary(RiskSpec.lses_at(0.3), TRINOMIAL, 2.0, 17)
        assert fr.regime == "POSITIVE"
        k = int(np.argmin(fr.rho_values))
        after = fr.rho_values[k:]
        assert np.all(np.diff(after) >= -1e-9)
        assert fr.rho_min <= 0.0
        assert fr.nu_min < math.inf

    def test_negative_regime_strictly_decreasing(self):
        fr = optimal_boundary(RiskSpec.es_at(0.8), BINOMIAL, 2.0, 9)
        assert fr.regime == "NEGATIVE"
        assert np.all(np.diff(fr.rho_values) < 0)
        assert fr.nu_min == math.inf and fr.rho_min == -math.inf


def homogeneous_specs():
    return [RiskSpec.es_at(0.3), RiskSpec.wc(),
            RiskSpec.adjusted(step_profile(0.4)),
            RiskSpec.sr_with(PWL), RiskSpec.oce_with(PWL)]


def sweep_markets():
    markets = [TRINOMIAL, BINOMIAL]
    for seed in range(20):
        local = np.random.default_rng(700 + seed)
        markets.append(random_market(local))
    return markets


def per_point(monkeypatch, fn, *args):
    """fn(*args) with every family treated as non-homogeneous."""
    with monkeypatch.context() as mp:
        mp.setattr(RiskSpec, "positively_homogeneous",
                   property(lambda self: False))
        return fn(*args)


def counting(monkeypatch, name):
    """Wrap frontier.<name>; the returned list gets one entry per call
    (the nu of each rho_nu call)."""
    seen = []
    inner = getattr(frontier, name)

    def wrapper(*args, **kwargs):
        seen.append(args[2] if name == "rho_nu" else None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(frontier, name, wrapper)
    return seen


class TestHomogeneousBoundary:
    def test_sweep_matches_per_point_scan(self, monkeypatch):
        regimes, kinds = set(), set()
        for m in sweep_markets():
            arbitrage = check_classical_arbitrage(m) is not None
            kinds.add(arbitrage)
            for spec in homogeneous_specs():
                fr = optimal_boundary(spec, m, 1.5, 7)
                ref = per_point(monkeypatch, optimal_boundary, spec, m, 1.5, 7)
                tag = (spec.label(), m.space.n, arbitrage)
                regimes.add(fr.regime)
                assert fr.regime == ref.regime, tag
                assert fr.rho_inf_1 == ref.rho_inf_1, tag
                inf = np.isinf(ref.rho_values)
                assert np.array_equal(np.isinf(fr.rho_values), inf), tag
                assert np.array_equal(fr.rho_values[inf],
                                      ref.rho_values[inf]), tag
                assert np.allclose(fr.rho_values[~inf], ref.rho_values[~inf],
                                   rtol=1e-9, atol=1e-12), tag
                assert fr.nu_min == ref.nu_min, tag
                assert fr.rho_min == pytest.approx(ref.rho_min, rel=1e-9,
                                                   abs=1e-12), tag
                for nu, value, pi, ref_pi in zip(fr.nu_grid, fr.rho_values,
                                                 fr.optimal_portfolios,
                                                 ref.optimal_portfolios):
                    if math.isinf(value):
                        assert np.array_equal(pi, ref_pi), tag
                        continue
                    X = excess_return(m, pi)
                    assert X.mean() == pytest.approx(nu, abs=1e-9), tag
                    assert evaluate(spec, X) == pytest.approx(
                        value, rel=1e-9, abs=1e-9), tag
        assert {"POSITIVE", "NEGATIVE"} <= regimes and kinds == {True, False}

    def test_weighted_loss_slices_scale(self):
        # ew has no recession boundary to sweep against, but its slices scale
        spec = RiskSpec.ew_with(PWL)
        for m in sweep_markets():
            rho_1 = rho_nu(spec, m, 1.0)[0]
            for nu in (0.25, 1.5):
                assert rho_nu(spec, m, nu)[0] == pytest.approx(
                    nu * rho_1, rel=1e-9, abs=1e-12)

    def test_es_sweep_is_three_lps_and_no_threads(self, monkeypatch):
        m = random_market(np.random.default_rng(5), n=20, d=3,
                          arbitrage_free=True)
        lps = counting(monkeypatch, "solve_lp")
        fr = optimal_boundary(RiskSpec.es_at(0.1), m, 0.2, 21)
        assert fr.regime == "POSITIVE" and fr.errors == []
        assert len(lps) <= 3

    def test_failed_unit_slice_recorded_once(self, monkeypatch):
        inner = frontier.rho_nu

        def failing(spec, m, nu):
            if nu == 1.0:
                raise LPError("slice LP ended with status stalled")
            return inner(spec, m, nu)

        monkeypatch.setattr(frontier, "rho_nu", failing)
        fr = optimal_boundary(RiskSpec.es_at(0.4), TRINOMIAL, 1.0, 5)
        assert len(fr.errors) == 1 and fr.errors[0].startswith("nu=1:")
        assert math.isfinite(fr.rho_values[0])
        assert np.all(np.isnan(fr.rho_values[1:]))
        assert all(pi is None for pi in fr.optimal_portfolios[1:])

    def test_all_slices_failing_gives_nan_minimum(self, monkeypatch):
        def failing(spec, m, nu):
            raise LPError("slice LP ended with status stalled")

        monkeypatch.setattr(frontier, "rho_nu", failing)
        for spec, errors in ((RiskSpec.es_at(0.4), 2),
                             (RiskSpec.lses_at(0.3), 5)):
            fr = optimal_boundary(spec, TRINOMIAL, 1.0, 5)
            assert np.all(np.isnan(fr.rho_values))
            assert math.isnan(fr.nu_min) and math.isnan(fr.rho_min)
            assert len(fr.errors) == errors
            assert fr.regime == "POSITIVE"


class TestEfficientFrontier:
    def test_binomial_es_cases(self):
        fr = optimal_boundary(RiskSpec.es_at(0.5), BINOMIAL, 1.0, 5)
        eff = efficient_frontier(RiskSpec.es_at(0.5), BINOMIAL, fr)
        assert not eff.empty and eff.nu_values.size > 0
        fr = optimal_boundary(RiskSpec.es_at(0.8), BINOMIAL, 1.0, 5)
        eff = efficient_frontier(RiskSpec.es_at(0.8), BINOMIAL, fr)
        assert eff.empty

    def test_worst_case_frontier_nonempty_when_arbitrage_free(self):
        rep = detect_arbitrage(RiskSpec.wc(), TRINOMIAL)
        assert rep.rho_inf_1 > 0
        assert recession_efficient_frontier(rep.rho_inf_1)[0] == "ray"

    def test_recession_three_cases(self):
        assert recession_efficient_frontier(-0.5) == ("empty",)
        assert recession_efficient_frontier(0.0) == ("empty",)
        assert recession_efficient_frontier(2.0) == ("ray", 2.0)
        assert recession_efficient_frontier(math.inf) == ("origin",)


class TestDetectors:
    def test_binomial_es_half_no_arbitrage(self):
        rep = detect_arbitrage(RiskSpec.es_at(0.5), BINOMIAL)
        assert not rep.rho_arbitrage and not rep.strong_rho_arbitrage
        assert rep.errors == []
        assert rep.interior_witness is not None
        assert np.allclose(rep.interior_witness.z, [2 / 3, 4 / 3])
        assert rep.interior_witness.sup_norm < 2.0

    def test_binomial_es_tight_both_arbitrages(self):
        rep = detect_arbitrage(RiskSpec.es_at(0.8), BINOMIAL)
        assert rep.rho_arbitrage and rep.strong_rho_arbitrage
        assert rep.strong_recession_arbitrage
        assert rep.descent_ray is not None
        assert rep.errors == []

    def test_remark_fixture_strong_without_recession(self):
        spec = RiskSpec.adjusted(boundary_norm_profile())
        rep = detect_arbitrage(spec, BINOMIAL)
        assert rep.rho_arbitrage
        assert rep.strong_rho_arbitrage
        assert not rep.strong_recession_arbitrage
        assert abs(rep.rho_inf_1) <= 1e-9
        assert abs(rep.ball_min) <= 1e-9
        assert rep.errors == []

    def test_bounded_profile_on_boundary_market_not_strong(self):
        # same bound but bounded profile: the closed set contains the density
        g = general_profile(lambda x: np.minimum(3.0, 1.0 /
                                                 (np.asarray(x) - 0.75 + 0.25)),
                            0.75, False)
        spec = RiskSpec.adjusted(step_profile(0.75))
        rep = detect_arbitrage(spec, BINOMIAL)
        assert rep.rho_arbitrage          # interior still empty at the bound
        assert not rep.strong_rho_arbitrage
        assert rep.closure_witness is not None
        del g

    def test_classical_implies_rho_arbitrage(self, rng):
        m = random_market(rng, n=4, d=2, arbitrage_free=False)
        assert check_classical_arbitrage(m) is not None
        for spec in suite_specs():
            rep = detect_arbitrage(spec, m)
            assert rep.rho_arbitrage, spec.label()
            assert rep.errors == [], spec.label()

    def test_strong_sensitivity_gives_positive_slope(self, rng):
        # arbitrage-free + strongly sensitive => positive recession boundary
        for seed in range(12):
            local = np.random.default_rng(seed)
            n = int(local.integers(3, 6))
            m = random_market(local, n=n,
                              d=int(local.integers(1, min(4, n))),
                              arbitrage_free=True)
            for spec in suite_specs():
                if classify_sensitivity(spec).strong:
                    assert rho_inf_nu(spec, m, 1.0) > 0, spec.label()

    def test_equivalence_mini_suite(self):
        disagreements = 0
        for seed in range(25):
            local = np.random.default_rng(1000 + seed)
            n = int(local.integers(2, 7))
            m = random_market(local, n=n,
                              d=int(local.integers(1, min(4, n))))
            for spec in suite_specs():
                rep = detect_arbitrage(spec, m)
                if rep.errors:
                    disagreements += 1
                if rep.strong_rho_arbitrage and not rep.rho_arbitrage:
                    disagreements += 1
        assert disagreements == 0


class TestMeanRisk:
    def test_suitable_family_always_solvable(self, rng):
        for seed in range(6):
            local = np.random.default_rng(seed)
            m = random_market(local, n=4, d=2, arbitrage_free=True)
            for level in (0.0, 0.4, 1.3):
                sol = mean_rho_solve(RiskSpec.lses_at(0.4), m,
                                     "MIN_RISK", level)
                assert sol.status == "optimal"
                sol = mean_rho_solve(RiskSpec.lses_at(0.4), m,
                                     "MAX_RETURN", level)
                assert sol.status == "optimal"
                value = rho_nu(RiskSpec.lses_at(0.4), m, sol.nu)[0]
                assert value <= level + 1e-7

    def test_min_risk_at_zero_is_nonpositive(self):
        sol = mean_rho_solve(RiskSpec.lses_at(0.3), TRINOMIAL, "MIN_RISK", 0.0)
        assert sol.status == "optimal" and sol.value <= 1e-12

    def test_max_return_unbounded_under_arbitrage(self):
        sol = mean_rho_solve(RiskSpec.es_at(0.8), BINOMIAL, "MAX_RETURN", 0.5)
        assert sol.status == "unbounded"

    def test_min_risk_matches_boundary(self):
        spec = RiskSpec.lses_at(0.3)
        sol = mean_rho_solve(spec, TRINOMIAL, "MIN_RISK", 1.0)
        # at levels past the boundary minimiser the constraint binds
        assert sol.nu == pytest.approx(1.0, abs=1e-6)
        assert sol.value == pytest.approx(rho_nu(spec, TRINOMIAL, 1.0)[0],
                                          abs=1e-8)

    def test_homogeneous_min_risk_is_the_slice(self, monkeypatch):
        markets = [TRINOMIAL] + [
            random_market(np.random.default_rng(seed), n=4, d=2,
                          arbitrage_free=True) for seed in range(4)]
        for m in markets:
            for spec in homogeneous_specs():
                if rho_inf_nu(spec, m, 1.0) <= frontier.SIGN_TOL:
                    continue
                for level in (0.0, 0.4, 1.3):
                    seen = counting(monkeypatch, "rho_nu")
                    sol = mean_rho_solve(spec, m, "MIN_RISK", level)
                    monkeypatch.undo()
                    value, pi = rho_nu(spec, m, level)
                    assert seen == [level]
                    assert sol.status == "optimal" and sol.nu == level
                    assert sol.value == value
                    assert np.array_equal(sol.portfolio, pi)
        ref = per_point(monkeypatch, mean_rho_solve, RiskSpec.es_at(0.4),
                        TRINOMIAL, "MIN_RISK", 0.7)
        sol = mean_rho_solve(RiskSpec.es_at(0.4), TRINOMIAL, "MIN_RISK", 0.7)
        assert sol.value == pytest.approx(ref.value, rel=1e-9)
        assert sol.nu == pytest.approx(ref.nu, abs=1e-8)

    def test_homogeneous_max_return_spends_the_budget(self, monkeypatch):
        markets = [TRINOMIAL, BINOMIAL] + [
            random_market(np.random.default_rng(seed), n=4, d=2)
            for seed in range(6)]
        solved = 0
        for m in markets:
            for spec in homogeneous_specs():
                slope = rho_inf_nu(spec, m, 1.0)
                for level in (0.0, 0.3, 2.0):
                    seen = counting(monkeypatch, "rho_nu")
                    sol = mean_rho_solve(spec, m, "MAX_RETURN", level)
                    monkeypatch.undo()
                    if slope <= frontier.SIGN_TOL:
                        assert sol.status == "unbounded"
                        continue
                    solved += 1
                    assert seen == [1.0]
                    assert sol.status == "optimal"
                    X = excess_return(m, sol.portfolio)
                    assert X.mean() == pytest.approx(sol.nu, rel=1e-9,
                                                     abs=1e-12)
                    assert evaluate(spec, X) == pytest.approx(level, rel=1e-9,
                                                              abs=1e-12)
        assert solved > 0
        ref = per_point(monkeypatch, mean_rho_solve, RiskSpec.es_at(0.4),
                        TRINOMIAL, "MAX_RETURN", 0.3)
        sol = mean_rho_solve(RiskSpec.es_at(0.4), TRINOMIAL, "MAX_RETURN", 0.3)
        assert sol.nu == pytest.approx(ref.nu, rel=1e-8)

    def test_general_search_solves_each_slice_once(self, monkeypatch):
        m = random_market(np.random.default_rng(3), n=4, d=2,
                          arbitrage_free=True)
        for market, spec, level in ((TRINOMIAL, RiskSpec.lses_at(0.3), 1.0),
                                    (TRINOMIAL, RiskSpec.lses_at(0.3), 0.0),
                                    (m, RiskSpec.oce_with(EXP), 0.2)):
            for mode in ("MIN_RISK", "MAX_RETURN"):
                seen = counting(monkeypatch, "rho_nu")
                sol = mean_rho_solve(spec, market, mode, level)
                monkeypatch.undo()
                assert sol.status == "optimal"
                assert len(seen) > 10
                assert len(set(seen)) == len(seen), (spec.label(), mode)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            mean_rho_solve(RiskSpec.es_at(0.5), TRINOMIAL, "MIN_RISK", -1.0)


class TestIrregularBoundaryFixture:
    def test_spot_values_exact(self):
        for nu, expected in IRREGULAR_SPOT_VALUES.items():
            assert irregular_boundary(nu) == pytest.approx(expected,
                                                           abs=1e-12)

    def test_star_shaped_on_grid(self):
        nus = np.linspace(0.01, 30.0, 500)
        f = irregular_boundary
        for lam in (1.5, 2.0):
            assert np.all(f(lam * nus) >= lam * f(nus) - 1e-9)
