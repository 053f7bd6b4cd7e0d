"""Boundary sweeps, efficient frontiers, detectors and mean-risk problems."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_market
import meanrisk.frontier as frontier
from meanrisk import (FiniteSpace, LossFunction, LPError, Market, RandVar,
                      RiskSpec, bounded_tail_profile,
                      check_classical_arbitrage, classify_sensitivity,
                      detect_arbitrage, efficient_frontier, evaluate,
                      excess_return, general_profile, lses_profile,
                      mean_rho_solve, optimal_boundary, portfolio_slice,
                      price_bounds, recession_ball_min,
                      recession_efficient_frontier, rho_inf_nu, rho_nu,
                      step_profile, table_profile)
from meanrisk.dual import recession_value
from meanrisk.fixtures import (IRREGULAR_SPOT_VALUES, boundary_norm_market,
                               boundary_norm_profile, irregular_boundary)
from meanrisk.io import parse_measure
from meanrisk.simplex import UNBOUNDED, LPResult

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


def solved_lps(monkeypatch):
    """Spy on frontier.solve_lp; the returned list gets each LPResult."""
    seen = []
    inner = frontier.solve_lp

    def spy(c, **kwargs):
        seen.append(inner(c, **kwargs))
        return seen[-1]

    monkeypatch.setattr(frontier, "solve_lp", spy)
    return seen


def solved_paths(monkeypatch):
    """Spy on frontier.solve_lp_path; the returned list gets each call's
    list of LPResults, one per rhs column."""
    seen = []
    inner = frontier.solve_lp_path

    def spy(*args, **kwargs):
        seen.append(inner(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(frontier, "solve_lp_path", spy)
    return seen


def failing_paths(monkeypatch):
    """Make every frontier.solve_lp_path call raise LPError."""
    def failing(*args, **kwargs):
        raise LPError("slice LP ended with status stalled")

    monkeypatch.setattr(frontier, "solve_lp_path", failing)


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

    def test_exp_slices_match_a_brute_scan(self):
        # Newton over the slice's null coordinate from the particular
        # solution nu e_j / g_j stalled on these markets (48.2, 63.9, 70.5)
        for seed in (4, 131, 193):
            m = random_market(np.random.default_rng(seed), n=6, d=2,
                              arbitrage_free=True)
            sl = portfolio_slice(m, 0.2)
            for spec in (RiskSpec.oce_with(EXP), RiskSpec.ew_with(EXP)):
                lo, hi = -200.0, 200.0
                for _ in range(4):         # zoom in on the grid argmin
                    ts = np.linspace(lo, hi, 401)
                    vals = [evaluate(spec, excess_return(m, sl.point([t])))
                            for t in ts]
                    k = int(np.argmin(vals))
                    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, 400)]
                brute = min(vals)
                value, pi = rho_nu(spec, m, 0.2)
                tag = (spec.label(), seed)
                assert value == pytest.approx(brute, abs=1e-6), tag
                assert value <= brute + 1e-12, tag
                X = excess_return(m, pi)
                assert X.mean() == pytest.approx(0.2, abs=1e-12), tag
                assert evaluate(spec, X) == pytest.approx(value, abs=1e-9), tag

    def test_shortfall_lp_matches_cutting_planes(self):
        for n in (3, 4, 6, 12, 20):
            for seed in range(2):
                local = np.random.default_rng(50 * n + seed)
                m = random_market(local, n=n, d=min(3, n - 1),
                                  arbitrage_free=True)
                for spec in shortfall_specs():
                    for nu in (0.0, 0.1, 0.3):
                        lp_val, pi = rho_nu(spec, m, nu)
                        par = frontier._pi_param(m, nu, nu, at=nu)
                        kel_val, _ = frontier._kelley_min(
                            frontier._sup_es_oracle(par, m.space, spec),
                            par, m.space.probs)
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
        # the general profile runs Kelley, whose minimiser at t = 4^10
        # needs |theta| ~ 2.9e7, past a box capped at 2^24 in absolute terms
        general = RiskSpec.adjusted(general_profile(
            lambda x: 0.3 * (1.0 / np.asarray(x) - 1.0), 0.0, True, 0.3))
        for spec in shortfall_specs() + [general]:
            r1 = rho_inf_nu(spec, m, 1.0)
            seq = [rho_nu(spec, m, 4.0 ** k)[0] / 4.0 ** k
                   for k in range(11)]
            assert max(seq) <= r1 + 1e-7, spec.label()
            assert abs(seq[-1] - r1) <= 1e-5, spec.label()

    def test_shortfall_sweep_is_one_lp_per_slice(self, monkeypatch):
        # the sweep's slice LPs are the columns of one path, each node's
        # continued from the last by dual simplex pivots, and in the
        # positive regime the band 0 <= E[X_pi] <= nu_max is the last
        m = random_market(np.random.default_rng(8), n=20, d=3,
                          arbitrage_free=True)
        paths = solved_paths(monkeypatch)
        slices = counting(monkeypatch, "rho_nu")
        lps = counting(monkeypatch, "solve_lp")
        fr = optimal_boundary(RiskSpec.lses_at(0.5), m, 0.2, 11)
        (nodes,) = paths                   # one LP per node and the band
        assert fr.errors == [] and fr.regime == "POSITIVE"
        assert len(nodes) == fr.nu_grid.size + 1 >= 12
        assert len(lps) == 1               # the recession LP alone
        assert slices == []                # no node re-solved on its own
        assert all(res.status == "optimal" for res in nodes)
        assert sum(res.dual_pivots for res in nodes) > 0

    def test_es_slice_is_the_plain_shortfall_lp(self, monkeypatch):
        # variables (theta, m, u >= 0): min m + E[u]/alpha, u >= -X - m,
        # with X = x0 + excess theta from the start point x0 = excess
        # nu g/|g|^2, m lifted by s = max(0, -min x0) so that v = 0 is
        # feasible, and the return rows -g.theta <= 0, g.theta <= 0
        m = random_market(np.random.default_rng(9), n=6, d=3)
        seen = []
        inner = frontier.solve_lp

        def spy(c, **kwargs):
            seen.append((c, kwargs))
            return inner(c, **kwargs)

        monkeypatch.setattr(frontier, "solve_lp", spy)
        rho_nu(RiskSpec.es_at(0.3), m, 0.2)
        (c, kw), = seen
        n, q = m.excess.shape
        g = m.mean_excess
        x0 = m.excess @ (0.2 * g / (g @ g))
        assert np.array_equal(c, np.concatenate([np.zeros(q), [1.0],
                                                 m.space.probs / 0.3]))
        assert np.array_equal(kw["A_ub"], np.vstack([
            np.hstack([-m.excess, -np.ones((n, 1)), -np.eye(n)]),
            np.hstack([np.vstack([-g, g]), np.zeros((2, 1 + n))])]))
        lift = max(0.0, -x0.min())
        assert lift > 0.0 and kw["b_ub"].min() == 0.0
        assert np.array_equal(kw["b_ub"], np.append(x0 + lift, [0.0, 0.0]))
        assert np.array_equal(kw["lower"], np.concatenate(
            [np.full(q, -np.inf), [-np.inf], np.zeros(n)]))
        assert np.array_equal(kw["upper"], np.full(q + 1 + n, np.inf))

    def test_es_slice_pivot_count(self, monkeypatch):
        # from the lifted slack basis the 150-atom slice LP takes 15-19
        # pivots on seeds 0-3 and no phase 1; with an artificial on every
        # atom below -m it took 79-88
        seen = solved_lps(monkeypatch)
        for seed in range(4):
            m = random_market(np.random.default_rng(seed), n=150, d=2)
            seen.clear()
            rho_nu(RiskSpec.es_at(0.1), m, 0.1)
            (res,) = seen
            assert res.phase1_pivots == 0 and 0 < res.pivots <= 30, seed

    def test_pwl_slice_pivot_count(self, monkeypatch):
        # the hinge LP for sr:l=pwl(0.5,0,2) has one row per atom and takes
        # 17-22 pivots on seeds 0-3; the epigraph LP (two rows and a split
        # column per atom) took 92-121
        seen = solved_lps(monkeypatch)
        for seed in range(4):
            m = random_market(np.random.default_rng(seed), n=40, d=3)
            seen.clear()
            rho_nu(RiskSpec.sr_with(PWL), m, 0.1)
            (res,) = seen
            assert res.phase1_pivots == 0 and 0 < res.pivots <= 40, seed

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
        # d = 1 slices are single portfolios, so the recession LP must
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


class TestPowerOneTwin:
    """power(c, 1) is c y^+, the pwl loss with slopes (0, c) kinked at 0, so
    both must give the same values, recession, classification and verdicts
    (b_l = c, not inf)."""

    @staticmethod
    def twins(fam, c):
        return (RiskSpec(fam, loss=LossFunction.power(c, 1.0)),
                RiskSpec(fam, loss=LossFunction.pwl((0.0, c), (0.0,))))

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("fam", ["oce", "ew", "sr"])
    def test_matches_pwl_twin(self, fam, c):
        from meanrisk import dual_evaluate, recession_value
        power, pwl = self.twins(fam, c)
        assert power.loss.b_l == c
        assert classify_sensitivity(power) == classify_sensitivity(pwl)
        for seed in range(6):
            local = np.random.default_rng(1500 + seed)
            n = int(local.integers(3, 8))
            m = random_market(local, n=n, d=int(local.integers(1, min(4, n))))
            X = excess_return(m, portfolio_slice(m, 0.7).particular)
            for value in (evaluate, recession_value):
                assert value(power, X) == pytest.approx(
                    value(pwl, X), rel=1e-7, abs=1e-9), (seed, value)
            assert rho_inf_nu(power, m, 1.0) == pytest.approx(
                rho_inf_nu(pwl, m, 1.0), rel=1e-9, abs=1e-12), seed
            if fam == "ew":
                continue                   # no dual representation
            assert dual_evaluate(power, X) == pytest.approx(
                dual_evaluate(pwl, X), rel=1e-9, abs=1e-12), seed
            assert dual_evaluate(power, X) == pytest.approx(
                evaluate(power, X), rel=1e-9, abs=1e-12), seed
            got, want = detect_arbitrage(power, m), detect_arbitrage(pwl, m)
            for flag in ("rho_arbitrage", "strong_rho_arbitrage",
                         "strong_recession_arbitrage", "errors"):
                assert getattr(got, flag) == getattr(want, flag), (seed, flag)

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.5])
    def test_hinge_lps_are_byte_identical(self, c, monkeypatch):
        # both losses have one hinge form, so the hinge LP is one program
        # for both, bit for bit, and the simplex solves it alike
        seen = []
        inner = frontier.solve_lp

        def spy(cost, **kwargs):
            res = inner(cost, **kwargs)
            seen.append([np.asarray(a).tobytes()
                         for a in (cost, *kwargs.values())]
                        + [res.status, repr(res.value), res.pivots,
                           res.x.tobytes()])
            return res

        monkeypatch.setattr(frontier, "solve_lp", spy)
        local = np.random.default_rng(1700)
        for _ in range(4):
            n = int(local.integers(3, 8))
            m = random_market(local, n=n, d=int(local.integers(1, min(4, n))))
            p = m.space.probs
            for par in (frontier._pi_param(m, 0.3, 0.3, at=0.3),
                        frontier._pi_param(m, 0.1, 0.4, at=0.1),
                        frontier._ball_param(m)):
                for fam in ("oce", "ew", "sr"):
                    seen.clear()
                    for spec in self.twins(fam, c):
                        frontier._pwl_family_min(par, p, fam,
                                                 spec.loss.hinges)
                    assert len(seen) == 2 and seen[0] == seen[1], fam

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("fam", ["oce", "ew", "sr"])
    def test_sweeps_match_pwl_twin(self, fam, c):
        power, pwl = self.twins(fam, c)
        assert power.positively_homogeneous == pwl.positively_homogeneous
        for seed in range(6):
            local = np.random.default_rng(1600 + seed)
            n = int(local.integers(3, 8))
            m = random_market(local, n=n, d=int(local.integers(1, min(4, n))),
                              arbitrage_free=seed % 2 == 0)
            got = optimal_boundary(power, m, 0.2, 5)
            want = optimal_boundary(pwl, m, 0.2, 5)
            np.testing.assert_allclose(got.rho_values, want.rho_values,
                                       rtol=1e-12, atol=1e-15)
            assert got.nu_min == want.nu_min and got.regime == want.regime
            for mode, level in (("MIN_RISK", 0.1), ("MAX_RETURN", 0.2)):
                a = mean_rho_solve(power, m, mode, level)
                b = mean_rho_solve(pwl, m, mode, level)
                assert a.status == b.status, (seed, mode)
                if b.status == "optimal":
                    assert (a.value, a.nu) == pytest.approx(
                        (b.value, b.nu), rel=1e-12, abs=1e-15), (seed, mode)


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

    def test_last_node_argmin_matches_a_fine_scan(self):
        # the grid argmin is the last node, nu = 0.2, while the boundary
        # minimiser lies between the last two nodes (near nu = 0.19)
        m = random_market(np.random.default_rng(246), n=6, d=2,
                          arbitrage_free=True)
        spec = RiskSpec.lses_at(0.5)
        fr = optimal_boundary(spec, m, 0.2, 11)
        assert fr.regime == "POSITIVE"
        assert int(np.argmin(fr.rho_values)) == 10
        scan = min(rho_nu(spec, m, nu)[0]
                   for nu in np.linspace(0.18, 0.2, 401))
        assert fr.rho_min <= scan + 1e-9
        assert fr.rho_min < fr.rho_values[-1] - 1e-3
        assert 0.18 < fr.nu_min < 0.2
        assert rho_nu(spec, m, fr.nu_min)[0] == pytest.approx(fr.rho_min,
                                                              abs=1e-9)

    def test_exp_end_node_minimiser(self):
        # the grid argmin is an end node while the boundary minimiser lies
        # inside the end bracket: near nu = 0.01 (seed 5), nu = 0.194 (66)
        spec = RiskSpec.oce_with(EXP)
        for seed, node, bracket in ((5, 0, (0.0, 0.02)),
                                    (66, 10, (0.18, 0.2))):
            m = random_market(np.random.default_rng(seed), n=6, d=2,
                              arbitrage_free=True)
            fr = optimal_boundary(spec, m, 0.2, 11)
            assert fr.regime == "POSITIVE" and fr.errors == [], seed
            assert int(np.argmin(fr.rho_values)) == node, seed
            scan = min(rho_nu(spec, m, nu)[0]
                       for nu in np.linspace(*bracket, 81))
            assert fr.rho_min <= scan + 1e-12, seed
            assert fr.rho_min < fr.rho_values[node] - 5e-5, seed
            assert bracket[0] < fr.nu_min < bracket[1], seed
            assert rho_nu(spec, m, fr.nu_min)[0] == pytest.approx(
                fr.rho_min, abs=1e-9), seed

    def test_rounding_ties_take_the_lowest_nu(self, monkeypatch):
        # a boundary flat at 0 up to +-1e-15 (rounding) has its minimum at
        # nu = 0, not at the node whose rounding happens to be least
        m = random_market(np.random.default_rng(3), n=6, d=2,
                          arbitrage_free=True)
        noise = np.array([0.0, 4e-16, -7e-16, 1e-15, -1e-15, 2e-16])

        def flat(market, p, log, nu):
            # the sweep's one batched Newton call: every node at once
            return noise, np.column_stack(
                [portfolio_slice(market, v).particular for v in nu])

        monkeypatch.setattr(frontier, "_newton_min", flat)
        fr = optimal_boundary(RiskSpec.ew_with(EXP), m, 0.2, 6)
        assert fr.regime == "INFINITE" and fr.errors == []
        assert np.all(np.abs(fr.rho_values) <= 1e-15)
        assert fr.nu_min == 0.0 and fr.rho_min == 0.0

    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_zero_regime_flat_boundary_has_a_minimiser(self, k):
        # the boundary is flat up to rounding, so it has a minimiser,
        # nu = 0, whatever the units and the atom order; a rule "every step
        # falls" without the tie reads nu_min = inf for some of them
        spec = RiskSpec.oce_with(PWL)
        for perm in itertools.permutations(range(3)):
            perm = list(perm)
            m = Market.from_excess(TRINOMIAL.space.probs[perm], 0.0,
                                   TRINOMIAL.excess[perm] * 10.0 ** k)
            fr = optimal_boundary(spec, m, 1.5 * 10.0 ** k, 7)
            tag = (k, perm)
            assert fr.regime == "ZERO" and fr.errors == [], tag
            assert np.ptp(fr.rho_values) <= 1e-13 * 10.0 ** k, tag
            assert fr.nu_min == 0.0, tag

    def test_negative_regime_strictly_decreasing(self):
        fr = optimal_boundary(RiskSpec.es_at(0.8), BINOMIAL, 2.0, 9)
        assert fr.regime == "NEGATIVE"
        assert np.all(np.diff(fr.rho_values) < 0)
        assert fr.nu_min == math.inf and fr.rho_min == -math.inf


def failing_unit(spec, m):
    raise LPError("slice LP ended with status stalled")


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

    def test_flat_breakpoint_takes_the_unit_slice(self, monkeypatch):
        # pwl(0.5,-1,0.5,0,2) is flat at -1: it is the loss 0.5 y on the
        # negatives and 2 y on the positives, PWL itself, so its sweep runs
        # one unit slice LP as PWL's does, with the rho values of the sweep
        # that treats it as not homogeneous (an LP and a path, before)
        flat = RiskSpec.sr_with(LossFunction.pwl((0.5, 0.5, 2.0),
                                                 (-1.0, 0.0)))
        assert flat.positively_homogeneous
        def sweep(spec, m):
            lps, paths = solved_lps(monkeypatch), solved_paths(monkeypatch)
            fr = optimal_boundary(spec, m, 0.2, 11)
            monkeypatch.undo()
            return len(lps), len(paths), fr.rho_values

        for seed in range(6):
            m = random_market(np.random.default_rng(seed), n=6, d=2,
                              arbitrage_free=True)
            lps, paths, rho = sweep(flat, m)
            assert (lps, paths) == (1, 0) == sweep(RiskSpec.sr_with(PWL),
                                                   m)[:2], seed
            ref = per_point(monkeypatch, optimal_boundary, flat, m, 0.2, 11)
            assert np.all(np.isfinite(rho)), seed
            assert np.allclose(rho, ref.rho_values, rtol=1e-12, atol=0.0), (
                seed, np.max(np.abs(rho / ref.rho_values - 1.0)))

    def test_zero_and_table_profiles_take_the_unit_slice(self):
        # adjusted-ES profiles that vanish on [beta, 1] but are not one piece
        # at beta are positively homogeneous too: their own shortfall LP over
        # the unit slice gives rho_1 and the slope rho_inf_1 = rho_1, which
        # agrees with their non-homogeneous recession measure (wc at beta = 0,
        # es at beta), and the sweep and both mean-risk modes scale it
        markets = [TRINOMIAL, BINOMIAL] + [
            random_market(np.random.default_rng(seed), n=5, d=2)
            for seed in range(4)]
        regimes = set()
        for text, other in (("adjes:g=zero", RiskSpec.wc()),
                            ("adjes:g=table(0.3,0;0.6,0;1,0)",
                             RiskSpec.es_at(0.3))):
            spec = parse_measure(text)
            assert spec.positively_homogeneous
            for m in markets:
                rho_1, pi_1 = frontier._unit_slice(spec, m)
                ref_1, ref_pi = rho_nu(spec, m, 1.0)
                assert rho_1 == ref_1 and same_portfolio(pi_1, ref_pi)
                slope = rho_inf_nu(other, m, 1.0)
                assert abs(rho_1 - slope) <= 1e-12 * (1 + abs(slope))
                fr = optimal_boundary(spec, m, 1.5, 7)
                regimes.add(fr.regime)
                assert fr.errors == [] and fr.rho_values[0] == 0.0
                assert fr.rho_inf_1 == rho_inf_nu(spec, m, 1.0) == rho_1
                for nu, value in zip(fr.nu_grid, fr.rho_values):
                    ref = rho_nu(spec, m, float(nu))[0]
                    assert value == nu * rho_1
                    assert abs(value - ref) <= 1e-12 * (1 + abs(ref))
                low = mean_rho_solve(spec, m, "MIN_RISK", 0.4)
                high = mean_rho_solve(spec, m, "MAX_RETURN", 0.4)
                if fr.rho_inf_1 <= frontier.SIGN_TOL:
                    assert low.status == high.status == "unbounded"
                    continue
                assert (low.status, low.nu, low.value) == (
                    "optimal", 0.4, 0.4 * rho_1)
                assert (high.status, high.nu, high.value) == (
                    "optimal", 0.4 / rho_1, 0.4 / rho_1)
                ref = rho_nu(spec, m, 0.4)[0]
                assert abs(low.value - ref) <= 1e-12 * (1 + abs(ref))
        assert regimes == {"POSITIVE", "NEGATIVE"}

    def test_weighted_loss_slices_scale(self):
        # ew has no recession boundary to sweep against, but its slices scale
        spec = RiskSpec.ew_with(PWL)
        for m in sweep_markets():
            rho_1 = rho_nu(spec, m, 1.0)[0]
            for nu in (0.25, 1.5):
                assert rho_nu(spec, m, nu)[0] == pytest.approx(
                    nu * rho_1, rel=1e-9, abs=1e-12)

    def test_es_sweep_is_one_lp_and_no_threads(self, monkeypatch):
        # the unit slice LP is the recession LP, and node 0 is zero
        m = random_market(np.random.default_rng(5), n=20, d=3,
                          arbitrage_free=True)
        lps = counting(monkeypatch, "solve_lp")
        fr = optimal_boundary(RiskSpec.es_at(0.1), m, 0.2, 21)
        assert fr.regime == "POSITIVE" and fr.errors == []
        assert len(lps) == 1

    def test_failed_unit_slice_recorded_once(self, monkeypatch):
        # a homogeneous sweep is its unit slice LP, so a failure of that LP
        # raises; a sweep of slices records a failed slice once
        inner = frontier.rho_nu

        def failing(spec, m, nu):
            if nu == 1.0:
                raise LPError("slice LP ended with status stalled")
            return inner(spec, m, nu)

        monkeypatch.setattr(frontier, "rho_nu", failing)
        monkeypatch.setattr(frontier, "_unit_slice", failing_unit)
        with pytest.raises(LPError, match="stalled"):
            optimal_boundary(RiskSpec.es_at(0.4), TRINOMIAL, 1.0, 5)
        failing_paths(monkeypatch)
        fr = optimal_boundary(RiskSpec.lses_at(0.3), TRINOMIAL, 1.0, 5)
        assert len(fr.errors) == 1 and fr.errors[0].startswith("nu=1:")
        assert np.all(np.isfinite(fr.rho_values[:-1]))
        assert math.isnan(fr.rho_values[-1])
        assert fr.optimal_portfolios[-1] is None

    def test_unbounded_slice_lps_are_recorded_errors(self, monkeypatch):
        # every built-in family is bounded below on a slice, so an unbounded
        # slice LP is a solver failure: a NaN row and an error, not -inf
        def unbounded(c, **kwargs):
            return LPResult(UNBOUNDED)

        monkeypatch.setattr(frontier, "solve_lp", unbounded)
        monkeypatch.setattr(frontier, "solve_lp_path", lambda c, A_ub, B_ub,
                            **kwargs: [unbounded(c)] * B_ub.shape[1])
        fr = optimal_boundary(RiskSpec.lses_at(0.3), TRINOMIAL, 1.0, 5)
        assert np.all(np.isnan(fr.rho_values))
        assert len(fr.errors) == 5
        assert all("status unbounded" in e for e in fr.errors)
        # a homogeneous sweep is its unit slice LP, whose failure raises
        with pytest.raises(LPError, match="unbounded"):
            optimal_boundary(RiskSpec.es_at(0.4), TRINOMIAL, 1.0, 5)
        with pytest.raises(LPError, match="unbounded"):
            frontier._unit_slice(RiskSpec.es_at(0.4), TRINOMIAL)

    def test_all_slices_failing_gives_nan_minimum(self, monkeypatch):
        def failing(spec, m, nu):
            raise LPError("slice LP ended with status stalled")

        monkeypatch.setattr(frontier, "rho_nu", failing)
        monkeypatch.setattr(frontier, "_unit_slice", failing_unit)
        failing_paths(monkeypatch)
        fr = optimal_boundary(RiskSpec.lses_at(0.3), TRINOMIAL, 1.0, 5)
        assert np.all(np.isnan(fr.rho_values))
        assert math.isnan(fr.nu_min) and math.isnan(fr.rho_min)
        assert len(fr.errors) == 5
        assert fr.regime == "POSITIVE"
        # a homogeneous sweep is its unit slice LP, whose failure raises
        with pytest.raises(LPError, match="stalled"):
            optimal_boundary(RiskSpec.es_at(0.4), TRINOMIAL, 1.0, 5)


def same_portfolio(pi, ref):
    """Equal bit for bit, signed zeros included (None for a failed slice)."""
    return (pi is None and ref is None) or (
        pi is not None and ref is not None
        and np.asarray(pi).tobytes() == np.asarray(ref).tobytes())


ONE_LP_SPECS = (RiskSpec.es_at(0.3), RiskSpec.wc(), RiskSpec.oce_with(PWL),
                RiskSpec.sr_with(PWL), RiskSpec.ew_with(PWL),
                RiskSpec.adjusted(step_profile(0.4)),
                RiskSpec.expected_loss(),
                RiskSpec.oce_with(LossFunction.power(1.5, 1.0)))


class TestOneLpHomogeneousSweep:
    """A positively homogeneous sweep is its unit slice LP: rho^inf = rho,
    and sublinearity fixes rho_0."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]))
    def test_nodes_match_the_slices_bit_for_bit(self, seed, d):
        rng = np.random.default_rng(seed)
        m = random_market(rng, n=int(rng.integers(d + 1, d + 9)), d=d)
        for spec in ONE_LP_SPECS:
            tag = (spec.label(), seed, d)
            fr = optimal_boundary(spec, m, 0.6, 5)
            assert fr.errors == [], tag
            zero, pi_0 = rho_nu(spec, m, 0.0)
            assert fr.rho_values[:1].tobytes() == np.array(
                [zero]).tobytes(), tag
            assert same_portfolio(fr.optimal_portfolios[0], pi_0), tag
            assert fr.rho_inf_1 == rho_inf_nu(spec, m, 1.0), tag
            rho_1, pi_1 = rho_nu(spec, m, 1.0)
            for nu, value, pi in zip(fr.nu_grid[1:], fr.rho_values[1:],
                                     fr.optimal_portfolios[1:]):
                if math.isfinite(rho_1):
                    assert value == nu * rho_1, tag
                    assert same_portfolio(pi, nu * pi_1), tag
                else:
                    assert value == rho_1 and same_portfolio(pi, pi_1), tag


def unit_rule_specs():
    """Positively homogeneous families of every kind: shortfall (es, the
    step, zero and zero-table profiles), minimax, linear (eloss) and hinge
    (pwl kinked at 0 and c y^+)."""
    kinked = LossFunction.pwl((0.5, 2.0), (0.0,))
    cy = LossFunction.power(1.5, 1.0)
    return ([RiskSpec.es_at(0.3), RiskSpec.wc(), RiskSpec.expected_loss(),
             RiskSpec.adjusted(step_profile(0.4))]
            + [parse_measure(text) for text in (
                "adjes:g=zero", "adjes:g=table(0.3,0;0.6,0;1,0)")]
            + [RiskSpec(fam, loss=kinked) for fam in ("oce", "sr", "ew")]
            + [RiskSpec(fam, loss=cy) for fam in ("oce", "sr", "ew")])


def not_homogeneous_specs():
    """One spec per way a family can miss positive homogeneity: a profile
    that is not zero (beta = 0 and beta > 0, affine, bounded, general), a
    pwl loss kinked off 0 (a_l > 0, a_l = 0, zero on the negatives), an exp
    loss and c y^gamma with gamma > 1."""
    off_zero = LossFunction.pwl((0.5, 1.0, 2.0), (-0.5, 0.3))
    negative_left = LossFunction.pwl((0.0, 1.0, 2.0), (-0.5, 0.3))
    specs = [RiskSpec.lses_at(0.3),
             RiskSpec.adjusted(lses_profile(0.5)),
             RiskSpec.adjusted(table_profile([(0.2, 3.0), (0.5, 1.0),
                                              (1.0, 0.0)])),
             RiskSpec.adjusted(bounded_tail_profile(0.8, 0.3)),
             RiskSpec.adjusted(general_profile(
                 lambda x: 1.0 / (np.asarray(x) - 0.4) - 1.0 / 0.6, 0.4,
                 True))]
    for loss in (off_zero, negative_left, EXP):
        specs += [RiskSpec(fam, loss=loss) for fam in ("oce", "sr", "ew")]
    flat_left = LossFunction.pwl((0.0, 1.0, 3.0), (0.0, 0.5))  # sr: wc
    return specs + [RiskSpec.oce_with(flat_left), RiskSpec.ew_with(flat_left),
                    RiskSpec.ew_with(LossFunction.power(1.0, 2.0))]


class TestRecessionSpec:
    """rho^inf as a RiskSpec: a homogeneous family is its own recession
    measure, so its recession value is its slice value, and every sweep and
    mean-risk solve of it is the one unit slice LP (outside the zero regime,
    where MIN_RISK also solves its band)."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]))
    @example(60301, 1)        # pi = 10041.8: |value + nu| = 1.44e-13
    def test_homogeneous_recession_is_the_slice(self, seed, d):
        rng = np.random.default_rng(seed)
        m = random_market(rng, n=int(rng.integers(d + 1, d + 9)), d=d)
        for spec in unit_rule_specs():
            tag = (spec.label(), seed, d)
            assert spec.positively_homogeneous, tag
            assert frontier._recession_spec(spec) is spec, tag
            for nu in (0.0, 0.35, 1.0):
                value, pi = rho_nu(spec, m, nu)
                assert repr(rho_inf_nu(spec, m, nu)) == repr(value), tag
                if spec.family == "eloss":     # E[-X] = -nu on the slice
                    # the LP value sums terms of size |X_pi|, so it rounds
                    # by eps E[|X_pi|], which grows with |pi| ~ nu / |g|
                    scale = float(m.space.probs @ np.abs(m.excess @ pi))
                    assert abs(value + nu) <= (
                        1e-13 * nu + 2 * np.finfo(float).eps * scale), tag
                    assert nu or (repr(value), pi.tobytes()) == (
                        "0.0", np.zeros(d).tobytes()), tag
            with pytest.MonkeyPatch.context() as mp:
                lps, paths = solved_lps(mp), solved_paths(mp)
                fr = optimal_boundary(spec, m, 0.6, 5)
                assert len(lps) == 1 and fr.errors == [], tag
                for mode in ("MIN_RISK", "MAX_RETURN"):
                    del lps[:]
                    sol = mean_rho_solve(spec, m, mode, 0.3)
                    if abs(fr.rho_inf_1) > frontier.SIGN_TOL:
                        assert len(lps) == 1, (tag, mode)
                    assert sol.status in ("optimal", "unbounded"), tag
                assert paths == [], tag

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(-3, 3))
    def test_recession_spec_matches_the_dual_rule(self, seed, n, k):
        # the RiskSpec that _recession_spec maps a non-homogeneous family to
        # evaluates to dual.recession_value, which builds rho^inf on its own
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.2, 1.0, n)
        X = RandVar(FiniteSpace(w / w.sum()), 10.0 ** k * rng.normal(size=n))
        tol = 1e-9 * (1.0 + float(np.abs(X.values).max()))
        for spec in not_homogeneous_specs():
            assert not spec.positively_homogeneous, spec.label()
            rec = frontier._recession_spec(spec)
            want = recession_value(spec, X)
            if rec is None:                # ew with b_l = inf
                assert want == (math.inf if (X.values < 0).any() else 0.0)
                continue
            assert rec.positively_homogeneous, spec.label()
            assert abs(evaluate(rec, X) - want) <= tol, (spec.label(), want)


def chained_specs():
    """LP families that are not positively homogeneous: their sweeps solve
    the slice LPs on one tableau."""
    kinked = LossFunction.pwl((0.5, 1.0, 2.0), (0.0, 0.5))
    return [RiskSpec.lses_at(0.5),
            RiskSpec.adjusted(lses_profile(0.5)),     # g = 0.5 (1/x - 1)
            RiskSpec.adjusted(table_profile([(0.2, 3.0), (0.5, 1.0),
                                             (1.0, 0.0)])),
            RiskSpec.oce_with(kinked), RiskSpec.ew_with(kinked)]


class TestChainedSweep:
    def test_matches_per_node_slices_in_fewer_pivots(self, monkeypatch):
        lps = solved_lps(monkeypatch)
        paths = solved_paths(monkeypatch)
        sweep = cold = dual = 0
        for n in (4, 12, 40):
            for seed in range(3):
                m = random_market(np.random.default_rng(900 + seed), n=n,
                                  d=3, arbitrage_free=True)
                for spec in chained_specs():
                    tag = (spec.label(), n, seed)
                    del paths[:]
                    fr = optimal_boundary(spec, m, 0.2, 11)
                    # one LP per node, and the band last in the positive
                    # regime
                    (nodes,) = paths
                    band = fr.regime == "POSITIVE"
                    assert len(nodes) == fr.nu_grid.size + band, tag
                    assert fr.errors == [], tag
                    assert all(r.phase1_pivots == 0 for r in nodes), tag
                    nodes = nodes[:fr.nu_grid.size]
                    sweep += sum(r.pivots for r in nodes)
                    dual += sum(r.dual_pivots for r in nodes)
                    del lps[:]
                    for nu, value, pi in zip(fr.nu_grid, fr.rho_values,
                                             fr.optimal_portfolios):
                        want, _ = rho_nu(spec, m, float(nu))
                        assert value == pytest.approx(
                            want, rel=1e-10, abs=1e-12), tag
                        # a slice optimum need not be unique (rho_nu = -nu
                        # on a segment of portfolios), so the portfolio is
                        # checked for optimality rather than equality
                        X = excess_return(m, pi)
                        assert X.mean() == pytest.approx(
                            nu, rel=1e-10, abs=1e-12), tag
                        assert evaluate(spec, X) == pytest.approx(
                            want, rel=1e-10, abs=1e-12), tag
                    cold += sum(r.pivots for r in lps)
        assert dual > 0 and sweep < cold / 2, (sweep, cold, dual)


class TestPiParametrisation:
    """Every frontier LP runs over pi from a start point in its band of
    returns, and a positive-regime sweep solves its band on the path."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_no_phase1(self, monkeypatch, d):
        # the slice, the unit slice, every sweep node, the band column and
        # the MIN_RISK band at a floor above 0 start from a feasible basis
        # (ew has no lifted m, so its slices may need phase 1)
        lps = solved_lps(monkeypatch)
        paths = solved_paths(monkeypatch)
        bands = 0
        specs = [spec for spec in chained_specs() if spec.family != "ew"]
        for seed in range(3):
            m = random_market(np.random.default_rng(40 * d + seed),
                              n=d + 3 + 4 * seed, d=d, arbitrage_free=True)
            for spec in specs + [RiskSpec.sr_with(PWL)]:
                rho_nu(spec, m, 0.15)
                if spec.positively_homogeneous:
                    frontier._unit_slice(spec, m)
                    continue
                fr = optimal_boundary(spec, m, 0.2, 11)
                bands += fr.regime == "POSITIVE"
                assert len(paths[-1]) == 11 + (fr.regime == "POSITIVE")
                mean_rho_solve(spec, m, "MIN_RISK", 0.1)
        tag = [(r.pivots, r.phase1_pivots) for r in lps]
        assert len(lps) > 30 and bands > 0, tag
        assert all(r.phase1_pivots == 0 for r in lps), tag
        assert all(r.phase1_pivots == 0 for path in paths for r in path)

    def test_band_column_matches_the_cold_band_lp(self, monkeypatch):
        # the same boundary minimiser with the band as the path's last
        # column and as a cold LP (the path cut back to the grid's nodes)
        inner = frontier.solve_lp_path
        checked = 0
        for d in (1, 2, 3, 4):
            for seed in range(3):
                m = random_market(np.random.default_rng(70 * d + seed),
                                  n=d + 2 + 5 * seed, d=d,
                                  arbitrage_free=True)
                for spec in chained_specs():
                    tag = (spec.label(), d, seed)
                    paths = solved_paths(monkeypatch)
                    fr = optimal_boundary(spec, m, 0.2, 11)
                    monkeypatch.setattr(
                        frontier, "solve_lp_path", lambda c, A_ub, B_ub,
                        **kw: inner(c, A_ub, B_ub[:, :11], **kw))
                    lps = solved_lps(monkeypatch)
                    ref = optimal_boundary(spec, m, 0.2, 11)
                    monkeypatch.undo()
                    if fr.regime != "POSITIVE":
                        continue
                    checked += 1
                    band, cold = paths[0][-1], lps[-1]
                    assert abs(band.value - cold.value) <= 1e-12 * (
                        1.0 + abs(cold.value)), tag
                    assert abs(fr.rho_min - ref.rho_min) <= 1e-12 * (
                        1.0 + abs(ref.rho_min)), tag
                    assert abs(fr.nu_min - ref.nu_min) <= 1e-12 * 1.2, tag
                    assert np.array_equal(fr.rho_values, ref.rho_values), tag
        assert checked >= 30

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_one_asset_path_nodes_match_cold_slices(self, seed):
        rng = np.random.default_rng(seed)
        m = random_market(rng, n=int(rng.integers(2, 9)), d=1)
        for spec in chained_specs() + [RiskSpec.sr_with(PWL)]:
            fr = optimal_boundary(spec, m, 0.3, 7)
            assert fr.errors == [], spec.label()
            for nu, value, pi in zip(fr.nu_grid, fr.rho_values,
                                     fr.optimal_portfolios):
                tag = (spec.label(), seed, nu)
                cold, cold_pi = rho_nu(spec, m, float(nu))
                assert abs(value - cold) <= 1e-12 * (1.0 + abs(cold)), tag
                # each slice is one portfolio
                assert abs(pi[0] - cold_pi[0]) <= 1e-12 * (
                    1.0 + abs(cold_pi[0])), tag


EXP_SPECS = (RiskSpec.oce_with(EXP), RiskSpec.sr_with(EXP),
             RiskSpec.ew_with(EXP))


class TestBatchedExpSweep:
    """An exp-loss sweep solves every grid node in one stacked Newton."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 5]))
    def test_nodes_match_scalar_rho_nu(self, seed, d):
        rng = np.random.default_rng(seed)
        m = random_market(rng, n=int(rng.integers(d + 2, d + 9)), d=d,
                          arbitrage_free=True)
        for spec in EXP_SPECS:
            fr = optimal_boundary(spec, m, 0.3, 7)
            assert fr.errors == [] and fr.nu_grid[0] == 0.0
            for nu, value, pi in zip(fr.nu_grid, fr.rho_values,
                                     fr.optimal_portfolios):
                tag = (spec.label(), seed, d, nu)
                cold, _ = rho_nu(spec, m, float(nu))
                X = excess_return(m, pi)
                scale = max(1.0, float(np.abs(X.values).max()))
                assert abs(value - cold) <= 1e-12 * scale * (
                    1.0 + abs(cold)), tag
                g = m.mean_excess
                assert abs(g @ pi - nu) <= 1e-12 * max(
                    1.0, float(np.abs(g) @ np.abs(pi))), tag
                assert abs(value - evaluate(spec, X)) <= 1e-12 * scale * (
                    1.0 + abs(value)), tag

    def test_one_newton_call_per_sweep(self, monkeypatch):
        m = random_market(np.random.default_rng(12), n=8, d=3,
                          arbitrage_free=True)
        newton = []
        inner = frontier._newton_min

        def spy(market, p, log, nu=None):
            newton.append(nu)
            return inner(market, p, log, nu)

        monkeypatch.setattr(frontier, "_newton_min", spy)
        slices = counting(monkeypatch, "rho_nu")
        fr = optimal_boundary(RiskSpec.ew_with(EXP), m, 0.2, 21)
        assert fr.regime == "INFINITE" and fr.errors == []
        (grid,) = newton
        assert np.array_equal(grid, fr.nu_grid) and slices == []
        # in the positive regime the band minimiser runs the one-node case,
        # and once more through rho_nu when it leaves the band
        del newton[:]
        fr = optimal_boundary(RiskSpec.oce_with(EXP), m, 0.2, 21)
        assert fr.regime == "POSITIVE" and len(slices) <= 1
        assert [np.ndim(nu) for nu in newton] == [1] + [0] * (1 + len(slices))

    def test_newton_stops_without_progress(self, monkeypatch):
        # below half an ulp of f the Armijo test holds for a step that
        # does not lower f; such a node stops instead of running on to the
        # round cap (200 batched solves per sweep on this market)
        m = random_market(np.random.default_rng(1), n=13, d=2)
        solves = []
        inner = np.linalg.solve

        def spy(*args):
            solves.append(None)
            return inner(*args)

        monkeypatch.setattr(np.linalg, "solve", spy)
        for spec in EXP_SPECS:
            del solves[:]
            assert optimal_boundary(spec, m, 0.3, 21).errors == []
            assert len(solves) < 200, spec.label()

    def test_slices_built_only_for_lp_sweeps(self, monkeypatch):
        # one _pi_param per node, plus rho_inf_1's and the band's: a
        # general profile builds its slices in rho_nu alone, an LP family
        # all of them (the band included) in the sweep's one call, and an
        # exp loss none per node
        m = random_market(np.random.default_rng(8), n=6, d=2,
                          arbitrage_free=True)
        general = RiskSpec.adjusted(general_profile(
            lambda x: 0.3 * (1.0 / np.asarray(x) - 1.0), 0.0, True, 0.3))
        params = counting(monkeypatch, "_pi_param")
        rho_calls = counting(monkeypatch, "rho_nu")
        for spec, want in ((general, 23), (RiskSpec.lses_at(0.5), 2)):
            del params[:], rho_calls[:]
            fr = optimal_boundary(spec, m, 0.2, 21)
            assert fr.errors == [] and fr.regime == "POSITIVE"
            assert len(params) == want, spec.label()
        for spec in EXP_SPECS:
            del params[:], rho_calls[:]
            fr = optimal_boundary(spec, m, 0.2, 21)
            assert fr.errors == [], spec.label()
            assert len(rho_calls) <= 1, spec.label()   # a band edge
            band = fr.regime == "POSITIVE"
            assert len(params) == 1 + band + len(rho_calls), spec.label()


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

    def test_recession_ray_needs_the_regime_tolerance(self):
        # a slope within SIGN_TOL of 0 is the ZERO regime, whose efficient
        # frontier is empty
        tiny = 0.5 * frontier.SIGN_TOL
        assert recession_efficient_frontier(tiny) == ("empty",)
        fr = optimal_boundary(RiskSpec.es_at(0.4), TRINOMIAL, 1.0, 5)
        fr.rho_inf_1, fr.regime = tiny, "ZERO"
        assert efficient_frontier(RiskSpec.es_at(0.4), TRINOMIAL, fr).empty


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


class TestVerdictInvariance:
    """detect_arbitrage's verdicts do not depend on the units of the excess
    returns (an LSES's b scales with them) or on the order of the atoms."""

    @staticmethod
    def specs(factor):
        """(spec, its twin on the returns times factor) pairs."""
        same = [RiskSpec.es_at(0.25), RiskSpec.wc(),
                RiskSpec.adjusted(step_profile(0.4)), RiskSpec.oce_with(PWL),
                RiskSpec.sr_with(PWL)]
        return [(s, s) for s in same] + [(RiskSpec.lses_at(0.5),
                                          RiskSpec.lses_at(0.5 * factor))]

    @staticmethod
    def verdict(rep):
        return (rep.classical is not None, rep.rho_arbitrage,
                rep.strong_rho_arbitrage, rep.strong_recession_arbitrage,
                rep.errors)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    # at 1e-6 the ball LP of these markets stopped at X = 0 until it ran on
    # returns over their largest entry
    @example(1232)
    @example(2067)
    def test_scale_and_permutation(self, seed):
        local = np.random.default_rng(seed)
        n = int(local.integers(3, 9))
        m = random_market(local, n=n, d=int(local.integers(1, min(4, n))))
        factor = 10.0 ** int(local.integers(-6, 4))
        perm = local.permutation(n)
        scaled = Market.from_excess(m.space.probs, m.r, factor * m.excess)
        permuted = Market.from_excess(m.space.probs[perm], m.r,
                                      m.excess[perm])
        for spec, scaled_spec in self.specs(factor):
            want = self.verdict(detect_arbitrage(spec, m))
            assert self.verdict(detect_arbitrage(scaled_spec, scaled)) == \
                want, (spec.label(), factor)
            assert self.verdict(detect_arbitrage(spec, permuted)) == want, \
                (spec.label(), perm)


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
        # MIN_RISK(nu*) scales the sweep's unit slice: one LP, no slice at
        # nu*, and bit for bit the sweep's node at nu*
        markets = [TRINOMIAL, BINOMIAL] + [
            random_market(np.random.default_rng(seed), n=4, d=2,
                          arbitrage_free=True) for seed in range(4)]
        for m in markets:
            for spec in homogeneous_specs():
                if rho_inf_nu(spec, m, 1.0) <= frontier.SIGN_TOL:
                    continue
                fr = optimal_boundary(spec, m, 1.3, 14)
                for level in (0.0, 0.4, 1.3):
                    lps = solved_lps(monkeypatch)
                    seen = counting(monkeypatch, "rho_nu")
                    sol = mean_rho_solve(spec, m, "MIN_RISK", level)
                    monkeypatch.undo()
                    # one asset too: the LP is the recession LP
                    assert seen == []
                    assert len(lps) == 1
                    assert sol.status == "optimal" and sol.nu == level
                    k = int(np.flatnonzero(fr.nu_grid == level)[0])
                    assert sol.value == fr.rho_values[k]
                    assert np.array_equal(sol.portfolio,
                                          fr.optimal_portfolios[k])
                    value, _ = rho_nu(spec, m, level)
                    assert abs(sol.value - value) <= 1e-12 * (1 + abs(value))
                    X = excess_return(m, sol.portfolio)
                    assert X.mean() == pytest.approx(level, abs=1e-12)
                    assert evaluate(spec, X) == pytest.approx(
                        sol.value, rel=1e-9, abs=1e-12)
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
                    units = counting(monkeypatch, "_unit_slice")
                    seen = counting(monkeypatch, "rho_nu")
                    sol = mean_rho_solve(spec, m, "MAX_RETURN", level)
                    monkeypatch.undo()
                    assert len(units) == 1
                    if slope <= frontier.SIGN_TOL:
                        assert sol.status == "unbounded"
                        continue
                    solved += 1
                    # one asset too: the unit slice LP gives rho_1
                    assert seen == []
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
        # an LP family solves no slice: one LP over the portfolios after
        # the recession LP for the slope
        for level in (1.0, 0.0):
            for mode in ("MIN_RISK", "MAX_RETURN"):
                seen = counting(monkeypatch, "rho_nu")
                lps = counting(monkeypatch, "solve_lp")
                sol = mean_rho_solve(RiskSpec.lses_at(0.3), TRINOMIAL, mode,
                                     level)
                monkeypatch.undo()
                assert sol.status == "optimal"
                assert seen == [] and len(lps) == 2, (mode, level)
        # the exp loss has no LP: MIN_RISK is one Newton solve plus at most
        # the slice at nu*, and MAX_RETURN bisects, solving each slice once
        m = random_market(np.random.default_rng(3), n=4, d=2,
                          arbitrage_free=True)
        # (the unconstrained minimiser has return 1.07)
        for level, slices in ((0.2, []), (2.0, [2.0])):
            seen = counting(monkeypatch, "rho_nu")
            sol = mean_rho_solve(RiskSpec.oce_with(EXP), m, "MIN_RISK", level)
            monkeypatch.undo()
            assert sol.status == "optimal" and sol.nu >= level - 1e-12
            assert seen == slices, level
        seen = counting(monkeypatch, "rho_nu")
        sol = mean_rho_solve(RiskSpec.oce_with(EXP), m, "MAX_RETURN", 0.2)
        monkeypatch.undo()
        assert sol.status == "optimal"
        assert len(seen) > 10
        assert len(set(seen)) == len(seen)

    def test_ew_exp_min_risk(self):
        # Newton over the slice hit a singular Hessian here
        spec = RiskSpec.ew_with(EXP)
        m = random_market(np.random.default_rng(708), n=5, d=3,
                          arbitrage_free=True)
        sol = mean_rho_solve(spec, m, "MIN_RISK", 0.1)
        assert sol.status == "optimal" and sol.nu >= 0.1
        X = excess_return(m, sol.portfolio)
        assert X.mean() == pytest.approx(sol.nu, abs=1e-12)
        assert evaluate(spec, X) == pytest.approx(sol.value, abs=1e-12)
        scan = min(rho_nu(spec, m, nu)[0] for nu in np.linspace(0.1, 3.0, 291))
        assert sol.value <= scan + 1e-12
        assert sol.value == pytest.approx(scan, abs=1e-5)

    def test_exp_min_risk_at_zero_slope_is_unbounded(self):
        # E[exp(-X)] is strictly convex, so with rho_inf_1 = 0 the
        # boundary keeps decreasing and never attains its infimum
        m = Market.from_excess([0.5, 0.5], 0.0, [[0.0], [1.0]])
        for spec in (RiskSpec.oce_with(EXP), RiskSpec.ew_with(EXP)):
            assert abs(rho_inf_nu(spec, m, 1.0)) <= frontier.SIGN_TOL
            sol = mean_rho_solve(spec, m, "MIN_RISK", 0.1)
            assert sol.status == "unbounded", spec.label()
            assert sol.cause == "risk keeps decreasing with return"

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            mean_rho_solve(RiskSpec.es_at(0.5), TRINOMIAL, "MIN_RISK", -1.0)


def lp_search_specs():
    """Non-homogeneous convex families: the boundary minimiser and MIN_RISK
    are one solve over pi (an LP, Kelley, or Newton plus at most one edge
    slice).  ew:l=exp is left out: it never reaches the positive regime."""
    return [RiskSpec.lses_at(0.5),
            RiskSpec.adjusted(table_profile([(0.2, 3.0), (0.5, 1.0),
                                             (1.0, 0.0)])),
            RiskSpec.oce_with(LossFunction.pwl((0.5, 1.0, 2.0),
                                               (-0.1, 0.2))),
            RiskSpec.oce_with(EXP), RiskSpec.sr_with(EXP),
            RiskSpec.adjusted(general_profile(
                lambda x: 0.3 * (1.0 / np.asarray(x) - 1.0), 0.0, True, 0.3))]


class TestPortfolioLps:
    """The boundary minimiser and both mean-risk problems against a brute
    scan of slices."""

    def test_match_brute_slice_scan(self):
        solved = set()
        for seed in (246, 11, 12):
            m = random_market(np.random.default_rng(seed), n=6, d=2,
                              arbitrage_free=True)
            for spec in lp_search_specs():
                tag = (spec.label(), seed)
                assert not spec.positively_homogeneous
                fr = optimal_boundary(spec, m, 0.2, 11)
                if fr.regime != "POSITIVE":
                    continue
                top = 0.6
                cap = mean_rho_solve(spec, m, "MAX_RETURN", 0.05)
                if cap.status == "optimal":
                    top = max(top, 1.5 * cap.nu)
                nus = np.linspace(0.0, top, 301)
                scan = np.array([rho_nu(spec, m, nu)[0] for nu in nus])
                # boundary minimiser over [0, 0.2]
                assert fr.rho_min <= scan[nus <= 0.2].min() + 1e-9, tag
                assert 0.0 <= fr.nu_min <= 0.2, tag
                assert rho_nu(spec, m, fr.nu_min)[0] == pytest.approx(
                    fr.rho_min, abs=1e-9), tag
                # least risk at return >= level
                for level in (0.05, 0.3):
                    sol = mean_rho_solve(spec, m, "MIN_RISK", level)
                    assert sol.status == "optimal", tag
                    assert sol.nu >= level - 1e-12, tag
                    assert sol.value <= scan[nus >= level].min() + 1e-9, tag
                    assert sol.value <= rho_nu(spec, m, level)[0] + 1e-9, tag
                    X = excess_return(m, sol.portfolio)
                    assert X.mean() == pytest.approx(sol.nu, abs=1e-12), tag
                    assert evaluate(spec, X) == pytest.approx(
                        sol.value, abs=1e-9), tag
                # largest return at risk <= budget
                assert cap.status == "optimal", tag
                within = nus[scan <= 0.05]
                assert within.max() < top, tag
                assert cap.nu >= within.max() - 1e-9, tag
                assert cap.value == cap.nu
                X = excess_return(m, cap.portfolio)
                assert X.mean() == pytest.approx(cap.nu, abs=1e-12), tag
                assert evaluate(spec, X) <= 0.05 + 1e-9, tag
                assert rho_nu(spec, m, cap.nu + 1e-6)[0] > 0.05, tag
                solved.add(spec.label())
        assert solved == {spec.label() for spec in lp_search_specs()}


def single_asset_specs():
    return [RiskSpec.es_at(0.3), RiskSpec.wc(), RiskSpec.expected_loss(),
            RiskSpec.lses_at(0.4), RiskSpec.adjusted(step_profile(0.4)),
            RiskSpec.adjusted(table_profile([(0.2, 3.0), (0.5, 1.0),
                                             (1.0, 0.0)])),
            RiskSpec.adjusted(general_profile(
                lambda x: 0.3 * (1.0 / np.asarray(x) - 1.0), 0.0, True,
                0.3)),
            RiskSpec.oce_with(PWL), RiskSpec.oce_with(EXP),
            RiskSpec.sr_with(PWL), RiskSpec.sr_with(EXP),
            RiskSpec.ew_with(PWL), RiskSpec.ew_with(EXP)]


class TestSingleAsset:
    """With d = 1 every slice is one portfolio, so its LPs have no columns."""

    @pytest.mark.parametrize("spec", single_asset_specs(),
                             ids=lambda spec: spec.label())
    def test_boundary_detectors_and_prices(self, spec):
        for seed in range(4):
            local = np.random.default_rng(1300 + seed)
            m = random_market(local, n=3 + seed, d=1)
            fr = optimal_boundary(spec, m, 0.5, 5)
            assert fr.errors == [] and np.all(np.isfinite(fr.rho_values))
            for nu, value, pi in zip(fr.nu_grid, fr.rho_values,
                                     fr.optimal_portfolios):
                assert evaluate(spec, excess_return(m, pi)) == \
                    pytest.approx(value, rel=1e-9, abs=1e-12)
            if spec.family == "ew":
                continue                   # no dual representation
            rep = detect_arbitrage(spec, m)
            assert rep.errors == [], seed
            if spec.family == "eloss":
                assert rep.rho_inf_1 == pytest.approx(-1.0)
                assert rep.rho_arbitrage
            payoff = RandVar(m.space, local.normal(1.0, 0.5, m.space.n))
            for kind in ("NO_ARB", "NO_RHO_ARB", "NO_STRONG_RHO_ARB"):
                try:
                    iv = price_bounds(m, payoff, spec, kind)
                except ValueError as exc:
                    assert "admits" in str(exc), (kind, seed)
                else:
                    assert iv.lower <= iv.upper + 1e-12, (kind, seed)


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
