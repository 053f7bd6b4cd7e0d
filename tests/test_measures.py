"""Risk-measure evaluators: worked examples, invariants and axiom probes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_randvar
from meanrisk import (FiniteSpace, LossFunction, RandVar, RiskSpec,
                      adjusted_es, axiom_probe, bounded_tail_profile,
                      classify_sensitivity, es, evaluate,
                      expected_weighted_loss, lses_profile,
                      numeric_sensitivity_probe, oce, shortfall_risk,
                      solve_lp, step_profile, var, worst_case, zero_profile)
from meanrisk import lses as lses_mod
from meanrisk.lses import LsesBreakdown
from meanrisk.measures import QTOL, quantile_pieces, sorted_atoms

HALF = FiniteSpace(np.array([0.5, 0.5]))
X_PM1 = RandVar(HALF, np.array([-1.0, 1.0]))
EXP = LossFunction.exp()
PWL_HALF_TWO = LossFunction.pwl((0.5, 2.0), (0.0,))


def brute_es(X: RandVar, alpha: float, k: int = 40000) -> float:
    """Independent oracle: midpoint quadrature of the quantile integral.

    VaR at every node in one search: the expression ``var`` evaluates level
    by level."""
    us = alpha * (np.arange(k) + 0.5) / k
    v, _, cum = sorted_atoms(X)
    idx = np.minimum(np.searchsorted(cum, us + QTOL, side="right"), v.size - 1)
    return float(np.mean(-v[idx]))


def brute_es_loop(X: RandVar, alpha: float, k: int = 40000) -> float:
    """``brute_es`` with one ``var`` call per node."""
    us = alpha * (np.arange(k) + 0.5) / k
    return float(np.mean([var(X, u) for u in us]))


class TestVar:
    def test_split_atom_half(self):
        assert var(X_PM1, 0.5) == pytest.approx(-1.0)

    def test_constant_is_cash(self):
        for a in (0.2, 0.5, 1.0):
            assert var(RandVar(HALF, np.array([3.0, 3.0])), a) == -3.0

    def test_small_level_takes_the_loss_atom(self):
        assert var(X_PM1, 0.25) == pytest.approx(1.0)


class TestEs:
    def test_half_level(self):
        assert es(X_PM1, 0.5) == pytest.approx(1.0)

    def test_level_one_is_expected_loss(self):
        assert es(X_PM1, 1.0) == pytest.approx(0.0)

    def test_constant(self):
        assert es(RandVar(HALF, np.array([2.0, 2.0])), 0.3) == -2.0

    def test_quadrature_vectorised_like_loop(self):
        Y = RandVar(FiniteSpace(np.array([0.1, 0.2, 0.3, 0.4])),
                    np.array([0.5, -1.0, 2.0, -1.0]))
        for X, alpha in ((X_PM1, 0.5), (Y, 0.65)):
            assert brute_es(X, alpha) == brute_es_loop(X, alpha)

    @given(st.integers(0, 10 ** 6), st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_matches_quantile_quadrature(self, seed, alpha):
        X = random_randvar(np.random.default_rng(seed), 6)
        assert es(X, alpha) == pytest.approx(brute_es(X, alpha), abs=2e-3)

    def test_dual_identity_via_lp(self, rng):
        # ES is the max of E[-ZX] over the box {0 <= Z <= 1/a, E[Z]=1}
        for _ in range(20):
            n = int(rng.integers(2, 51))
            X = random_randvar(rng, n, scale=2.0)
            alpha = float(rng.uniform(0.05, 0.95))
            p = X.space.probs
            res = solve_lp(-p * X.values, A_eq=p[None, :], b_eq=[1.0],
                           upper=np.full(n, 1.0 / alpha), maximize=True)
            assert res.value == pytest.approx(es(X, alpha), abs=1e-8)


def stable_sorted_atoms(X: RandVar):
    """Reference: ``sorted_atoms`` by numpy's stable sort alone."""
    order = np.argsort(X.values, kind="stable")
    cum = np.cumsum(X.space.probs[order])
    cum[-1] = 1.0
    return X.values[order], X.space.probs[order], cum


def composed_lses(X: RandVar, b: float) -> LsesBreakdown:
    """Reference: the LSES breakdown composed from ``es`` and ``var`` calls,
    each of which sorts X again."""
    v, p, cum, J = quantile_pieces(X)
    j_star = int(np.max(np.where(J <= b)[0]))
    alpha_hi = float(cum[j_star])
    ge = np.where(J >= b)[0]
    if ge.size == 0:
        alpha_lo = 1.0
    else:
        j0 = int(ge[0])
        alpha_lo = float(cum[j0 - 1]) if j0 > 0 else alpha_hi
    alpha_lo = min(alpha_lo, alpha_hi)
    es_star, var_star = es(X, alpha_hi), var(X, alpha_hi)
    value = es_star - b * (1.0 / alpha_hi - 1.0)
    es_at_breaks = -np.cumsum(p * v) / cum
    I_at_breaks = np.concatenate([J[1:], [es(X, 1.0) - var(X, 1.0)]])
    G_at_breaks = es_at_breaks - b * (1.0 / cum - 1.0)
    return LsesBreakdown(float(value), alpha_hi, (alpha_lo, alpha_hi),
                         float(es_star), float(var_star), cum.copy(),
                         I_at_breaks, G_at_breaks)


@st.composite
def sort_cases(draw, kinds=("free", "rounded", "zeros", "inf", "nan")):
    """1-400 atoms whose values are tie-free ("free"), rounded (ties), +-0.0
    mixed with other values ("zeros"), or carry +-inf, and NaN too."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(kinds))
    x = rng.normal(0.0, 1.0, n)
    if kind == "rounded":
        x = np.round(x, int(rng.integers(0, 3)))
    elif kind == "zeros":
        x[rng.random(n) < 0.3] = 0.0
        x[rng.random(n) < 0.3] = -0.0
    elif kind in ("inf", "nan"):
        x[rng.random(n) < 0.1] = np.inf
        x[rng.random(n) < 0.1] = -np.inf
        if kind == "nan":
            x[rng.random(n) < 0.1] = np.nan
    w = rng.uniform(0.2, 1.0, n)
    return RandVar(FiniteSpace(w / w.sum()), x)


class TestSortFastPath:
    @given(sort_cases())
    @settings(max_examples=300, deadline=None)
    def test_sorted_atoms_match_stable_sort(self, X):
        got, want = sorted_atoms(X), stable_sorted_atoms(X)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @given(sort_cases(("free", "rounded", "zeros")),
           st.sampled_from([1e-3, 0.05, 0.5, 5.0]))
    @settings(max_examples=200, deadline=None)
    def test_lses_breakdown_matches_es_var_composition(self, X, b):
        got, want = lses_mod.evaluate(X, b), composed_lses(X, b)
        for name in LsesBreakdown.__dataclass_fields__:
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
                getattr(want, name)).tobytes(), name


class TestWorstCase:
    def test_examples(self):
        assert worst_case(X_PM1) == 1.0
        assert worst_case(RandVar(FiniteSpace(np.array([0.2, 0.3, 0.5])),
                                  np.array([-3.0, 2.0, -1.0]))) == 3.0

    def test_nonnegative_payoff(self, rng):
        X = RandVar(HALF, np.array([0.1, 2.0]))
        assert worst_case(X) <= 0.0


class TestExpectedWeightedLoss:
    def test_identity_loss(self):
        X = RandVar(HALF, np.array([-0.7, 2.0]))
        assert expected_weighted_loss(X, LossFunction.identity()) == \
            pytest.approx(-X.mean())

    def test_exp_closed_form(self):
        assert expected_weighted_loss(X_PM1, EXP) == \
            pytest.approx(math.cosh(1.0) - 1.0)

    def test_normalisation(self):
        Z = RandVar(HALF, np.zeros(2))
        assert expected_weighted_loss(Z, EXP) == pytest.approx(0.0)


class TestShortfallRisk:
    def test_linear_loss(self):
        assert shortfall_risk(X_PM1, LossFunction.identity()) == \
            pytest.approx(0.0)

    def test_flat_on_negatives_gives_worst_case(self):
        flat = LossFunction.power(1.0, 2.0)
        assert shortfall_risk(X_PM1, flat) == pytest.approx(worst_case(X_PM1))

    def test_exp_root(self):
        assert shortfall_risk(X_PM1, EXP) == \
            pytest.approx(math.log(math.cosh(1.0)), abs=1e-9)

    def test_pwl_exact_root(self, rng):
        for _ in range(25):
            X = random_randvar(rng, 7)
            m = shortfall_risk(X, PWL_HALF_TWO)
            phi = float(X.space.probs @ PWL_HALF_TWO.value(-X.values - m))
            assert phi == pytest.approx(0.0, abs=1e-10)

    def test_sign_characterisation(self, rng):
        # SR <= 0 iff EW <= 0 (the cash-invariant analogue)
        for _ in range(40):
            X = random_randvar(rng, 6)
            sr = shortfall_risk(X, EXP)
            ew = expected_weighted_loss(X, EXP)
            assert (sr <= 1e-10) == (ew <= 1e-10)


class TestOce:
    def test_identity_loss(self):
        assert oce(X_PM1, LossFunction.identity()) == pytest.approx(0.0)

    def test_exp_is_entropic(self):
        assert oce(X_PM1, EXP) == pytest.approx(math.log(math.cosh(1.0)),
                                                abs=1e-9)

    def test_cvar_generator_recovers_es(self):
        assert oce(X_PM1, LossFunction.cvar_generator(0.5)) == \
            pytest.approx(1.0)

    @given(st.integers(0, 10 ** 6), st.floats(0.1, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_cvar_generator_random(self, seed, alpha):
        X = random_randvar(np.random.default_rng(seed), 6)
        assert oce(X, LossFunction.cvar_generator(alpha)) == \
            pytest.approx(es(X, alpha), abs=1e-9)

    def test_dominated_by_weighted_loss(self, rng):
        for loss in (EXP, PWL_HALF_TWO, LossFunction.cvar_generator(0.3)):
            for _ in range(20):
                X = random_randvar(rng, 6)
                assert oce(X, loss) <= \
                    expected_weighted_loss(X, loss) + 1e-9

    def test_power_rejected(self):
        with pytest.raises(ValueError):
            oce(X_PM1, LossFunction.power(2.0, 1.5))


def kink_scan_oce(X: RandVar, loss: LossFunction) -> float:
    """Reference: the OCE objective at every kink x_i + b_k."""
    p = X.space.probs
    etas = sorted({float(x + bk) for x in X.values
                   for bk in loss.breakpoints})
    return min(float(p @ loss.value(e - X.values)) - e for e in etas)


def kink_scan_sr(X: RandVar, loss: LossFunction) -> float:
    """Reference: phi(m) = E[l(-X-m)] at every kink -x_i - b_k, then the
    linear root between the last kink with phi > 0 and the first with
    phi <= 0."""
    p = X.space.probs

    def phi(m):
        return float(p @ loss.value(-X.values - m))

    kinks = sorted({float(-x - bk) for x in X.values
                    for bk in loss.breakpoints})
    vals = [phi(k) for k in kinks]
    if vals[0] <= 0.0:
        return kinks[0] + vals[0] / loss.b_l
    for i in range(1, len(kinks)):
        if vals[i] <= 0.0:
            lo, hi = kinks[i - 1], kinks[i]
            f0, f1 = vals[i - 1], vals[i]
            return lo + f0 * (hi - lo) / (f0 - f1)
    tail = phi(kinks[-1] + 1.0)
    return kinks[-1] + vals[-1] / (vals[-1] - tail)


@st.composite
def pwl_cases(draw):
    """A random variable (atom values on a 0.1 grid, so ties and kinks an
    ulp apart occur, or free floats) and a convex pwl loss with l(x) >= x:
    1-3 breakpoints, off 0 too, with slope 1 on a piece that contains 0."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        x = 0.1 * np.array(draw(st.lists(st.integers(-15, 15), min_size=n,
                                         max_size=n)), dtype=float)
    else:
        x = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n,
                                   max_size=n)))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n,
                               max_size=n)))
    bps = sorted(set(draw(st.lists(st.integers(-8, 8), min_size=1,
                                   max_size=3))))
    bps = [0.1 * b for b in bps]
    below = sum(b < 0.0 for b in bps)
    left = 1 + below if 0.0 in bps else below    # pieces that may be < 1
    right = len(bps) + 1 - left - (0.0 not in bps)
    slopes = sorted(draw(st.lists(st.floats(0.0, 0.95), min_size=left,
                                  max_size=left)))
    if 0.0 not in bps:
        slopes.append(1.0)
    slopes += sorted(draw(st.lists(st.floats(1.05, 5.0), min_size=right,
                                   max_size=right)))
    return (RandVar(FiniteSpace(w / w.sum()), x),
            LossFunction.pwl(slopes, bps))


class TestPwlKinkSearch:
    @given(pwl_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_kink_scan(self, case):
        X, loss = case
        for fast, slow in ((oce, kink_scan_oce), (shortfall_risk,
                                                  kink_scan_sr)):
            if fast is oce and 1.0 in (loss.a_l, loss.b_l):
                continue                  # the expected loss, no search
            if fast is shortfall_risk and loss.zero_on_negatives:
                continue                  # the worst case, no search
            ref = slow(X, loss)
            assert fast(X, loss) == pytest.approx(
                ref, rel=1e-12, abs=1e-12), fast.__name__

    def test_tied_atoms_with_breakpoints_off_zero(self):
        # atoms on a 0.1 grid with breakpoints -0.3 and 0.4 put pairs of
        # kinks an ulp apart, where adjacent objective values compare by
        # rounding noise; the slope search still finds the minimum
        rng = np.random.default_rng(3)
        loss = LossFunction.pwl((0.0, 1.0, 3.0), (-0.3, 0.4))
        for n in (200, 1000):
            X = RandVar(FiniteSpace(np.full(n, 1.0 / n)),
                        np.round(rng.normal(0.0, 1.0, n), 1))
            assert oce(X, loss) == pytest.approx(kink_scan_oce(X, loss),
                                                 rel=1e-12)
            assert shortfall_risk(X, loss) == pytest.approx(
                kink_scan_sr(X, loss), rel=1e-12)

    def test_loss_calls_grow_with_log_of_kinks(self, rng, monkeypatch):
        # built before the spies: its l(x) >= x check calls value too
        loss = LossFunction.pwl((0.2, 1.0, 3.0), (-0.5, 0.5))
        calls = {"value": 0, "derivative": 0}
        for name in calls:
            inner = getattr(LossFunction, name)

            def counted(self, x, name=name, inner=inner):
                calls[name] += 1
                return inner(self, x)

            monkeypatch.setattr(LossFunction, name, counted)
        X = random_randvar(rng, 2000)
        log_nk = math.ceil(math.log2(2000 * 2))
        oce(X, loss)
        assert calls["value"] <= 2
        assert calls["derivative"] <= log_nk + 1
        calls.update(value=0, derivative=0)
        shortfall_risk(X, loss)
        assert calls["value"] <= log_nk + 3


class TestAdjustedEs:
    def test_zero_profile_is_worst_case(self):
        assert adjusted_es(X_PM1, zero_profile()) == pytest.approx(1.0)

    def test_step_profile_is_es(self, rng):
        for _ in range(15):
            X = random_randvar(rng, 6)
            a0 = float(rng.uniform(0.1, 0.9))
            assert adjusted_es(X, step_profile(a0)) == \
                pytest.approx(es(X, a0), abs=1e-12)

    def test_lses_profile_cross_check(self, rng):
        for b in (0.05, 0.5, 5.0):
            for _ in range(10):
                X = random_randvar(rng, 8)
                assert adjusted_es(X, lses_profile(b)) == pytest.approx(
                    lses_mod.evaluate(X, b).value, abs=1e-10)

    def test_grid_oracle_bounded_profile(self, rng):
        g = bounded_tail_profile(2.0, 0.4)
        corner = 0.4 / 2.4  # where the sloped branch caps out
        for _ in range(10):
            X = random_randvar(rng, 5)
            _, _, cum = __import__("meanrisk.measures",
                                   fromlist=["sorted_atoms"]).sorted_atoms(X)
            grid = np.unique(np.concatenate([
                np.linspace(1e-4, 1.0, 20001), cum, [corner]]))
            with np.errstate(divide="ignore"):
                vals = np.array([es(X, a) for a in grid]) - g.value(grid)
            assert adjusted_es(X, g) == pytest.approx(float(np.max(vals)),
                                                      abs=1e-9)


class TestEvaluateDispatch:
    def test_examples(self):
        assert evaluate(RiskSpec.es_at(0.5), X_PM1) == pytest.approx(1.0)
        assert evaluate(RiskSpec.wc(), X_PM1) == pytest.approx(1.0)
        assert evaluate(RiskSpec.lses_at(10.0), X_PM1) == pytest.approx(0.0)
        assert evaluate(RiskSpec.expected_loss(), X_PM1) == pytest.approx(0.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            RiskSpec("gamma")


class TestClassification:
    def test_es_weak_not_strong(self):
        c = classify_sensitivity(RiskSpec.es_at(0.05))
        assert c.weak and not c.strong
        assert not c.suitable_risk_management

    def test_lses_fully_suitable(self):
        c = classify_sensitivity(RiskSpec.lses_at(1.0))
        assert c.weak and c.strong
        assert c.suitable_risk_management and c.suitable_portfolio_selection

    def test_oce_needs_both_limits(self):
        c = classify_sensitivity(RiskSpec.oce_with(PWL_HALF_TWO))
        assert c.weak and not c.strong
        c = classify_sensitivity(RiskSpec.oce_with(EXP))
        assert c.strong and c.suitable_portfolio_selection

    def test_sr_either_limit(self):
        c = classify_sensitivity(RiskSpec.sr_with(PWL_HALF_TWO))
        assert not c.strong
        c = classify_sensitivity(RiskSpec.sr_with(
            LossFunction.pwl((0.0, 2.0), (0.0,))))
        assert c.strong

    def test_adjusted_es_profiles(self):
        c = classify_sensitivity(RiskSpec.adjusted(lses_profile(0.5)))
        assert c.strong and c.suitable_portfolio_selection
        c = classify_sensitivity(RiskSpec.adjusted(step_profile(0.3)))
        assert not c.strong and not c.suitable_risk_management
        c = classify_sensitivity(RiskSpec.adjusted(bounded_tail_profile(2.0, 0.3)))
        assert c.strong and c.suitable_risk_management
        assert not c.suitable_portfolio_selection  # bounded g fails the growth

    def test_worst_case_and_var(self):
        c = classify_sensitivity(RiskSpec.wc())
        assert c.strong and c.suitable_risk_management
        assert not c.suitable_portfolio_selection
        c = classify_sensitivity(RiskSpec.var_at(0.1))
        assert not c.weak


class TestAxiomProbe:
    def test_es_passes_everything(self):
        rep = axiom_probe(RiskSpec.es_at(0.4), FiniteSpace(np.full(6, 1 / 6)),
                          trials=300, seed=7)
        for name in ("monotonicity", "normalisation", "star_shapedness",
                     "cash_invariance", "convexity", "positive_homogeneity"):
            assert rep.passed(name), name

    def test_lses_fails_homogeneity_with_witness(self):
        rep = axiom_probe(RiskSpec.lses_at(0.5),
                          FiniteSpace(np.full(5, 1 / 5)), trials=300, seed=3)
        assert rep.passed("cash_invariance")
        assert rep.passed("convexity")
        assert not rep.passed("positive_homogeneity")
        w = rep.witness("positive_homogeneity")
        lam, x = w["lambda"], w["x"]
        spec = RiskSpec.lses_at(0.5)
        X = RandVar(FiniteSpace(np.full(5, 1 / 5)), x)
        assert abs(evaluate(spec, X.scaled(lam)) - lam * evaluate(spec, X)) \
            > 1e-9

    def test_ew_fails_cash_invariance_with_witness(self):
        rep = axiom_probe(RiskSpec.ew_with(EXP),
                          FiniteSpace(np.full(4, 0.25)), trials=200, seed=1)
        assert not rep.passed("cash_invariance")
        assert rep.witness("cash_invariance") is not None
        assert rep.passed("monotonicity")
        assert rep.passed("convexity")


PWL_OFF_ZERO = LossFunction.pwl((0.5, 1.0, 2.0), (0.0, 0.5))


class TestPositiveHomogeneityFlag:
    SPACE = FiniteSpace(np.full(5, 0.2))

    def flagged(self):
        return [RiskSpec.var_at(0.3), RiskSpec.es_at(0.25), RiskSpec.wc(),
                RiskSpec.expected_loss(),
                RiskSpec.adjusted(step_profile(0.4)),
                RiskSpec.adjusted(zero_profile()),
                RiskSpec.ew_with(PWL_HALF_TWO), RiskSpec.sr_with(PWL_HALF_TWO),
                RiskSpec.oce_with(PWL_HALF_TWO),
                RiskSpec.oce_with(LossFunction.cvar_generator(0.2)),
                RiskSpec.ew_with(LossFunction.identity()),
                RiskSpec.sr_with(LossFunction.pwl((0.0, 1.0, 3.0),
                                                  (0.0, 1.0))),
                RiskSpec.sr_with(LossFunction.power(2.0, 3.0)),
                RiskSpec.oce_with(LossFunction.power(2.0, 1.0)),
                RiskSpec.ew_with(LossFunction.power(0.5, 1.0))]

    def unflagged(self):
        return [RiskSpec.lses_at(0.5), RiskSpec.oce_with(EXP),
                RiskSpec.ew_with(PWL_OFF_ZERO), RiskSpec.sr_with(PWL_OFF_ZERO),
                RiskSpec.oce_with(PWL_OFF_ZERO)]

    def test_loss_flag(self):
        assert PWL_HALF_TWO.positively_homogeneous
        assert LossFunction.identity().positively_homogeneous
        assert not PWL_OFF_ZERO.positively_homogeneous
        assert not EXP.positively_homogeneous
        assert LossFunction.power(1.0, 1.0).positively_homogeneous

    def test_profile_flag(self):
        assert step_profile(0.4).vanishes_on_domain
        assert zero_profile().vanishes_on_domain
        assert not lses_profile(0.3).vanishes_on_domain
        assert not bounded_tail_profile(2.0, 0.3).vanishes_on_domain

    def test_flagged_specs_pass_the_probe(self):
        for spec in self.flagged():
            assert spec.positively_homogeneous, spec.label()
            rep = axiom_probe(spec, self.SPACE, trials=150, seed=11)
            assert rep.passed("positive_homogeneity"), spec.label()

    def test_unflagged_specs_have_a_witness(self):
        for spec in self.unflagged():
            assert not spec.positively_homogeneous, spec.label()
            rep = axiom_probe(spec, self.SPACE, trials=300, seed=11)
            assert not rep.passed("positive_homogeneity"), spec.label()
            w = rep.witness("positive_homogeneity")
            X = RandVar(self.SPACE, w["x"])
            lam = w["lambda"]
            assert abs(evaluate(spec, X.scaled(lam))
                       - lam * evaluate(spec, X)) > 1e-9, spec.label()


class TestSensitivityProbe:
    def test_worst_case_fires_immediately(self):
        probe = numeric_sensitivity_probe(RiskSpec.wc(), X_PM1)
        assert probe.positive_risk_found and probe.lambda_star == 1.0

    def test_es_sign_is_scale_free(self):
        sp = FiniteSpace(np.array([0.9, 0.1]))
        X = RandVar(sp, np.array([-1.0, 1.0]))
        assert es(X, 0.5) > 0  # loss atom dominates the half tail
        probe = numeric_sensitivity_probe(RiskSpec.es_at(0.5), X)
        assert probe.positive_risk_found and probe.lambda_star == 1.0
        Y = RandVar(FiniteSpace(np.array([0.1, 0.9])), np.array([-1.0, 1.0]))
        assert es(Y, 0.5) < 0
        probe = numeric_sensitivity_probe(RiskSpec.es_at(0.5), Y,
                                          lambda_max=2.0 ** 12)
        assert not probe.positive_risk_found and probe.lambda_star is None

    def test_lses_finite_lambda(self):
        probe = numeric_sensitivity_probe(RiskSpec.lses_at(0.1), X_PM1)
        assert probe.positive_risk_found and probe.lambda_star is not None

    def test_precondition(self):
        with pytest.raises(ValueError):
            numeric_sensitivity_probe(RiskSpec.wc(),
                                      RandVar(HALF, np.array([0.0, 1.0])))
