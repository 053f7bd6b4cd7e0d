"""Dual machinery: representations, recession values, martingale programs."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_market, random_randvar
from meanrisk import (DualSetSpec, FiniteSpace, LossFunction, Market,
                      RandVar, RiskSpec, bounded_tail_profile,
                      check_classical_arbitrage, closure_dual_set,
                      dual_evaluate, dual_set, es, evaluate, g_hat_transform,
                      general_profile, interior_martingale_feasibility,
                      lses_profile, martingale_feasibility,
                      numeric_recession_probe, recession_value, step_profile,
                      worst_case)
import meanrisk.dual as dual
from meanrisk.dual import interior_slack, set_polytope, support_value
from meanrisk.losses import GPiece, TargetProfile, table_profile, zero_profile
from meanrisk.measures import adjusted_es, quantile_pieces
from meanrisk.fixtures import hull_gap_profile, hull_gap_profile_hat
from meanrisk.io import parse_measure
from meanrisk.frontier import recession_ball_min
from meanrisk.simplex import solve_lp
from test_lp_rows import pwl_losses, random_pwl

HALF = FiniteSpace(np.array([0.5, 0.5]))
X_PM1 = RandVar(HALF, np.array([-1.0, 1.0]))
EXP = LossFunction.exp()
PWL = LossFunction.pwl((0.5, 2.0), (0.0,))
BINOMIAL = Market.from_excess([0.5, 0.5], 0.0, [[1.0], [-0.5]])
TOL = dual.MEMBER_TOL


def pole_at(beta):
    """g(x) = 1/(x - beta) - 1/(1 - beta), unbounded near beta."""
    return general_profile(
        lambda x: 1.0 / (np.asarray(x) - beta) - 1.0 / (1.0 - beta), beta,
        True)


def closure_reference(spec):
    """The closure of the dual set as a table per family."""
    fam = spec.family
    if fam == "es":
        return DualSetSpec("box", 0.0, 1.0 / spec.alpha)
    if fam in ("wc", "lses"):
        return DualSetSpec("box", 0.0, math.inf)
    if fam == "eloss":
        return DualSetSpec("box", 1.0, 1.0)
    if fam == "adjes":
        g = spec.profile
        if g.beta == 0.0:
            return DualSetSpec("box", 0.0, math.inf)
        return DualSetSpec("supnorm", hi=1.0 / g.beta,
                           strict=not g.bounded_on_domain, profile=g)
    loss = spec.loss
    if fam == "oce":
        return DualSetSpec("box", loss.a_l, loss.b_l, loss=loss)
    if loss.zero_on_negatives or loss.a_l == 0.0 or loss.b_l == math.inf:
        return DualSetSpec("box", 0.0, math.inf)
    return DualSetSpec("scaled_box", a_l=loss.a_l, b_l=loss.b_l, loss=loss)


def closure_zoo():
    """A spec of every dual family, with every profile and loss form."""
    yield from (RiskSpec.es_at(0.3), RiskSpec.wc(), RiskSpec.expected_loss(),
                RiskSpec.lses_at(0.7))
    for g in (step_profile(0.4), zero_profile(), lses_profile(0.5),
              bounded_tail_profile(2.0, 0.4),
              table_profile([(0.2, 3.0), (0.5, 1.0), (1.0, 0.0)]),
              general_profile(lambda x: np.sqrt(1.0 / np.asarray(x) - 1.0),
                              0.2, False),
              general_profile(lambda x: 0.3 * (1.0 / np.asarray(x) - 1.0),
                              0.0, True, tail_coeff=0.3),
              pole_at(0.5)):
        yield RiskSpec.adjusted(g)
    for loss in (EXP, PWL, LossFunction.identity(),
                 LossFunction.pwl((0.0, 0.5, 2.0), (-1.0, 0.0)),
                 LossFunction.pwl((0.0, 2.0), (0.0,)),
                 LossFunction.power(2.0, 1.0), LossFunction.power(0.5, 1.0),
                 LossFunction.power(1.0, 2.0)):
        if loss.satisfies_l_geq_x:
            yield RiskSpec.oce_with(loss)
        yield RiskSpec.sr_with(loss)


def spec_zoo(rng):
    yield RiskSpec.es_at(float(rng.uniform(0.1, 0.9)))
    yield RiskSpec.wc()
    yield RiskSpec.lses_at(float(rng.uniform(0.05, 2.0)))
    yield RiskSpec.adjusted(step_profile(float(rng.uniform(0.2, 0.8))))
    yield RiskSpec.adjusted(bounded_tail_profile(2.0, 0.4))
    yield RiskSpec.adjusted(lses_profile(0.3))
    yield RiskSpec.oce_with(EXP)
    yield RiskSpec.oce_with(PWL)
    yield RiskSpec.sr_with(EXP)
    yield RiskSpec.sr_with(PWL)


class TestDualSets:
    def test_es_box(self):
        ds = dual_set(RiskSpec.es_at(0.25))
        assert ds.kind == "box" and ds.hi == pytest.approx(4.0)
        assert ds.penalty(np.array([1.0, 1.0]), HALF.probs) == 0.0

    def test_lses_linear_supnorm_penalty(self):
        ds = dual_set(RiskSpec.lses_at(0.7))
        assert ds.kind == "penalized_sup"
        z = np.array([0.5, 1.5])
        assert ds.penalty(z, HALF.probs) == pytest.approx(0.7 * 0.5)

    def test_adjusted_bounded_and_strict(self):
        bounded = step_profile(0.5)
        ds = dual_set(RiskSpec.adjusted(bounded))
        assert ds.kind == "supnorm" and ds.hi == pytest.approx(2.0)
        assert not ds.strict
        unbounded = general_profile(
            lambda x: 1.0 / (np.asarray(x) - 0.5) - 2.0, 0.5, True)
        ds = dual_set(RiskSpec.adjusted(unbounded))
        assert ds.strict

    def test_oce_entropy_penalty(self):
        ds = dual_set(RiskSpec.oce_with(EXP))
        assert ds.kind == "penalized"
        z = np.array([0.5, 1.5])
        expect = float(HALF.probs @ (z * np.log(z) - z + 1.0))
        assert ds.penalty(z, HALF.probs) == pytest.approx(expect)

    def test_sr_scaled_box_and_penalty_bracket(self):
        ds = dual_set(RiskSpec.sr_with(PWL))
        assert ds.kind == "scaled_box"
        assert (ds.a_l, ds.b_l) == (0.5, 2.0)
        # at Z = 1 the optimal multiplier lies in [a_l, b_l] and alpha(1) = 0
        assert ds.penalty(np.ones(2), HALF.probs) == pytest.approx(0.0,
                                                                   abs=1e-9)

    def test_scaled_box_penalty_is_exact(self, rng):
        # pwl: min over s of E[max_j (A_j Z + B_j s)] on a s <= Z <= b s is
        # an LP in (s, t); exp: E[Z log Z] - E[Z] log E[Z] in closed form
        for _ in range(40):
            n = int(rng.integers(1, 30))
            p = rng.uniform(0.2, 1.0, n)
            p /= p.sum()
            z = np.exp(rng.uniform(0.0, 2.0) * rng.normal(size=n))
            loss = random_pwl(rng)
            value = DualSetSpec("scaled_box", a_l=loss.a_l, b_l=loss.b_l,
                                loss=loss).penalty(z, p)
            a, b = loss.a_l, loss.b_l
            lo, hi = z.max() / b, (z.min() / a if a > 0.0 else np.inf)
            if lo > hi:
                assert value == math.inf
                continue
            rows = [np.hstack([np.full((n, 1), B), -np.eye(n)])
                    for _, B in loss.conjugate_cuts()]
            rhs = [-A * z for A, _ in loss.conjugate_cuts()]
            res = solve_lp(np.concatenate([[0.0], p]), A_ub=np.vstack(rows),
                           b_ub=np.concatenate(rhs),
                           lower=np.concatenate([[lo], np.full(n, -np.inf)]),
                           upper=np.concatenate([[hi], np.full(n, np.inf)]))
            assert value == pytest.approx(res.value, rel=1e-12, abs=1e-15)
            m = float(p @ z)
            want = float(p @ (z * np.log(z))) - m * math.log(m)
            assert DualSetSpec("scaled_box", a_l=0.0, b_l=math.inf,
                               loss=EXP).penalty(z, p) == \
                pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_closures(self):
        cd = closure_dual_set(RiskSpec.sr_with(PWL))
        assert cd.kind == "scaled_box"
        cd = closure_dual_set(RiskSpec.oce_with(PWL))
        assert cd.kind == "box" and (cd.lo, cd.hi) == (0.5, 2.0)
        cd = closure_dual_set(RiskSpec.adjusted(step_profile(0.5)))
        assert cd.kind == "supnorm" and not cd.strict
        unbounded = general_profile(
            lambda x: 1.0 / (np.asarray(x) - 0.5) - 2.0, 0.5, True)
        cd = closure_dual_set(RiskSpec.adjusted(unbounded))
        assert cd.strict and cd.hi == pytest.approx(2.0)
        cd = closure_dual_set(RiskSpec.lses_at(1.0))
        assert cd.kind == "box" and cd.hi == math.inf

    def test_closure_is_derived_from_the_dual_set(self):
        for spec in closure_zoo():
            assert closure_dual_set(spec) == closure_reference(spec), \
                spec.label()

    @given(pwl_losses())
    @settings(max_examples=80, deadline=None)
    def test_pwl_closures_match_the_table(self, loss):
        for spec in (RiskSpec.oce_with(loss), RiskSpec.sr_with(loss)):
            assert closure_dual_set(spec) == closure_reference(spec)

    def test_membership(self):
        ds = closure_dual_set(RiskSpec.adjusted(step_profile(0.5)))
        assert ds.contains(np.array([0.5, 1.5]))
        assert not ds.contains(np.array([2.5, 0.5]))
        sb = closure_dual_set(RiskSpec.sr_with(PWL))
        assert sb.contains(np.array([0.4, 1.6]))       # ratio 4 = b/a
        assert not sb.contains(np.array([0.2, 1.8]))   # ratio 9 > 4


class TestEveryKindAtItsBounds:
    """Membership and penalty of each set kind against closed forms at its
    bounds: z at lo and hi, within and beyond tol of them, and zmin = 0."""

    def test_box_and_supnorm_with_a_profile(self):
        g = table_profile([(0.25, 3.0), (1.0, 0.0)])   # 1/x - 1 on [1/4, 1]
        box = DualSetSpec("box", 0.5, 4.0, profile=g)
        sup = DualSetSpec("supnorm", hi=4.0, profile=g)
        for z, inside in (([0.5, 4.0], True), ([0.5 - TOL / 2, 4.0], True),
                          ([0.5 - 2 * TOL, 1.0], False),
                          ([1.0, 4.0 + TOL / 2], True),
                          ([1.0, 4.0 + 2 * TOL], False), ([0.0, 1.0], False)):
            assert box.contains(np.array(z)) == inside, z
        for z, inside in (([0.0, 4.0], True),
                          ([-TOL / 2, 4.0 + TOL / 2], True),
                          ([0.0, 4.0 + 2 * TOL], False),
                          ([-2 * TOL, 1.0], False)):
            assert sup.contains(np.array(z)) == inside, z
        for ds in (box, sup):
            assert ds.penalty([0.5, 1.5], HALF.probs) == pytest.approx(0.5)
            assert ds.penalty([1.0, 4.0], HALF.probs) == pytest.approx(3.0)
            assert ds.penalty([1.0, 1.0], HALF.probs) == 0.0

    def test_strict_supnorm(self):
        # g = 1/x - 1 flagged unbounded near beta = 1/2: +inf at M = 2
        g = general_profile(lambda x: 1.0 / np.asarray(x) - 1.0, 0.5, True)
        ds = DualSetSpec("supnorm", hi=2.0, strict=True, profile=g)
        for z, inside in (([0.0, 2.0], False), ([0.0, 2.0 - TOL / 2], False),
                          ([0.0, 2.0 - 2 * TOL], True), ([1.0, 1.0], True)):
            assert ds.contains(np.array(z)) == inside, z
        assert ds.penalty([0.0, 2.0], HALF.probs) == math.inf
        assert ds.penalty([0.4, 1.6], HALF.probs) == pytest.approx(0.6)

    def test_penalized_sup(self):
        for ds, value in ((DualSetSpec("penalized_sup", b=0.7), 0.7 * 9.0),
                          (DualSetSpec("penalized_sup",
                                       profile=bounded_tail_profile(2.0, 0.4)),
                           2.0)):
            assert ds.contains(np.array([0.0, 10.0]))
            assert ds.contains(np.array([-TOL / 2, 1e9]))
            assert not ds.contains(np.array([-2 * TOL, 1.0]))
            assert ds.penalty([0.0, 10.0], HALF.probs) == pytest.approx(value)
            assert ds.penalty([1.0, 1.0], HALF.probs) == pytest.approx(0.0)
        # min(2, 0.4 (M - 1)) below the cap
        ds = DualSetSpec("penalized_sup",
                         profile=bounded_tail_profile(2.0, 0.4))
        assert ds.penalty([0.0, 2.0], HALF.probs) == pytest.approx(0.4)

    def test_penalized_pwl(self):
        # l(x) = x on [-1, 1], slopes 1/2 and 2 beyond: l*(z) = |z - 1| on
        # [1/2, 2] and +inf off it
        ds = DualSetSpec("penalized",
                         loss=LossFunction.pwl((0.5, 1.0, 2.0), (-1.0, 1.0)))
        for z, inside in (([0.5, 2.0], True), ([0.5 - TOL / 2, 2.0], True),
                          ([0.5 - 2 * TOL, 1.0], False),
                          ([1.0, 2.0 + TOL / 2], True),
                          ([1.0, 2.0 + 2 * TOL], False), ([0.0, 1.0], False)):
            assert ds.contains(np.array(z)) == inside, z
        assert ds.penalty([0.5, 2.0], HALF.probs) == pytest.approx(0.75)
        assert ds.penalty([1.0, 1.0], HALF.probs) == pytest.approx(0.0)
        assert ds.penalty([0.5, 2.0 + 1e-9], HALF.probs) == math.inf
        assert ds.penalty([0.0, 1.0], HALF.probs) == math.inf

    def test_penalized_power(self):
        # c x^+ has l* = 0 on [0, c]; x^2 has l*(z) = z^2 / 4 on [0, inf)
        hinge = DualSetSpec("penalized", loss=LossFunction.power(2.0, 1.0))
        assert hinge.contains(np.array([0.0, 2.0]))
        assert not hinge.contains(np.array([0.0, 2.0 + 2 * TOL]))
        assert hinge.penalty([0.0, 2.0], HALF.probs) == 0.0
        assert hinge.penalty([0.0, 2.0 + 1e-9], HALF.probs) == math.inf
        square = DualSetSpec("penalized", loss=LossFunction.power(1.0, 2.0))
        assert square.contains(np.array([0.0, 1e9]))
        assert not square.contains(np.array([-2 * TOL, 1.0]))
        assert square.penalty([0.0, 2.0], HALF.probs) == pytest.approx(0.5)
        assert square.penalty([0.0, 4.0], HALF.probs) == pytest.approx(2.0)
        assert square.penalty([-1e-9, 2.0], HALF.probs) == math.inf

    def test_scaled_boxes(self):
        # some k > 0 puts k z in [a, b] iff a zmax <= b zmin
        two_sided = DualSetSpec("scaled_box", a_l=0.5, b_l=2.0, loss=PWL)
        for z, inside in (([0.5, 2.0], True), ([0.25, 1.0], True),
                          ([0.25, 1.0 + 1e-6], False), ([0.0, 1.0], False)):
            assert two_sided.contains(np.array(z)) == inside, z
        assert two_sided.penalty([0.0, 1.0], HALF.probs) == math.inf
        left = DualSetSpec("scaled_box", a_l=0.5, b_l=math.inf)
        for z, inside in (([2 * TOL, 5.0], True), ([TOL / 2, 5.0], False),
                          ([0.0, 5.0], False)):
            assert left.contains(np.array(z)) == inside, z
        right = DualSetSpec("scaled_box", a_l=0.0, b_l=2.0)
        assert right.contains(np.array([0.0, 7.0]))
        for degenerate in (DualSetSpec("scaled_box", a_l=0.0, b_l=math.inf),
                           DualSetSpec("scaled_box")):
            assert degenerate.contains(np.array([0.0, 1e9]))
            assert not degenerate.contains(np.array([-2 * TOL, 1.0]))


class TestDualEvaluate:
    def test_primal_dual_agreement(self, rng):
        checked = 0
        while checked < 120:
            for spec in spec_zoo(rng):
                n = int(rng.integers(2, 31))
                X = random_randvar(rng, n, scale=1.5)
                prim = evaluate(spec, X)
                du = dual_evaluate(spec, X)
                assert du == pytest.approx(prim, abs=1e-7), spec.label()
                checked += 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(-9, 6))
    # these failed while the simplex read each LP's costs in X's units
    @example(0, -5)
    @example(1, -9)
    def test_unit_free(self, seed, k):
        # the homogeneous families (lses with b scaled along) meet the
        # primal to 1e-12 max|X| at every scale of X
        s = 10.0 ** k
        local = np.random.default_rng(seed)
        X = random_randvar(local, int(local.integers(2, 61)))
        X = RandVar(X.space, s * X.values)
        for spec in (RiskSpec.es_at(0.1), RiskSpec.wc(),
                     RiskSpec.adjusted(step_profile(0.4)),
                     RiskSpec.oce_with(PWL), RiskSpec.sr_with(PWL),
                     RiskSpec.lses_at(0.5 * s)):
            assert abs(dual_evaluate(spec, X) - evaluate(spec, X)) <= \
                1e-12 * np.abs(X.values).max(), (spec.label(), k)

    def test_expected_loss_needs_no_lp(self, rng, monkeypatch):
        # the only density is Z = 1, so the value is E[-X]
        def no_lp(*args, **kwargs):
            raise AssertionError("solve_lp called")

        monkeypatch.setattr(dual, "solve_lp", no_lp)
        for n in (1, 7, 60):
            X = random_randvar(rng, n, scale=1.5)
            assert dual_evaluate(RiskSpec.expected_loss(), X) == \
                evaluate(RiskSpec.expected_loss(), X)

    def test_exp_families_match_decimal_log_mean_exp(self, rng):
        # sr and oce with the exp loss are log E[exp(-X)]: exact to rounding
        # at every scale of X, and without overflow at |X| ~ 700
        def reference(X):
            with localcontext() as ctx:
                ctx.prec = 60
                p = [Decimal(float(q)) for q in X.space.probs]
                mean = sum(q * (-Decimal(float(x))).exp()
                           for q, x in zip(p, X.values)) / sum(p)
                return float(mean.ln())

        base = [random_randvar(rng, int(rng.integers(2, 12)))
                for _ in range(4)]
        cases = [X.scaled(10.0 ** k) for X in base for k in range(-9, 3)]
        cases += [RandVar(HALF, np.array([-800.0, 0.0])),
                  RandVar(HALF, np.array([700.0, -720.0]))]
        for X in cases:
            want = reference(X)
            scale = float(np.max(np.abs(X.values)))
            for spec in (RiskSpec.sr_with(EXP), RiskSpec.oce_with(EXP)):
                assert abs(evaluate(spec, X) - want) <= 1e-13 * scale, \
                    (spec.label(), X.values)
                assert abs(dual_evaluate(spec, X) - want) <= 1e-12 * scale, \
                    (spec.label(), X.values)

    def test_var_and_ew_rejected(self):
        with pytest.raises(ValueError):
            dual_evaluate(RiskSpec.var_at(0.3), X_PM1)
        with pytest.raises(ValueError):
            dual_set(RiskSpec.ew_with(EXP))

    def test_beta_round_trip_keeps_the_boundary_candidate(self, rng):
        # 1/(1/beta) can land one ulp below beta; the profile must still
        # price the boundary level finitely or the dual scan drops it
        for beta in (0.49755912168092636, 1.0 / 3.0, 0.7234567890123):
            g = step_profile(beta)
            assert float(g.value(1.0 / (1.0 / beta))) == 0.0
            spec = RiskSpec.adjusted(g)
            for _ in range(5):
                X = random_randvar(rng, 9)
                assert dual_evaluate(spec, X) == pytest.approx(
                    evaluate(spec, X), abs=1e-8)


def candidate_scan_adjes(X, profile):
    """Reference: a box LP at every candidate sup-norm bound (quantile
    breakpoints and piece edges), exhaustive for const / invlin pieces."""
    _, _, cum, _ = quantile_pieces(X)
    m_cap = 1.0 / float(cum[0])
    if profile.beta > 0.0:
        m_cap = min(m_cap, 1.0 / profile.beta)
    cand = {1.0, m_cap}
    cand.update(1.0 / float(f) for f in cum[:-1]
                if 1.0 <= 1.0 / float(f) <= m_cap)
    cand.update(1.0 / e for pc in profile.pieces for e in (pc.lo, pc.hi)
                if e > 0 and 1.0 <= 1.0 / e <= m_cap)
    best = -math.inf
    for m_bound in cand:
        g = float(profile.value(1.0 / m_bound))
        if math.isfinite(g):
            best = max(best, support_value(DualSetSpec("box", 0.0, m_bound),
                                           X) - g)
    return best


def affine_profiles():
    """Profiles with constant / affine-in-1/x pieces only."""
    return {"step": step_profile(0.4), "zero": zero_profile(),
            "invlin": TargetProfile((GPiece(0.25, 1.0, "invlin", a=-0.4,
                                            b=0.4),), 0.25, False),
            "table": table_profile([(0.2, 3.0), (0.5, 1.0), (1.0, 0.0)]),
            "bounded_tail": bounded_tail_profile(2.0, 0.4),
            "lses": lses_profile(0.5)}


class TestAdjustedEsDual:
    def test_piece_lps_match_candidate_scan_and_primal(self, rng):
        for n in (3, 20, 60):
            for _ in range(4):
                X = random_randvar(rng, n)
                for name, g in affine_profiles().items():
                    value = dual_evaluate(RiskSpec.adjusted(g), X)
                    assert value == pytest.approx(
                        candidate_scan_adjes(X, g), rel=1e-12, abs=1e-12), \
                        (name, n)
                    assert value == pytest.approx(
                        adjusted_es(X, g), rel=1e-9, abs=1e-9), (name, n)
                assert dual_evaluate(RiskSpec.lses_at(0.5), X) == \
                    pytest.approx(candidate_scan_adjes(X, lses_profile(0.5)),
                                  rel=1e-12, abs=1e-12)

    def test_one_lp_per_profile_piece(self, rng, monkeypatch):
        seen = []
        inner = dual.solve_lp

        def counted(*args, **kwargs):
            seen.append(None)
            return inner(*args, **kwargs)

        monkeypatch.setattr(dual, "solve_lp", counted)
        # uniform atoms: every piece edge lies above P[worst atom] = 1/40
        X = RandVar(FiniteSpace(np.full(40, 1.0 / 40)),
                    rng.normal(0.0, 1.0, 40))
        for name, g in affine_profiles().items():
            seen.clear()
            dual_evaluate(RiskSpec.adjusted(g), X)
            assert len(seen) == len(g.pieces), name
        seen.clear()
        dual_evaluate(RiskSpec.lses_at(0.5), X)
        assert len(seen) == 1


def equality_box_lp(X, lo, hi):
    """Reference: max E[-zX] over lo <= z_i <= hi with the row E[z] = 1."""
    p = X.space.probs
    return solve_lp(-p * X.values, A_eq=p[None, :], b_eq=[1.0],
                    lower=np.full(p.size, lo), upper=np.full(p.size, hi),
                    maximize=True).value


def equality_adjes_lp(X, profile):
    """Reference: one LP in (z, M) per affine piece over 0 <= z_i <= M with
    the row E[z] = 1, in X itself rather than X - max X."""
    _, _, cum, _ = quantile_pieces(X)
    m_cap = 1.0 / float(cum[0])
    if profile.beta > 0.0:
        m_cap = min(m_cap, 1.0 / profile.beta)
    n, p = X.space.n, X.space.probs
    best = -math.inf
    for lo, hi, a, b in profile.affine_pieces():
        m_lo = 1.0 / hi
        m_hi = m_cap if lo == 0.0 else min(m_cap, 1.0 / lo)
        if m_lo > m_hi:
            continue
        res = solve_lp(np.append(-p * X.values, -b),
                       A_ub=np.hstack([np.eye(n), -np.ones((n, 1))]),
                       b_ub=np.zeros(n), A_eq=np.append(p, 0.0)[None, :],
                       b_eq=[1.0], lower=np.append(np.zeros(n), m_lo),
                       upper=np.append(np.full(n, np.inf), m_hi),
                       maximize=True)
        best = max(best, res.value - a)
    return best


class TestBoxDualsStartFeasible:
    """The box LPs of ``_adjes_dual`` and ``support_value`` run over
    X - max X with E[z] <= 1, so their slack basis is feasible."""

    SPECS = ("es:0.25", "wc", "lses:0.5", "lses:2", "adjes:g=step(0.4)",
             "adjes:g=table(0.2,3;0.5,1;1,0)", "adjes:g=0.5*(1/x-1)")
    BOXES = ((0.0, 2.5), (0.5, 3.0))

    @staticmethod
    def reference(spec, X):
        if spec.family == "es":
            return equality_box_lp(X, 0.0, 1.0 / spec.alpha)
        if spec.family == "wc":
            return equality_box_lp(X, 0.0, math.inf)
        profile = lses_profile(spec.b) if spec.family == "lses" \
            else spec.profile
        return equality_adjes_lp(X, profile)

    def test_no_phase1_and_equality_row_values(self, rng, monkeypatch):
        seen = []
        inner = dual.solve_lp

        def spy(*args, **kwargs):
            res = inner(*args, **kwargs)
            seen.append(res)
            return res

        monkeypatch.setattr(dual, "solve_lp", spy)
        specs = [parse_measure(m) for m in self.SPECS]
        for n in (1, 5, 60):
            for _ in range(2):
                base = random_randvar(rng, n)
                for k in range(-4, 4):
                    X = base.scaled(10.0 ** k)
                    tol = 1e-12 * (1.0 + float(np.max(np.abs(X.values))))
                    for spec in specs:
                        assert abs(dual_evaluate(spec, X) - self.reference(
                            spec, X)) <= tol, (spec.label(), n, k)
                    for lo, hi in self.BOXES:
                        got = support_value(DualSetSpec("box", lo, hi), X)
                        assert abs(got - equality_box_lp(X, lo, hi)) <= tol, \
                            ((lo, hi), n, k)
        assert len(seen) > 0
        assert all(res.status == "optimal" for res in seen)
        assert all(res.phase1_pivots == 0 for res in seen)

    def test_box_without_a_density_is_infeasible(self):
        for lo, hi in ((1.5, 3.0), (0.0, 0.5)):
            with pytest.raises(dual.LPError, match="infeasible"):
                support_value(DualSetSpec("box", lo, hi), X_PM1)


class TestGeneralProfileDual:
    """The candidate scan behind profiles with a general piece."""

    def test_pole_is_never_evaluated(self):
        # the scan prices the cap M = 1/beta, where g = +inf; the profile
        # must not call its piece there
        def g(x):
            assert np.all(np.asarray(x) > 0.1)
            return 1.0 / (np.asarray(x) - 0.1) - 1.0 / 0.9

        assert general_profile(g, 0.1, True).value(0.1) == math.inf
        X = RandVar(FiniteSpace(np.full(20, 0.05)), np.linspace(-1.0, 1.0, 20))
        spec = RiskSpec.adjusted(pole_at(0.1))
        assert dual_evaluate(spec, X) == pytest.approx(
            evaluate(spec, X), rel=1e-12, abs=1e-12)

    def test_scan_matches_primal(self, rng):
        profiles = [general_profile(fn, 0.2, False) for fn in (
            lambda x: 0.3 * (1.0 / np.asarray(x) - 1.0),
            lambda x: 0.5 * (1.0 - np.asarray(x)) ** 2 / np.asarray(x),
            lambda x: np.sqrt(1.0 / np.asarray(x) - 1.0))] + [pole_at(0.1)]
        for k, n in enumerate((2, 5, 9, 14, 20, 27, 33, 39, 3, 12)):
            spec = RiskSpec.adjusted(profiles[k % len(profiles)])
            X = random_randvar(rng, n, scale=1.5)
            assert dual_evaluate(spec, X) == pytest.approx(
                evaluate(spec, X), rel=1e-12, abs=1e-12), (k, n)

    def test_large_spaces_rejected(self, rng):
        spec = RiskSpec.adjusted(pole_at(0.1))
        with pytest.raises(ValueError, match="small spaces"):
            dual_evaluate(spec, random_randvar(rng, 401))


class TestRecession:
    def test_homogeneous_families_fixed(self, rng):
        X = random_randvar(rng, 7)
        for spec in (RiskSpec.es_at(0.3), RiskSpec.wc(),
                     RiskSpec.var_at(0.3)):
            assert recession_value(spec, X) == pytest.approx(
                evaluate(spec, X), abs=1e-12)

    def test_lses_recession_is_worst_case(self, rng):
        X = random_randvar(rng, 9)
        spec = RiskSpec.lses_at(0.8)
        assert recession_value(spec, X) == pytest.approx(worst_case(X))
        t = 2.0 ** 20
        assert evaluate(spec, X.scaled(t)) / t == pytest.approx(
            worst_case(X), abs=1e-5)

    def test_oce_exp_recession_is_worst_case(self, rng):
        X = random_randvar(rng, 6)
        assert recession_value(RiskSpec.oce_with(EXP), X) == \
            pytest.approx(worst_case(X), abs=1e-9)

    def test_adjusted_es_beta(self, rng):
        X = random_randvar(rng, 8)
        spec = RiskSpec.adjusted(step_profile(0.35))
        assert recession_value(spec, X) == pytest.approx(es(X, 0.35))
        spec = RiskSpec.adjusted(bounded_tail_profile(1.0, 0.2))
        assert recession_value(spec, X) == pytest.approx(worst_case(X))

    def test_sr_scaled_box_vs_threshold_scan(self, rng):
        # oracle: maximise E[-Xw]/E[w] over the box [a, b]^n by scanning
        # thresholds on -x (the optimum loads b above a cut and a below)
        for _ in range(12):
            X = random_randvar(rng, 6)
            spec = RiskSpec.sr_with(PWL)
            value = recession_value(spec, X)
            p, x = X.space.probs, X.values
            best = -math.inf
            for cut in np.concatenate([-x, [math.inf]]):
                w = np.where(-x >= cut, 2.0, 0.5)
                best = max(best, float(p @ (w * -x)) / float(p @ w))
            assert value == pytest.approx(best, abs=1e-8)

    def test_ew_recession_slopes(self, rng):
        X = random_randvar(rng, 6)
        spec = RiskSpec.ew_with(PWL)
        y = -X.values
        expect = float(X.space.probs @ np.where(y > 0, 2.0 * y, 0.5 * y))
        assert recession_value(spec, X) == pytest.approx(expect)
        assert recession_value(RiskSpec.ew_with(EXP),
                               RandVar(HALF, np.array([-1.0, 1.0]))) == math.inf
        assert recession_value(RiskSpec.ew_with(EXP),
                               RandVar(HALF, np.array([0.5, 1.0]))) == \
            pytest.approx(0.0)

    def test_majorant_and_homogeneity(self, rng):
        for spec in spec_zoo(rng):
            X = random_randvar(rng, 8)
            r1 = recession_value(spec, X)
            assert r1 >= evaluate(spec, X) - 1e-9
            for lam in (0.5, 3.0):
                assert recession_value(spec, X.scaled(lam)) == \
                    pytest.approx(lam * r1, abs=1e-9 * max(1, abs(r1)))

    def test_probe_monotone_to_limit(self, rng):
        # the gap rho^inf - rho(tX)/t is bounded by (dual penalty)/t, so the
        # 1e-6 closeness at t = 2^20 needs a penalty constant of order one
        ladder = [2.0 ** k for k in range(0, 21, 4)]
        for spec in (RiskSpec.lses_at(1.0), RiskSpec.oce_with(EXP),
                     RiskSpec.sr_with(PWL), RiskSpec.es_at(0.4)):
            X = random_randvar(rng, 6)
            seq = numeric_recession_probe(spec, X, ladder)
            assert np.all(np.diff(seq) >= -1e-10)
            r1 = recession_value(spec, X)
            assert seq[-1] <= r1 + 1e-9
            assert abs(seq[-1] - r1) <= max(1e-5, 1e-5 * abs(r1))
        X = RandVar(HALF, np.array([-1.0, 1.0]))
        for spec in (RiskSpec.es_at(0.4), RiskSpec.lses_at(0.25)):
            seq = numeric_recession_probe(spec, X, ladder)
            r1 = recession_value(spec, X)
            assert abs(seq[-1] - r1) <= max(1e-6, 1e-6 * abs(r1))

    def test_probe_rejects_bad_ladder(self):
        with pytest.raises(ValueError):
            numeric_recession_probe(RiskSpec.wc(), X_PM1, [0.5, 2.0])
        with pytest.raises(ValueError):
            numeric_recession_probe(RiskSpec.wc(), X_PM1, [1.0, 1.0])

    def test_zero_variable_all_zero(self):
        Z = RandVar(HALF, np.zeros(2))
        seq = numeric_recession_probe(RiskSpec.lses_at(0.3), Z)
        assert np.allclose(seq, 0.0)

    def test_weak_sensitivity_transfer(self, rng):
        # centered variables with losses have positive recession risk exactly
        # for the weakly sensitive families
        from meanrisk import classify_sensitivity
        specs = (RiskSpec.es_at(0.4), RiskSpec.lses_at(0.7), RiskSpec.wc(),
                 RiskSpec.expected_loss())
        for _ in range(25):
            n = int(rng.integers(2, 11))
            X = random_randvar(rng, n)
            X = RandVar(X.space, X.values - X.mean())
            if float(np.min(X.values)) >= 0 or np.ptp(X.values) < 1e-9:
                continue
            for spec in specs:
                weak = classify_sensitivity(spec).weak
                assert (recession_value(spec, X) > 1e-12) == weak, spec.label()


class TestMartingaleFeasibility:
    def test_binomial_unique_density(self):
        w = martingale_feasibility(BINOMIAL, None)
        assert np.allclose(w.z, [2.0 / 3.0, 4.0 / 3.0])

    def test_supnorm_bounds(self):
        assert martingale_feasibility(
            BINOMIAL, DualSetSpec("supnorm", hi=1.2)) is None
        w = martingale_feasibility(BINOMIAL, DualSetSpec("supnorm", hi=2.0))
        assert np.allclose(w.z, [2.0 / 3.0, 4.0 / 3.0])

    def test_interior_strictness(self):
        w = interior_martingale_feasibility(
            BINOMIAL, DualSetSpec("supnorm", hi=2.0, strict=True))
        assert w is not None and w.sup_norm < 2.0
        assert interior_martingale_feasibility(
            BINOMIAL, DualSetSpec("supnorm", hi=4.0 / 3.0, strict=True)) is None
        eps, _ = interior_slack(BINOMIAL,
                                DualSetSpec("supnorm", hi=2.0, strict=True))
        assert eps == pytest.approx(min(2.0 / 3.0, 2.0 - 4.0 / 3.0), abs=1e-9)

    def test_density_vanishing_on_an_atom_blocks_every_interior(self):
        m = Market.from_excess([1 / 3, 1 / 3, 1 / 3], 0.0,
                               np.array([[1.0, 0.0], [-1.0, 0.0],
                                         [0.0, 1.0]]))
        for ds in (DualSetSpec("box", 0.0, math.inf),
                   DualSetSpec("supnorm", hi=5.0, strict=True),
                   closure_dual_set(RiskSpec.sr_with(PWL))):
            assert interior_martingale_feasibility(m, ds) is None
        assert martingale_feasibility(m, None) is not None

    def test_first_kind_ftap(self, rng):
        # no classical arbitrage <=> an equivalent martingale density exists
        for seed in range(40):
            local = np.random.default_rng(seed)
            n = int(local.integers(2, 6))
            m = random_market(local, n=n, d=int(local.integers(1, min(4, n))))
            has_arb = check_classical_arbitrage(m) is not None
            emm = interior_martingale_feasibility(
                m, DualSetSpec("box", 0.0, math.inf))
            assert has_arb == (emm is None)

    def test_second_kind_ftap(self, rng):
        # M empty <=> some portfolio has uniformly positive excess return
        for seed in range(40):
            local = np.random.default_rng(seed)
            n = int(local.integers(2, 6))
            m = random_market(local, n=n, d=int(local.integers(1, min(4, n))))
            acmm = martingale_feasibility(m, None)
            ball, _ = recession_ball_min(RiskSpec.wc(), m)
            assert (acmm is None) == (ball < -1e-9)

    def test_scaled_box_feasibility(self):
        # unique density (2/3, 4/3): ratio 2 <= b/a = 4, so SR admits it
        w = martingale_feasibility(BINOMIAL, closure_dual_set(
            RiskSpec.sr_with(PWL)))
        assert w is not None
        narrow = LossFunction.pwl((0.8, 1.2), (0.0,))
        assert martingale_feasibility(
            BINOMIAL, closure_dual_set(RiskSpec.sr_with(narrow))) is None


class TestMartingaleSetsType:
    def test_membership_and_elements(self):
        from meanrisk import MartingaleSets
        ms = MartingaleSets(BINOMIAL)
        assert ms.member_of_m([2 / 3, 4 / 3])
        assert ms.member_of_p([2 / 3, 4 / 3])
        assert not ms.member_of_m([1.0, 1.0])
        assert np.allclose(ms.element_of_m().z, [2 / 3, 4 / 3])
        assert ms.element_of_p() is not None


class TestSupportValue:
    def test_box_support_is_es(self, rng):
        X = random_randvar(rng, 10)
        assert support_value(DualSetSpec("box", 0.0, 2.5), X) == \
            pytest.approx(es(X, 0.4), abs=1e-9)

    def test_negative_box_lower_bound_is_zero(self):
        # densities are nonnegative, so the box [-0.5, 2] is the box [0, 2]:
        # z = 2 on the atoms -2 and 0.5 gives E[-ZX] = (4 - 1) / 4
        X = RandVar(FiniteSpace(np.full(4, 0.25)),
                    np.array([1.0, -2.0, 0.5, 3.0]))
        got = support_value(DualSetSpec("box", -0.5, 2.0), X)
        assert got == pytest.approx(0.75, abs=1e-12)
        assert got == support_value(DualSetSpec("box", 0.0, 2.0), X)

    def test_polytope_shapes(self):
        # over w = z - a s the lower bounds are w >= 0: one row per atom
        pt = set_polytope(DualSetSpec("scaled_box", a_l=0.5, b_l=2.0), HALF)
        assert pt.nvars == 3 and pt.A_ub.shape[0] == 2


class TestGHatTransform:
    def test_convex_profile_is_fixed(self):
        # a profile already convex in 1/x is unchanged by the hull
        g = general_profile(lambda x: 0.4 * (1.0 / np.asarray(x) - 1.0),
                            0.25, False)
        hat = g_hat_transform(g, grid=4000)
        xs = np.linspace(0.26, 1.0, 60)
        assert np.max(np.abs(hat.value(xs) - g.value(xs))) < 2e-3

    def test_step_profile_identity(self):
        g = step_profile(0.5)
        hat = g_hat_transform(g, grid=4000)
        xs = np.linspace(0.51, 1.0, 60)
        assert np.max(np.abs(hat.value(xs) - g.value(xs))) < 1e-9

    def test_hull_gap_closed_form(self):
        g = hull_gap_profile()
        hat = g_hat_transform(g, grid=20000)
        closed = hull_gap_profile_hat()
        xs = np.linspace(0.602, 1.0, 300)
        assert np.max(np.abs(hat.value(xs) - closed.value(xs))) < 1e-3
        # the middle branch is untouched and beta-unboundedness survives
        xs_mid = np.linspace(0.52, 0.59, 40)
        assert np.max(np.abs(hat.value(xs_mid) - g.value(xs_mid))) < 1e-3
        assert hat.value(0.5) == math.inf
        assert not hat.bounded_on_domain

    def test_pointwise_dominated(self):
        g = hull_gap_profile()
        hat = g_hat_transform(g, grid=8000)
        xs = np.linspace(0.52, 1.0, 100)
        assert np.all(hat.value(xs) <= g.value(xs) + 1e-6)

    def test_needs_interior_beta(self):
        with pytest.raises(ValueError):
            g_hat_transform(lses_profile(0.3))
