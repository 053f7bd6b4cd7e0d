"""Price intervals: nesting, attainment flags, augmentation consistency,
and the lifted density polytopes against LPs over z itself."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meanrisk.pricing as pricing
from conftest import random_market
from meanrisk import (DualSetSpec, LossFunction, LPError, Market,
                      MartingaleSets, PriceInterval, RandVar, RiskSpec,
                      augment_market, closure_dual_set, detect_arbitrage,
                      dual_set, general_profile, martingale_feasibility,
                      price_bounds, solve_lp, step_profile)
from meanrisk.dual import ALL_DENSITIES, SLACK_TOL, interior_slack
from meanrisk.io import parse_measure
from meanrisk.pricing import KINDS, REPLICATION_TOL, is_replicable
from meanrisk.simplex import OPTIMAL
from test_lp_rows import (interior_polytope_loop, random_dual_sets,
                          set_polytope_loop)

TRINOMIAL = Market.from_excess([0.25, 0.25, 0.5], 0.0,
                               [[0.4], [-0.2], [0.1]])
PAYOFF = RandVar(TRINOMIAL.space, np.array([2.0, 0.5, 1.0]))
ES_HALF = RiskSpec.es_at(0.5)


class TestPreconditions:
    def test_replicable_payoff_rejected(self):
        y = RandVar(TRINOMIAL.space,
                    1.5 + 2.0 * TRINOMIAL.excess[:, 0])
        assert is_replicable(TRINOMIAL, y)
        with pytest.raises(ValueError):
            price_bounds(TRINOMIAL, y, ES_HALF, "NO_ARB")

    def test_market_with_arbitrage_rejected(self):
        m = Market.from_excess([0.5, 0.3, 0.2], 0.0,
                               [[0.5], [0.1], [0.0]])
        y = RandVar(m.space, np.array([1.0, 3.0, 0.5]))
        with pytest.raises(ValueError):
            price_bounds(m, y, None, "NO_ARB")

    def test_rho_arbitrage_market_rejected(self):
        m = Market.from_excess([0.4, 0.4, 0.2], 0.0,
                               [[1.0], [-0.5], [0.0]])
        spec = RiskSpec.es_at(0.9)   # tight bound: no interior density
        with pytest.raises(ValueError):
            price_bounds(m, RandVar(m.space, np.array([1.0, 2.0, 3.0])),
                         spec, "NO_RHO_ARB")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            price_bounds(TRINOMIAL, PAYOFF, ES_HALF, "NO_GOOD_DEAL")


class TestIntervals:
    def test_trinomial_strictly_nested(self):
        outer = price_bounds(TRINOMIAL, PAYOFF, None, "NO_ARB")
        inner = price_bounds(TRINOMIAL, PAYOFF, ES_HALF, "NO_RHO_ARB")
        assert outer.lower <= inner.lower + 1e-10
        assert inner.upper <= outer.upper + 1e-10
        assert inner.upper < outer.upper - 1e-6  # strictly tighter here

    def test_full_support_dual_set_recovers_no_arb(self):
        # the closed dual set of the loss sensitive family is every density,
        # so its strong-arbitrage interval equals the no-arbitrage interval
        outer = price_bounds(TRINOMIAL, PAYOFF, None, "NO_ARB")
        strong = price_bounds(TRINOMIAL, PAYOFF, RiskSpec.lses_at(0.4),
                              "NO_STRONG_RHO_ARB")
        assert strong.lower == pytest.approx(outer.lower, abs=1e-9)
        assert strong.upper == pytest.approx(outer.upper, abs=1e-9)

    def test_nesting_on_random_markets(self, rng):
        done = 0
        for seed in range(60):
            local = np.random.default_rng(seed)
            n = int(local.integers(3, 6))
            m = random_market(local, n=n,
                              d=int(local.integers(1, n - 1)),
                              arbitrage_free=True)
            y = RandVar(m.space, local.normal(1.0, 0.5, n))
            if is_replicable(m, y):
                continue
            spec = RiskSpec.es_at(0.35)
            try:
                inner = price_bounds(m, y, spec, "NO_RHO_ARB")
            except ValueError:
                continue  # market admits rho-arbitrage for this level
            outer = price_bounds(m, y, None, "NO_ARB")
            assert outer.lower <= inner.lower + 1e-8
            assert inner.upper <= outer.upper + 1e-8
            assert inner.lower <= inner.upper + 1e-12
            done += 1
        assert done >= 10

    def test_discounting(self):
        m = Market.from_excess([0.25, 0.25, 0.5], 0.25, [[0.4], [-0.2], [0.1]])
        y = RandVar(m.space, np.array([2.0, 0.5, 1.0]))
        outer = price_bounds(m, y, None, "NO_ARB")
        # discounted by 1/(1+r) relative to the zero-rate market
        base = price_bounds(TRINOMIAL, PAYOFF, None, "NO_ARB")
        assert outer.upper <= base.upper / 1.25 + 1e-9 + 1e-9


class TestAttainmentFlags:
    def test_no_arb_endpoints_open_when_density_degenerates(self):
        # extreme prices need a vanishing density, so they are not attained
        outer = price_bounds(TRINOMIAL, PAYOFF, None, "NO_ARB")
        assert not outer.lower_attained and not outer.upper_attained

    def test_strong_kind_endpoints_attained_for_closed_sets(self):
        strong = price_bounds(TRINOMIAL, PAYOFF, ES_HALF,
                              "NO_STRONG_RHO_ARB")
        assert strong.lower_attained and strong.upper_attained


class TestUnits:
    """The interval is positively homogeneous in the payoff, flags and all
    (plain bools), down to payoffs of size 1e-12."""

    STRICT = RiskSpec.adjusted(general_profile(lambda x: 1 / (x - 0.5) - 2,
                                               0.5, True))

    def test_scaled_payoff_scales_the_interval(self):
        cases = [(TRINOMIAL, PAYOFF, ES_HALF)]
        for seed in range(4):
            local = np.random.default_rng(100 + seed)
            m = random_market(local, n=6, d=2, arbitrage_free=True)
            cases.append((m, RandVar(m.space, local.normal(1.0, 0.5, 6)),
                          self.STRICT))
        checked = 0
        for m, y, spec in cases:
            for kind in KINDS:
                try:
                    base = price_bounds(m, y, spec, kind)
                except ValueError:
                    continue
                for k in range(-12, 4):
                    s = 10.0 ** k
                    iv = price_bounds(m, RandVar(m.space, s * y.values), spec,
                                      kind)
                    assert iv.lower == pytest.approx(s * base.lower, rel=1e-9)
                    assert iv.upper == pytest.approx(s * base.upper, rel=1e-9)
                    assert ((iv.lower_attained, iv.upper_attained)
                            == (base.lower_attained, base.upper_attained)), k
                    assert type(iv.lower_attained) is bool
                    assert type(iv.upper_attained) is bool
                checked += 1
        assert checked >= 9, checked


class TestAugmentationConsistency:
    def test_inside_and_outside_prices(self):
        inner = price_bounds(TRINOMIAL, PAYOFF, ES_HALF, "NO_RHO_ARB")
        for frac in (0.25, 0.5, 0.75):
            p = inner.lower + frac * (inner.upper - inner.lower)
            rep = detect_arbitrage(ES_HALF, augment_market(TRINOMIAL,
                                                           PAYOFF, p))
            assert not rep.rho_arbitrage
        for p in (inner.lower - 0.05, inner.upper + 0.05):
            rep = detect_arbitrage(ES_HALF, augment_market(TRINOMIAL,
                                                           PAYOFF, p))
            assert rep.rho_arbitrage

    def test_outside_no_arb_interval_gives_classical_arbitrage(self):
        outer = price_bounds(TRINOMIAL, PAYOFF, None, "NO_ARB")
        from meanrisk import check_classical_arbitrage
        m_bad = augment_market(TRINOMIAL, PAYOFF, outer.upper + 0.05)
        assert check_classical_arbitrage(m_bad) is not None
        m_ok = augment_market(TRINOMIAL, PAYOFF,
                              0.5 * (outer.lower + outer.upper))
        assert check_classical_arbitrage(m_ok) is None


def _unshifted_lp(m, ds, interior):
    """Rows over z itself, the first n columns: the loop rows of the
    density polytope before the lift (interior or closed, the closed one
    with a slack column on its strict rows) plus the martingale rows.
    Returns the rows and the slack's column, None for a closed set without
    strict rows."""
    if interior:
        nvars, A_ub, b_ub, A_eq = interior_polytope_loop(ds, m.space)
        slack = nvars - 1
    else:
        nvars, A_ub, b_ub, A_eq, strict = set_polytope_loop(ds, m.space)
        slack = None
        if strict:
            slack, nvars = nvars, nvars + 1
            A_ub = np.hstack([A_ub, np.zeros((A_ub.shape[0], 1))])
            A_ub[strict, slack] = 1.0
            A_eq = np.hstack([A_eq, np.zeros((1, 1))])
    mg = np.zeros((m.d, nvars))
    mg[:, :m.space.n] = (m.excess * m.space.probs[:, None]).T
    return dict(A_ub=A_ub, b_ub=b_ub, A_eq=np.vstack([A_eq, mg]),
                b_eq=np.concatenate([[1.0], np.zeros(m.d)])), slack


def _slack_cost(rows, slack):
    c = np.zeros(rows["A_eq"].shape[1])
    if slack is not None:
        c[slack] = 1.0
    return c


def _reference_interior_slack(m, ds):
    """interior_slack on the unshifted rows: the maximal slack and z at it
    (None unless the slack exceeds SLACK_TOL)."""
    rows, slack = _unshifted_lp(m, ds, True)
    res = solve_lp(_slack_cost(rows, slack), maximize=True, **rows)
    if res.status != OPTIMAL:
        return -np.inf, None
    eps = float(res.x[slack])
    return eps, (res.x[:m.space.n] if eps > SLACK_TOL else None)


def _reference_martingale_feasibility(m, ds):
    """martingale_feasibility on the unshifted rows: z, or None."""
    rows, slack = _unshifted_lp(m, ds, False)
    res = solve_lp(_slack_cost(rows, slack), maximize=slack is not None,
                   **rows)
    if res.status != OPTIMAL or (slack is not None
                                 and res.x[slack] <= SLACK_TOL):
        return None
    return res.x[:m.space.n]


def _reference_attained(m, att_set, price_vec, bound, need_positive):
    """One LP per endpoint: maximise the strict slack with the bound pinned."""
    rows, slack = _unshifted_lp(m, att_set, need_positive)
    if slack is None:
        return True
    pin = np.zeros(rows["A_eq"].shape[1])
    pin[:m.space.n] = price_vec
    res = solve_lp(_slack_cost(rows, slack), A_ub=rows["A_ub"],
                   b_ub=rows["b_ub"], A_eq=np.vstack([rows["A_eq"], pin]),
                   b_eq=np.append(rows["b_eq"], bound), maximize=True)
    return res.status == OPTIMAL and res.x[slack] > SLACK_TOL


def _reference_interval(m, payoff, kind, interior_set, closed_set):
    """price_bounds as separate LPs on the unshifted rows: a feasibility LP
    (the interior slack, or M intersected with the closed set), cold min
    and max over the closed set, and one pinned-bound LP per endpoint for
    its attainment.  NO_ARB ignores the two sets."""
    basis = np.hstack([np.ones((m.space.n, 1)), m.excess])
    coef, *_ = np.linalg.lstsq(basis, payoff.values, rcond=None)
    residual = float(np.linalg.norm(basis @ coef - payoff.values))
    if residual <= REPLICATION_TOL * max(1.0, np.linalg.norm(payoff.values)):
        raise ValueError("payoff is replicable; its price is determined by "
                         "the market")
    price_vec = m.space.probs * payoff.values / (1.0 + m.r)
    if kind == "NO_ARB":
        att_set = closed = DualSetSpec("box", 0.0, np.inf)
        if _reference_interior_slack(m, att_set)[1] is None:
            raise ValueError("market admits classical arbitrage; the "
                             "price interval is empty")
        label = "martingale densities M (attainment in P)"
    elif kind == "NO_RHO_ARB":
        att_set, closed = interior_set, closed_set
        if _reference_interior_slack(m, att_set)[1] is None:
            raise ValueError("market admits rho-arbitrage for this measure")
        label = "strict-interior dual set intersected with P"
    else:
        att_set = closed = closed_set
        if _reference_martingale_feasibility(m, att_set) is None:
            raise ValueError("market admits strong rho-arbitrage for this "
                             "measure")
        label = "closed dual set intersected with M"
    rows, _ = _unshifted_lp(m, closed, False)
    c = np.zeros(rows["A_eq"].shape[1])
    c[:m.space.n] = price_vec
    legs = solve_lp(c, **rows), solve_lp(c, maximize=True, **rows)
    for res in legs:
        if res.status != OPTIMAL:
            raise LPError(f"price-bound LP ended with status {res.status}")
    lower, upper = (res.value for res in legs)
    need_positive = kind != "NO_STRONG_RHO_ARB"
    return PriceInterval(
        lower, upper, kind,
        _reference_attained(m, att_set, price_vec, lower, need_positive),
        _reference_attained(m, att_set, price_vec, upper, need_positive),
        label)


def _reference_price_bounds(m, payoff, spec, kind):
    """_reference_interval on the measure's dual set and its closure."""
    if kind == "NO_ARB":
        return _reference_interval(m, payoff, kind, None, None)
    return _reference_interval(m, payoff, kind, dual_set(spec),
                               closure_dual_set(spec))


def _outcome(price, m, y, spec, kind):
    try:
        return price(m, y, spec, kind)
    except (ValueError, LPError) as exc:
        return type(exc), str(exc)


def _same_outcome(mine, ref, tag, abs_tol=1e-15):
    """Equal errors, or intervals equal to 1e-12 relative or ``abs_tol``
    with equal flags."""
    if not isinstance(ref, PriceInterval):
        assert mine == ref, tag
        return False
    assert isinstance(mine, PriceInterval), (mine, tag)
    for a, b in ((mine.lower, ref.lower), (mine.upper, ref.upper)):
        assert a == pytest.approx(b, rel=1e-12, abs=abs_tol), tag
    assert ((mine.kind, mine.lower_attained, mine.upper_attained,
             mine.set_label) == (ref.kind, ref.lower_attained,
                                 ref.upper_attained, ref.set_label)), tag
    return True


class TestSharedTableau:
    """One polytope and one solve_lp_sequence call per interval agree with
    the separate feasibility, bound and pinned-attainment LPs."""

    def test_matches_two_lp_reference(self):
        measures = (RiskSpec.es_at(0.35), RiskSpec.lses_at(0.5),
                    RiskSpec.adjusted(step_profile(0.4)),
                    RiskSpec.oce_with(LossFunction.pwl((0.5, 2.0), (0.0,))),
                    RiskSpec.adjusted(general_profile(
                        lambda x: 1 / (x - 0.5) - 2, 0.5, True)),
                    parse_measure("sr:l=pwl(0.5,0,2)"))
        outcomes, intervals, mixed = set(), 0, 0
        for seed in range(60):
            local = np.random.default_rng(seed)
            n = int(local.integers(3, 9))
            m = random_market(local, n=n, d=int(local.integers(1, n - 1)),
                              r=float(local.uniform(0.0, 0.05)))
            y = RandVar(m.space, local.normal(1.0, 0.5, n))
            cases = [(m, y, None, "NO_ARB")]
            cases += [(m, y, spec, kind) for spec in measures
                      for kind in KINDS[1:]]
            for case in cases:
                mine = _outcome(price_bounds, *case)
                ref = _outcome(_reference_price_bounds, *case)
                if not _same_outcome(mine, ref, case[3]):
                    outcomes.add(ref[1])
                    continue
                intervals += 1
                # one endpoint open, the other attained: the strict profile
                mixed += mine.lower_attained != mine.upper_attained
        assert intervals >= 250 and len(outcomes) == 3, (intervals, outcomes)
        assert mixed >= 5, mixed


def _closed_form(ds):
    """The set the closed polytope of ds describes: a scaled box with
    b_l = inf also holds every density, at scale s = 0."""
    if ds is None or (ds.kind == "scaled_box" and ds.b_l == math.inf):
        return ALL_DENSITIES
    return ds


class TestLiftedPolytopes:
    """interior_slack, martingale_feasibility and price_bounds run over
    w = z - lower bound; they must agree with the same programs on the
    rows over z itself, for every set random_dual_sets draws, the one-point
    box [1, 1] (its lifted rows have rhs 0; z = 1 meets M in no market,
    as some mu_i differs from r) and a box with lo > 1 (empty)."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(153)      # slack 0.217 off by 1.2e-12, a bound by 5.9e-12
    @example(263)      # two bounds near 1.36 off by 3.9e-12
    @example(268)      # slack 0.00341 off by 1.0e-14
    @example(964)      # two bounds near 0.00322 off by 4.3e-15
    @example(37432)    # slack 0.00704 off by 9.8e-13
    def test_match_unshifted_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = random_market(rng, n=n, d=int(rng.integers(1, n - 1)),
                          arbitrage_free=rng.random() < 0.75 or None,
                          r=float(rng.uniform(0.0, 0.05)))
        y = RandVar(m.space, rng.normal(1.0, 0.5, n))
        # Both sides round by about 1e-12 absolute: a density is at most
        # 1/p_i on each of n atoms and a payoff weighs it by |y|, so slacks
        # and bounds agree to 1000 eps on that scale (the worst of seeds
        # 0-999 and 37432 used 148 eps); a row off by 1e-9 still fails.
        tol = 1000 * np.finfo(float).eps * n / m.space.probs.min() * max(
            1.0, float(np.abs(y.values).max()))
        ms = MartingaleSets(m)
        sets = list(random_dual_sets(rng)) + [
            DualSetSpec("box", 1.0, 1.0),
            DualSetSpec("box", float(rng.uniform(1.05, 2.0)), 3.0)]
        _same_outcome(_outcome(price_bounds, m, y, None, "NO_ARB"),
                      _outcome(_reference_price_bounds, m, y, None,
                               "NO_ARB"), "NO_ARB", tol)
        for ds in sets:
            got = martingale_feasibility(m, ds)
            ref = _reference_martingale_feasibility(m, ds)
            assert (got is None) == (ref is None), ds
            if got is not None:
                assert _closed_form(ds).contains(got.z), ds
                assert ms.member_of_m(got.z), ds
            if ds is None:
                continue
            eps, got = interior_slack(m, ds)
            ref_eps, ref = _reference_interior_slack(m, ds)
            assert eps == pytest.approx(ref_eps, rel=1e-12, abs=tol), ds
            assert (got is None) == (ref is None), ds
            if got is not None:
                assert ds.contains(got.z) and ms.member_of_p(got.z), ds
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pricing, "dual_set", lambda spec: ds)
                mp.setattr(pricing, "closure_dual_set", lambda spec: ds)
                for kind in KINDS[1:]:
                    _same_outcome(
                        _outcome(price_bounds, m, y, RiskSpec.wc(), kind),
                        _outcome(lambda mm, yy, _, kind: _reference_interval(
                            mm, yy, kind, ds, ds), m, y, None, kind),
                        (ds, kind), tol)
