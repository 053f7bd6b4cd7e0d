"""Price intervals: nesting, attainment flags, augmentation consistency."""
import numpy as np
import pytest

from conftest import random_market
from meanrisk import (DualSetSpec, LossFunction, LPError, Market,
                      PriceInterval, RandVar, RiskSpec, augment_market,
                      closure_dual_set, detect_arbitrage, dual_set,
                      general_profile, interior_martingale_feasibility,
                      martingale_feasibility, price_bounds, solve_lp,
                      step_profile)
from meanrisk.dual import (SLACK_TOL, _martingale_rows, interior_polytope,
                           set_polytope)
from meanrisk.io import parse_measure
from meanrisk.pricing import KINDS, REPLICATION_TOL, is_replicable
from meanrisk.simplex import OPTIMAL

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


def _reference_attained(m, att_set, price_vec, bound, need_positive):
    """One LP per endpoint: maximise the strict slack with the bound pinned."""
    if need_positive:
        pt = interior_polytope(att_set, m.space)
        nvars, slack_col = pt.nvars, pt.nvars - 1
        A_ub, b_ub, A_eq_set, b_eq_set = pt.A_ub, pt.b_ub, pt.A_eq, pt.b_eq
    else:
        base = set_polytope(att_set, m.space)
        if not base.strict_rows:
            return True
        slack_col = base.nvars
        nvars = slack_col + 1
        A_ub = np.hstack([base.A_ub, np.zeros((base.A_ub.shape[0], 1))])
        A_ub[base.strict_rows, slack_col] = 1.0
        b_ub, b_eq_set = base.b_ub, base.b_eq
        A_eq_set = np.hstack([base.A_eq, np.zeros((base.A_eq.shape[0], 1))])
    mg_A, mg_b = _martingale_rows(m, nvars)
    pin = np.zeros(nvars)
    pin[:m.space.n] = price_vec
    c = np.zeros(nvars)
    c[slack_col] = 1.0
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub,
                   A_eq=np.vstack([A_eq_set, mg_A, pin[None, :]]),
                   b_eq=np.concatenate([b_eq_set, mg_b, [bound]]),
                   maximize=True)
    return res.status == OPTIMAL and res.x[slack_col] > SLACK_TOL


def _reference_price_bounds(m, payoff, spec, kind):
    """price_bounds as separate LPs: a feasibility LP (the interior slack,
    or M intersected with the closed set), cold min and max over the closed
    set, and one pinned-bound LP per endpoint for its attainment."""
    basis = np.hstack([np.ones((m.space.n, 1)), m.excess])
    coef, *_ = np.linalg.lstsq(basis, payoff.values, rcond=None)
    residual = float(np.linalg.norm(basis @ coef - payoff.values))
    if residual <= REPLICATION_TOL * max(1.0, np.linalg.norm(payoff.values)):
        raise ValueError("payoff is replicable; its price is determined by "
                         "the market")
    price_vec = m.space.probs * payoff.values / (1.0 + m.r)
    if kind == "NO_ARB":
        att_set = closed = DualSetSpec("box", 0.0, np.inf)
        if interior_martingale_feasibility(m, att_set) is None:
            raise ValueError("market admits classical arbitrage; the "
                             "price interval is empty")
        label = "martingale densities M (attainment in P)"
    elif kind == "NO_RHO_ARB":
        att_set = dual_set(spec)
        if interior_martingale_feasibility(m, att_set) is None:
            raise ValueError("market admits rho-arbitrage for this measure")
        closed = closure_dual_set(spec)
        label = "strict-interior dual set intersected with P"
    else:
        att_set = closed = closure_dual_set(spec)
        if martingale_feasibility(m, att_set) is None:
            raise ValueError("market admits strong rho-arbitrage for this "
                             "measure")
        label = "closed dual set intersected with M"
    pt = set_polytope(closed, m.space)
    c = np.zeros(pt.nvars)
    c[:pt.n] = price_vec
    mg_A, mg_b = _martingale_rows(m, pt.nvars)
    rows = dict(A_ub=pt.A_ub, b_ub=pt.b_ub, A_eq=np.vstack([pt.A_eq, mg_A]),
                b_eq=np.concatenate([pt.b_eq, mg_b]))
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


def _outcome(price, m, y, spec, kind):
    try:
        return price(m, y, spec, kind)
    except (ValueError, LPError) as exc:
        return type(exc), str(exc)


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
                if not isinstance(ref, PriceInterval):
                    assert mine == ref, case[3]
                    outcomes.add(ref[1])
                    continue
                assert isinstance(mine, PriceInterval), (mine, case[3])
                for a, b in ((mine.lower, ref.lower),
                             (mine.upper, ref.upper)):
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-15)
                assert ((mine.kind, mine.lower_attained, mine.upper_attained,
                         mine.set_label) == (ref.kind, ref.lower_attained,
                                             ref.upper_attained,
                                             ref.set_label))
                intervals += 1
                # one endpoint open, the other attained: the strict profile
                mixed += mine.lower_attained != mine.upper_attained
        assert intervals >= 250 and len(outcomes) == 3, (intervals, outcomes)
        assert mixed >= 5, mixed
