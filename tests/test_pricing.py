"""Price intervals: nesting, attainment flags, augmentation consistency."""
import numpy as np
import pytest

from conftest import random_market
from meanrisk import (LossFunction, LPError, Market, PriceInterval, RandVar,
                      RiskSpec, augment_market, detect_arbitrage, price_bounds,
                      pricing, solve_lp, step_profile)
from meanrisk.pricing import KINDS, is_replicable

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


def _outcome(m, y, spec, kind):
    try:
        return price_bounds(m, y, spec, kind)
    except (ValueError, LPError) as exc:
        return type(exc), str(exc)


class TestSharedTableau:
    """Both bounds from one tableau agree with two cold LPs."""

    def test_matches_two_lp_reference(self, monkeypatch):
        measures = (RiskSpec.es_at(0.35), RiskSpec.lses_at(0.5),
                    RiskSpec.adjusted(step_profile(0.4)),
                    RiskSpec.oce_with(LossFunction.pwl((0.5, 2.0), (0.0,))))
        cases = []
        for seed in range(60):
            local = np.random.default_rng(seed)
            n = int(local.integers(3, 9))
            m = random_market(local, n=n, d=int(local.integers(1, n - 1)),
                              r=float(local.uniform(0.0, 0.05)))
            y = RandVar(m.space, local.normal(1.0, 0.5, n))
            cases.append((m, y, None, "NO_ARB"))
            cases += [(m, y, spec, kind) for spec in measures
                      for kind in KINDS[1:]]
        got = [_outcome(*case) for case in cases]
        monkeypatch.setattr(pricing, "solve_lp_range", lambda c, **rows: (
            solve_lp(c, **rows), solve_lp(c, maximize=True, **rows)))
        intervals = 0
        for case, mine in zip(cases, got):
            ref = _outcome(*case)
            if not isinstance(ref, PriceInterval):
                assert mine == ref, case[3]
                continue
            assert isinstance(mine, PriceInterval), (mine, case[3])
            for a, b in ((mine.lower, ref.lower), (mine.upper, ref.upper)):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)
            assert ((mine.kind, mine.lower_attained, mine.upper_attained,
                     mine.set_label) == (ref.kind, ref.lower_attained,
                                         ref.upper_attained, ref.set_label))
            intervals += 1
        assert intervals >= 100
