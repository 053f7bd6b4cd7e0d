"""Market framework: excess returns, slices, classical arbitrage."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_market
from meanrisk import (FiniteSpace, Market, Portfolio,
                      check_classical_arbitrage, excess_return,
                      portfolio_slice)

BINOMIAL = Market.from_excess([0.5, 0.5], 0.0, [[1.0], [-0.5]])


class TestValidation:
    def test_probs_must_be_positive_and_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteSpace(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ValueError):
            FiniteSpace(np.array([0.5, 0.6]))

    def test_nan_probability_rejected(self):
        # NaN passes both the positivity and the sum test
        with pytest.raises(ValueError, match="finite"):
            FiniteSpace(np.array([np.nan, 0.5, 0.5]))

    def test_nan_excess_return_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Market.from_excess([0.5, 0.5], 0.0, [[np.nan], [-0.5]])
        with pytest.raises(ValueError, match="finite"):
            Market.from_prices([0.5, 0.5], 0.0, [1.0], [[np.nan], [0.5]])

    def test_inf_excess_return_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Market.from_excess([0.5, 0.5], 0.0, [[np.inf], [-0.5]])
        with pytest.raises(ValueError, match="finite"):
            Market.from_prices([0.5, 0.5], 0.0, [1.0], [[2.0], [-np.inf]])
        with pytest.raises(ValueError, match="finite"):   # excess -1 - r
            Market.from_prices([0.5, 0.5], 0.0, [np.inf], [[2.0], [0.5]])

    def test_nonfinite_rate_rejected(self):
        for r in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                Market.from_excess([0.5, 0.5], r, [[1.0], [-0.5]])

    def test_redundant_market_rejected(self):
        # second asset is an affine combination of cash and the first
        with pytest.raises(ValueError):
            Market.from_excess([0.25, 0.25, 0.5], 0.0,
                               [[0.2, 0.5], [-0.1, -0.1], [0.05, 0.2]])

    def test_degenerate_market_rejected(self):
        with pytest.raises(ValueError):
            Market.from_excess([0.5, 0.5], 0.0, [[0.3], [-0.3]])

    def test_price_form_conversion(self):
        m = Market.from_prices([0.5, 0.5], 0.0, [1.0], [[2.0], [0.5]])
        assert np.allclose(m.excess[:, 0], [1.0, -0.5])
        assert m.prices is not None


class TestExcessReturn:
    def test_zero_portfolio(self):
        X = excess_return(BINOMIAL, np.array([0.0]))
        assert np.all(X.values == 0.0)

    def test_two_atom_arithmetic(self):
        X = excess_return(BINOMIAL, np.array([1.0]))
        assert np.allclose(X.values, [1.0, -0.5])
        assert X.mean() == pytest.approx(0.25)

    def test_scaling_linearity(self):
        X1 = excess_return(BINOMIAL, np.array([1.0]))
        X2 = excess_return(BINOMIAL, np.array([2.0]))
        assert np.allclose(X2.values, 2.0 * X1.values)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            excess_return(BINOMIAL, np.array([1.0, 2.0]))

    def test_portfolio_type_accepted(self):
        X = excess_return(BINOMIAL, Portfolio(np.array([1.0])))
        assert X.mean() == pytest.approx(0.25)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_expected_excess_identity(self, seed):
        rng = np.random.default_rng(seed)
        m = random_market(rng)
        pi = rng.normal(0, 2.0, m.d)
        assert excess_return(m, pi).mean() == pytest.approx(
            float(pi @ m.mean_excess), abs=1e-12)


class TestPortfolioSlice:
    def test_scalar_slice(self):
        sl = portfolio_slice(BINOMIAL, 1.0)
        assert np.allclose(sl.particular, [4.0])
        assert sl.null_basis.shape == (1, 0)

    def test_zero_slice(self):
        sl = portfolio_slice(BINOMIAL, 0.0)
        assert np.allclose(sl.particular, [0.0])

    def test_two_asset_slice(self):
        m = Market.from_excess([0.25, 0.25, 0.5], 0.0,
                               [[0.6, 1.2], [0.4, 0.4], [0.0, 0.2]])
        assert np.allclose(m.mean_excess, [0.25, 0.5])
        sl = portfolio_slice(m, 1.0)
        assert np.allclose(sl.particular, [4.0, 0.0])
        assert np.allclose(sl.null_basis[:, 0], [-2.0, 1.0])

    @given(st.integers(0, 10 ** 6), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_members_have_requested_return(self, seed, nu):
        rng = np.random.default_rng(seed)
        m = random_market(rng, d=3, n=5)
        sl = portfolio_slice(m, nu)
        for _ in range(3):
            pi = sl.point(rng.normal(0, 3.0, sl.dim))
            assert excess_return(m, pi).mean() == pytest.approx(nu, abs=1e-10)

    def test_slice_scaling_law(self, rng):
        m = random_market(rng, d=2, n=4)
        for lam in (2.0, -1.5):
            a = portfolio_slice(m, 0.7)
            b = portfolio_slice(m, lam * 0.7)
            # lam * (a member of Pi_nu) lies in Pi_{lam nu}
            pi = lam * a.point(np.array([0.3]))
            assert excess_return(m, pi).mean() == pytest.approx(lam * 0.7,
                                                                abs=1e-10)
            assert b.point() is not None


def _brute_force_arbitrage(m: Market) -> bool:
    """d <= 2 oracle: check the extreme candidate directions of the cone."""
    cands = []
    if m.d == 1:
        cands = [np.array([1.0]), np.array([-1.0])]
    else:
        for row in m.excess:
            cands += [np.array([-row[1], row[0]]),
                      np.array([row[1], -row[0]])]
        cands += [np.array([1.0, 0]), np.array([-1.0, 0]),
                  np.array([0, 1.0]), np.array([0, -1.0])]
    for pi in cands:
        if np.linalg.norm(pi) < 1e-12:
            continue
        x = m.excess @ pi
        if np.min(x) >= -1e-11 and np.max(x) > 1e-9:
            return True
    return False


class TestClassicalArbitrage:
    def test_binomial_has_none(self):
        assert check_classical_arbitrage(BINOMIAL) is None

    def test_strictly_positive_asset(self):
        m = Market.from_excess([0.5, 0.5], 0.0, [[1.0], [0.5]])
        w = check_classical_arbitrage(m)
        assert w is not None
        assert np.min(w.excess.values) > 0
        assert w.gain > 0

    def test_dominated_column_pair(self):
        m = Market.from_excess([0.25, 0.25, 0.5], 0.0,
                               [[1.0, 2.0], [-1.0, -1.0], [0.0, 0.0]])
        w = check_classical_arbitrage(m)
        assert w is not None
        assert np.min(w.excess.values) >= -1e-10
        assert w.excess.mean() > 0

    def test_share_form_witness_with_prices(self):
        m = Market.from_prices([0.5, 0.5], 0.0, [2.0], [[3.0], [2.2]])
        w = check_classical_arbitrage(m)
        assert w is not None and w.shares is not None
        theta0, theta = w.shares
        # zero initial cost and nonnegative terminal value
        assert theta0 * 1.0 + theta @ m.prices == pytest.approx(1.0)
        terminal = theta0 * (1 + m.r) + m.payoffs @ theta
        assert np.min(terminal - 1.0) >= -1e-10

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_lp_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, min(3, n)))
        m = random_market(rng, n=n, d=d)
        lp = check_classical_arbitrage(m) is not None
        assert lp == _brute_force_arbitrage(m)
