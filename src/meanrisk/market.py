"""Finite probability spaces, random variables and one-period markets.

A market holds a riskless rate ``r`` and ``d`` risky assets described by
their excess returns per atom (the matrix ``excess`` with one column per
asset).  Portfolios are fractions of wealth ``pi`` in the risky assets; the
excess return of a portfolio is the atomwise vector ``excess @ pi``.
Markets must be nonredundant (the constant 1 together with the asset
returns are linearly independent over the atoms) and nondegenerate (at
least one expected return differs from ``r``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simplex import OPTIMAL, solve_lp, unit_scale

RANK_TOL = 1e-10        # nonredundancy: relative SVD cutoff
DEGENERACY_TOL = 1e-12  # nondegeneracy: |mu_i - r| / unit must exceed this
PROB_TOL = 1e-12        # probabilities must sum to 1 within this
ARB_TOL = 1e-9          # LP gain / unit below this is treated as no arbitrage


@dataclass(frozen=True)
class FiniteSpace:
    """An n-atom probability space given by its atom probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("atom probabilities must be finite")
        if np.any(p <= 0):
            raise ValueError("every atom probability must be positive")
        if abs(p.sum() - 1.0) > PROB_TOL:
            raise ValueError("atom probabilities must sum to 1")
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.size

    def expect(self, values: np.ndarray) -> float:
        return float(self.probs @ np.asarray(values, dtype=float))


@dataclass(frozen=True)
class RandVar:
    """A real-valued outcome vector over a finite space."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.n,):
            raise ValueError("values length must equal the atom count")
        object.__setattr__(self, "values", v)

    def mean(self) -> float:
        return self.space.expect(self.values)

    def scaled(self, factor: float) -> "RandVar":
        return RandVar(self.space, factor * self.values)

    def shifted(self, c: float) -> "RandVar":
        return RandVar(self.space, self.values + c)


@dataclass(frozen=True)
class Portfolio:
    """Fractions of wealth invested in the risky assets."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def riskless_fraction(self) -> float:
        return 1.0 - float(self.weights.sum())


def _as_weights(pi, d: int) -> np.ndarray:
    w = pi.weights if isinstance(pi, Portfolio) else np.asarray(pi, dtype=float)
    if w.shape != (d,):
        raise ValueError(f"portfolio dimension {w.shape} does not match {d} assets")
    return w


@dataclass(frozen=True)
class Market:
    """One-period market: riskless rate, excess-return matrix, expected returns.

    ``excess[i, k]`` is the excess return of asset k+1 on atom i.  Prices and
    payoffs are retained when the market was built from them so witnesses can
    be reported in numbers of shares.

    ``unit`` is ``simplex.unit_scale(excess)``: the power of two at or above
    max|excess|, or 1 when that power lies within 2^+-8 of 1, so that
    returns in ordinary units (fractions or percents) are read as they are
    and their answers stay byte-identical.  The validity tests, ``ARB_TOL``
    and every portfolio LP read the returns over it, ``excess / unit``
    (exact, a power of two), so no verdict depends on the returns' units.
    """

    space: FiniteSpace
    r: float
    excess: np.ndarray
    prices: np.ndarray | None = field(default=None)
    payoffs: np.ndarray | None = field(default=None)
    unit: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.excess, dtype=float))
        if E.shape[0] != self.space.n:
            raise ValueError("excess matrix must have one row per atom")
        if not (np.isfinite(self.r) and np.isfinite(E).all()):
            raise ValueError("riskless rate and excess returns must be finite")
        if self.r <= -1.0:
            raise ValueError("riskless rate must exceed -1")
        object.__setattr__(self, "excess", E)
        object.__setattr__(self, "unit", unit_scale(E))
        stacked = np.hstack([np.ones((self.space.n, 1)), E / self.unit])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv.size < E.shape[1] + 1 or sv[-1] <= RANK_TOL * sv[0]:
            raise ValueError("market is redundant: {1, R^1..R^d} are dependent")
        if np.max(np.abs(self.mean_excess)) <= DEGENERACY_TOL * self.unit:
            raise ValueError("market is degenerate: every mu_i equals r")

    @classmethod
    def from_excess(cls, probs, r: float, excess) -> "Market":
        return cls(FiniteSpace(np.asarray(probs, dtype=float)), float(r),
                   np.asarray(excess, dtype=float))

    @classmethod
    def from_prices(cls, probs, r: float, prices, payoffs) -> "Market":
        """Build from time-0 prices and time-1 payoffs (one payoff column per asset)."""
        prices = np.asarray(prices, dtype=float)
        payoffs = np.atleast_2d(np.asarray(payoffs, dtype=float))
        if not np.all((prices > 0) & np.isfinite(prices)):
            raise ValueError("asset prices must be positive and finite")
        returns = payoffs / prices[None, :] - 1.0
        m = cls(FiniteSpace(np.asarray(probs, dtype=float)), float(r),
                returns - float(r))
        object.__setattr__(m, "prices", prices)
        object.__setattr__(m, "payoffs", payoffs)
        return m

    @property
    def d(self) -> int:
        return self.excess.shape[1]

    @property
    def mean_excess(self) -> np.ndarray:
        """E[R^i] - r per asset (= mu - r 1)."""
        return self.space.probs @ self.excess

    @property
    def mu(self) -> np.ndarray:
        return self.mean_excess + self.r


def excess_return(m: Market, pi) -> RandVar:
    """X_pi = pi . (R - r 1), atomwise."""
    w = _as_weights(pi, m.d)
    return RandVar(m.space, m.excess @ w)


@dataclass(frozen=True)
class PortfolioSlice:
    """Affine description of {pi : E[X_pi] = nu}: particular + null basis."""

    nu: float
    particular: np.ndarray
    null_basis: np.ndarray  # shape (d, d-1)

    def point(self, t=None) -> np.ndarray:
        if t is None or self.null_basis.shape[1] == 0:
            return self.particular.copy()
        return self.particular + self.null_basis @ np.asarray(t, dtype=float)

    @property
    def dim(self) -> int:
        return self.null_basis.shape[1]


def portfolio_slice(m: Market, nu: float) -> PortfolioSlice:
    """All portfolios with expected excess return nu.

    The particular solution loads the first asset whose expected excess
    return is nonzero; the null basis spans the kernel of pi -> pi.(mu-r1).
    """
    g = m.mean_excess
    j = -1
    for k in range(m.d):
        if abs(g[k]) > DEGENERACY_TOL * m.unit:
            j = k
            break
    if j < 0:  # pragma: no cover - excluded by market validation
        raise ValueError("degenerate market has no slice representation")
    particular = np.zeros(m.d)
    particular[j] = nu / g[j]
    basis = np.zeros((m.d, m.d - 1))
    col = 0
    for k in range(m.d):
        if k == j:
            continue
        basis[k, col] = 1.0
        basis[j, col] = -g[k] / g[j]
        col += 1
    return PortfolioSlice(float(nu), particular, basis)


@dataclass(frozen=True)
class ArbitrageWitness:
    """A nonzero portfolio with nonnegative, not identically zero excess return."""

    pi: np.ndarray
    excess: RandVar
    gain: float                 # E[X_pi] > 0 for a genuine witness
    shares: tuple | None = None  # (theta0, theta) when price data is available


def check_classical_arbitrage(m: Market) -> ArbitrageWitness | None:
    """Detect arbitrage of the first kind by linear programming.

    Maximizes E[X_pi] subject to X_pi >= 0 atomwise and ||pi||_1 <= 1 (via a
    positive/negative split of pi); a positive optimum is equivalent to the
    existence of an arbitrage.  The LP runs over the returns over
    ``m.unit`` and its gain is scaled back.
    """
    n, d = m.space.n, m.d
    E, g = m.excess / m.unit, m.mean_excess / m.unit
    # variables: pi+ (d), pi- (d)
    c = np.concatenate([g, -g])
    A_ub = np.vstack([
        np.hstack([-E, E]),                    # X_pi >= 0 atomwise
        np.ones((1, 2 * d)),                   # l1 budget
    ])
    b_ub = np.concatenate([np.zeros(n), [1.0]])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, maximize=True)
    if res.status != OPTIMAL:  # pragma: no cover - problem is always feasible/bounded
        return None
    if res.value <= ARB_TOL:
        return None
    pi = res.x[:d] - res.x[d:]
    X = excess_return(m, pi)
    shares = None
    if m.prices is not None:
        theta = pi / m.prices          # initial wealth 1
        theta0 = 1.0 - float(pi.sum())
        shares = (theta0, theta)
    return ArbitrageWitness(pi, X, m.unit * res.value, shares)
