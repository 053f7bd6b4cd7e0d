"""Seeded instance generator for the benchmark.

Everything the program sees is drawn here from a ``numpy`` generator that
the caller seeds, so one seed always yields the same markets, variables and
payoffs.  Nothing is shared with the test suite's generators.
"""
from __future__ import annotations

import numpy as np

from meanrisk import FiniteSpace, Market, RandVar, check_classical_arbitrage

MAX_TRIES = 2000
VOL = 0.4


def standardised(x: np.ndarray, p: np.ndarray, mean: float,
                 sd: float) -> np.ndarray:
    """Columns of x moved and scaled to exactly this p-weighted mean and sd.

    Without it the sample mean of an asset over a few atoms varies by
    several times the drift, so whether the boundary minimiser falls inside
    the sweep grid, and with it the cost of a sweep, varies from draw to
    draw far more than between programs.
    """
    x = x - p @ x
    return mean + sd * x / np.sqrt(p @ x**2)


def probs(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.2, 1.0, n)
    return w / w.sum()


def market(rng: np.random.Generator, n: int, d: int, kind: str = "free",
           drift: float = 0.03, r: float = 0.0) -> Market:
    """A valid market with n atoms and d assets.

    ``kind`` is ``"free"`` (no classical arbitrage, rejection sampled) or
    ``"classical"`` (a random portfolio is made to pay off nonnegatively on
    every atom by solving for the last asset's column).
    """
    if d + 1 > n:
        raise ValueError("a nonredundant market needs n >= d + 1")
    for _ in range(MAX_TRIES):
        p = probs(rng, n)
        excess = standardised(rng.normal(0.0, 1.0, (n, d)), p, drift, VOL)
        if kind == "classical":
            w = rng.normal(0.0, 1.0, d)
            w[-1] = np.sign(w[-1] or 1.0) * max(abs(w[-1]), 0.5)
            payoff = np.abs(rng.normal(0.0, VOL, n))
            rest = excess[:, :-1] @ w[:-1]
            excess[:, -1] = (payoff - rest) / w[-1]
        try:
            m = Market.from_excess(p, r, excess)
        except ValueError:
            continue
        has_arb = check_classical_arbitrage(m) is not None
        if has_arb == (kind == "classical"):
            return m
    raise RuntimeError(f"no {kind} market with n={n}, d={d} in {MAX_TRIES} draws")


def priced(rng: np.random.Generator, m: Market) -> Market:
    """The same market quoted as time-0 prices and time-1 payoffs."""
    prices = rng.uniform(0.5, 2.0, m.d)
    payoffs = prices[None, :] * (1.0 + m.r + m.excess)
    return Market.from_prices(m.space.probs, m.r, prices, payoffs)


def scaled(m: Market, factor: float) -> Market:
    """The market with every excess return multiplied by ``factor``."""
    return Market.from_excess(m.space.probs, m.r, factor * m.excess)


def randvar(rng: np.random.Generator, n: int) -> RandVar:
    return RandVar(FiniteSpace(probs(rng, n)), rng.normal(0.0, 1.0, n))


def payoff(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.5, 1.5, n)
