"""Price intervals for contracts outside the market.

For a payoff Y not replicable from the traded assets, the admissible time-0
prices are E[Z Y / (1+r)] with Z ranging over

* NO_ARB:            the martingale densities M (endpoint attainment is
                     checked against the equivalent densities P),
* NO_RHO_ARB:        the strict-interior dual set intersected with P,
* NO_STRONG_RHO_ARB: the closed (lsc convex hull) dual set intersected
                     with M.

Each interval is computed over the closure of the relevant set (linear
programs attain their optima there), on one polytope per kind: for NO_ARB
and NO_RHO_ARB the interior polytope of the strict set, whose slack
delta >= 0 makes it project onto exactly that closure; for
NO_STRONG_RHO_ARB the closed polytope, with a slack delta on its strict
rows if it has any; each meets M through the detectors' martingale rows
(``dual._martingale_lp``).  The polytopes run over w = z - l, z's lower
bound lifted out (see ``dual``), so the price E[Z Y / (1+r)] is an LP cost
plus a constant, both from ``SetPolytope.lp_row``, and each bound adds the
constant back.  One ``simplex.solve_lp_sequence`` call maximises
delta (the set is empty unless delta > ``SLACK_TOL``), then minimises and
maximises the price, each with max delta over its optimal face as
tie-break: an endpoint is attained in the strict set when that delta
exceeds ``SLACK_TOL`` (always, without strict rows).  Prices are scaled to
sup-norm 1 for the solve, so the bounds do not depend on the payoff's units.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import (ALL_DENSITIES, SLACK_TOL, _martingale_lp, _strict_slack,
                   closure_dual_set, dual_set, interior_polytope,
                   martingale_feasibility, set_polytope)
from .market import Market, RandVar
from .measures import RiskSpec
from .simplex import (INFEASIBLE, OPTIMAL, LPError, solve_lp,
                      solve_lp_sequence)

# price_bounds calls neither martingale_feasibility nor solve_lp; they stay
# module attributes because perfbench/tracing.py wraps them by name.

KINDS = ("NO_ARB", "NO_RHO_ARB", "NO_STRONG_RHO_ARB")
REPLICATION_TOL = 1e-10


@dataclass(frozen=True)
class PriceInterval:
    lower: float
    upper: float
    kind: str
    lower_attained: bool
    upper_attained: bool
    set_label: str


def is_replicable(m: Market, payoff: RandVar, tol: float = REPLICATION_TOL) -> bool:
    """True when the payoff lies in the span of {1, traded payoffs}: the
    least-squares residual is at most ``tol`` times ||payoff||."""
    basis = np.hstack([np.ones((m.space.n, 1)), m.excess])
    coef, *_ = np.linalg.lstsq(basis, payoff.values, rcond=None)
    residual = float(np.linalg.norm(basis @ coef - payoff.values))
    return residual <= tol * float(np.linalg.norm(payoff.values))


def augment_market(m: Market, payoff: RandVar, price: float) -> Market:
    """The (d+1)-asset market with the payoff traded at the given price."""
    if price <= 0:
        raise ValueError("the quoted price must be positive")
    new_excess = payoff.values / price - 1.0 - m.r
    return Market(m.space, m.r, np.hstack([m.excess, new_excess[:, None]]))


def price_bounds(m: Market, payoff: RandVar, spec: RiskSpec | None,
                 kind: str) -> PriceInterval:
    """The no-arbitrage / no-(strong-)rho-arbitrage price interval.

    Raises when the payoff is replicable or the market already admits the
    corresponding arbitrage (the feasible density set would be empty).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if payoff.space.n != m.space.n:
        raise ValueError("payoff must live on the market's space")
    if is_replicable(m, payoff):
        raise ValueError("payoff is replicable; its price is determined by "
                         "the market")
    price_vec = m.space.probs * payoff.values * (1.0 / (1.0 + m.r))
    scale = float(np.abs(price_vec).max())
    if kind != "NO_ARB" and spec is None:
        raise ValueError(f"{kind} needs a risk measure")
    if kind == "NO_ARB":
        pt = interior_polytope(ALL_DENSITIES, m.space)
        empty = ("market admits classical arbitrage; the price interval is "
                 "empty")
        label = "martingale densities M (attainment in P)"
    elif kind == "NO_RHO_ARB":
        pt = interior_polytope(dual_set(spec), m.space)
        empty = "market admits rho-arbitrage for this measure"
        label = "strict-interior dual set intersected with P"
    else:
        pt = _strict_slack(set_polytope(closure_dual_set(spec), m.space))
        empty = "market admits strong rho-arbitrage for this measure"
        label = "closed dual set intersected with M"
    # delta is the last column; the closed polytope may have none
    strict = kind != "NO_STRONG_RHO_ARB" or bool(pt.strict_rows)

    c, offset = pt.lp_row(price_vec / scale)     # price = c.x + offset
    delta = np.zeros(pt.nvars)
    delta[-1] = -1.0
    *first, low, high = solve_lp_sequence(
        [delta, (c, delta), (-c, delta)] if strict else [c, -c],
        **_martingale_lp(m, pt))
    if low.status == INFEASIBLE or any(
            res.status != OPTIMAL or res.x[-1] <= SLACK_TOL for res in first):
        raise ValueError(empty)
    for res in (low, high):
        if res.status != OPTIMAL:
            raise LPError(f"price-bound LP ended with status {res.status}")
    attained = [not strict or bool(res.x[-1] > SLACK_TOL)
                for res in (low, high)]
    return PriceInterval((low.value + offset) * scale,
                         (offset - high.value) * scale, kind, *attained, label)
