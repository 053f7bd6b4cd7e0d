"""Price intervals for contracts outside the market.

For a payoff Y not replicable from the traded assets, the admissible time-0
prices are E[Z Y / (1+r)] with Z ranging over

* NO_ARB:            the martingale densities M (endpoint attainment is
                     checked against the equivalent densities P),
* NO_RHO_ARB:        the strict-interior dual set intersected with P,
* NO_STRONG_RHO_ARB: the closed (lsc convex hull) dual set intersected
                     with M.

Each interval is computed over the closure of the relevant set (linear
programs attain their optima there).  Both endpoints come from one
``simplex.solve_lp_range`` call: the upper bound's LP continues from the
lower bound's optimal tableau with its cost row negated, so it pays neither
a second standard form nor phase 1.  Endpoint attainment within the strict
set is decided by slack maximisation and reported through openness flags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import (SLACK_TOL, DualSetSpec, _martingale_rows,
                   closure_dual_set, dual_set,
                   interior_martingale_feasibility, interior_polytope,
                   martingale_feasibility, set_polytope)
from .market import Market, RandVar
from .measures import RiskSpec
from .simplex import OPTIMAL, LPError, solve_lp, solve_lp_range

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
    """True when the payoff lies in the span of {1, traded payoffs}."""
    basis = np.hstack([np.ones((m.space.n, 1)), m.excess])
    coef, *_ = np.linalg.lstsq(basis, payoff.values, rcond=None)
    residual = float(np.linalg.norm(basis @ coef - payoff.values))
    scale = max(1.0, float(np.linalg.norm(payoff.values)))
    return residual <= tol * scale


def augment_market(m: Market, payoff: RandVar, price: float) -> Market:
    """The (d+1)-asset market with the payoff traded at the given price."""
    if price <= 0:
        raise ValueError("the quoted price must be positive")
    new_excess = payoff.values / price - 1.0 - m.r
    return Market(m.space, m.r, np.hstack([m.excess, new_excess[:, None]]))


def _attained(m: Market, spec_set, price_vec: np.ndarray, bound: float,
              need_positive: bool) -> bool:
    """Can the endpoint be met inside the strict form of the density set?"""
    if need_positive:
        pt = interior_polytope(spec_set, m.space)      # has a slack variable
        nvars = pt.nvars
        slack_col = nvars - 1
        A_ub, b_ub = pt.A_ub.copy(), pt.b_ub.copy()
        A_eq_set, b_eq_set = pt.A_eq, pt.b_eq
    else:
        base = set_polytope(spec_set, m.space)
        if not base.strict_rows:
            return True
        nvars = base.nvars + 1
        slack_col = base.nvars
        A_ub = np.hstack([base.A_ub, np.zeros((base.A_ub.shape[0], 1))])
        for r in base.strict_rows:
            A_ub[r, slack_col] = 1.0
        b_ub = base.b_ub.copy()
        A_eq_set = np.hstack([base.A_eq,
                              np.zeros((base.A_eq.shape[0], 1))])
        b_eq_set = base.b_eq
    mg_A, mg_b = _martingale_rows(m, nvars)
    pin = np.zeros(nvars)
    pin[:m.space.n] = price_vec
    A_eq = np.vstack([A_eq_set, mg_A, pin[None, :]])
    b_eq = np.concatenate([b_eq_set, mg_b, [bound]])
    c = np.zeros(nvars)
    c[slack_col] = 1.0
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   maximize=True)
    return res.status == OPTIMAL and res.x[slack_col] > SLACK_TOL


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
    discount = 1.0 / (1.0 + m.r)
    price_vec = m.space.probs * payoff.values * discount

    if kind == "NO_ARB":
        base_set = DualSetSpec("box", 0.0, math.inf)
        if interior_martingale_feasibility(m, base_set) is None:
            raise ValueError("market admits classical arbitrage; the "
                             "price interval is empty")
        pt = set_polytope(base_set, m.space)
        label = "martingale densities M (attainment in P)"
        need_positive = True
        att_set = base_set
    elif kind == "NO_RHO_ARB":
        if spec is None:
            raise ValueError("NO_RHO_ARB needs a risk measure")
        att_set = dual_set(spec)
        if interior_martingale_feasibility(m, att_set) is None:
            raise ValueError("market admits rho-arbitrage for this measure")
        closed = closure_dual_set(spec)
        pt = set_polytope(closed, m.space)
        label = "strict-interior dual set intersected with P"
        need_positive = True
    else:
        if spec is None:
            raise ValueError("NO_STRONG_RHO_ARB needs a risk measure")
        att_set = closure_dual_set(spec)
        if martingale_feasibility(m, att_set) is None:
            raise ValueError("market admits strong rho-arbitrage for this "
                             "measure")
        pt = set_polytope(att_set, m.space)
        label = "closed dual set intersected with M"
        need_positive = False

    c = np.zeros(pt.nvars)
    c[:pt.n] = price_vec
    mg_A, mg_b = _martingale_rows(m, pt.nvars)
    legs = solve_lp_range(c, A_ub=pt.A_ub, b_ub=pt.b_ub,
                          A_eq=np.vstack([pt.A_eq, mg_A]),
                          b_eq=np.concatenate([pt.b_eq, mg_b]))
    for res in legs:
        if res.status != OPTIMAL:
            raise LPError(f"price-bound LP ended with status {res.status}")
    lower, upper = (res.value for res in legs)
    lo_att = _attained(m, att_set, price_vec, lower, need_positive)
    up_att = _attained(m, att_set, price_vec, upper, need_positive)
    return PriceInterval(lower, upper, kind, lo_att, up_att, label)
