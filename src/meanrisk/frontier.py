"""Optimal boundaries, efficient frontiers and the arbitrage detectors.

``rho_nu`` minimises a risk measure over the affine slice of portfolios with
a prescribed expected excess return; family-specific reformulations keep
every solve exact where possible:

* expected shortfall, loss sensitive ES and adjusted ES with constant /
  affine-in-1/x profile pieces
                        -> one shortfall LP with a block (m, u >= (-X-m)^+)
                           per profile piece; ES is the one-block LP and
                           LSES adds the row E[u] <= b
* adjusted ES with a general profile piece
                        -> cutting planes on the value/subgradient oracle
* worst case            -> minimax LP
* pwl loss families and c y^+
                        -> hinge LPs, one row per atom and kink
* exp loss families     -> damped Newton over pi with the return as a
                           KKT row, a sweep's nodes all in one batched solve
* expected loss         -> the linear LP min E[-X]
* positively homogeneous families (es, wc, eloss, ew/sr/oce with a loss
  kinked at 0 only, adjusted ES with a profile vanishing on [beta, 1])
                        -> rho_nu = nu rho_1 and rho^inf = rho, so a
                           boundary sweep is one LP, the unit slice, which
                           is also the recession LP at nu = 1; sublinearity
                           fixes rho_0 = 0; both mean-risk problems read
                           their answer off the same unit slice, and a
                           failed unit slice LP raises

Every solver runs over pi = at g/|g|^2 + theta (g the mean excess return,
theta free) with lo <= g.pi <= hi held by the rows -g.theta <= at - lo and
g.theta <= hi - at (``_pi_param``).  With the start point's return at in
the band, v = 0 meets these rows and the lifted family rows, so no slice
or band LP needs phase 1; a slice is lo = hi = at = nu.  nu -> rho_nu is
convex, so the boundary minimiser (band [0, nu_max]) and the minimal risk
at return >= nu* (band [nu*, inf)) are one solve each: the family's LP,
Kelley for a general adjusted-ES profile, or for an exp loss the
unconstrained Newton minimiser, replaced by the slice at the band's nearer
edge when its return leaves the band.  The maximal return at risk <= rho*
is one LP that maximises g.pi with the risk objective moved into a row;
the families without an LP bisect over slices for it.

A boundary sweep of a family that is not positively homogeneous solves one
slice per grid node.  An LP family starts every node at pi = 0, so the
node LPs differ in the return rows' rhs alone: ``solve_lp_path`` solves
them on one tableau, nu = 0 from v = 0 and each later node by a few dual
simplex pivots from the last node's optimal basis, and in the positive
regime of a convex family the band [0, nu_max] as its last column.  Every
other LP here (unit slices, single slices, recession, mean-risk) is solved
alone.

The recession measure rho^inf is a ``RiskSpec`` (``_recession_spec``), so
recession frontiers run the LPs above: es at beta for adjusted ES, wc for
lses, and for ew/sr/oce the hinge LP of the asymptotic loss
l_inf(y) = b_l y^+ - a_l y^-, whose dual set is the closure box [a_l, b_l].
The primal arbitrage detectors thus never consult the martingale
feasibility programs they are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lses as lses_mod
from .dual import (Density, closure_dual_set, dual_set,
                   interior_martingale_feasibility, martingale_feasibility)
from .losses import LossFunction, lses_profile
from .market import (ArbitrageWitness, Market, RandVar,
                     check_classical_arbitrage, portfolio_slice)
from .measures import RiskSpec, _entropic, adjusted_es_argmax, ascending
from .simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LPError, LPResult,
                      solve_lp, solve_lp_path)

# the frontier calls no portfolio_slice; it stays a module attribute because
# perfbench/tracing.py wraps it by name.

SIGN_TOL = 1e-7          # sign classification of rho_inf_1 and ball minima
OBJ_TOL = 1e-8           # cutting-plane convergence on objective values


# ---------------------------------------------------------------------------
# Portfolio parametrisations
# ---------------------------------------------------------------------------

@dataclass
class _Param:
    """X = x0 + C theta over a variable vector theta with optional rows."""

    x0: np.ndarray                 # (n,)
    C: np.ndarray                  # (n, q)
    lower: np.ndarray
    upper: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray               # (rows,), or (rows, nodes) in a sweep
    to_portfolio: object           # theta -> pi
    budget: float | None = None    # set: max E[X] s.t. risk <= budget


def _pi_param(m: Market, lo, hi=math.inf, budget: float | None = None,
              at: float = 0.0) -> _Param:
    """X = excess pi over the portfolios with lo <= E[X_pi] <= hi, from the
    start point of return at (module docstring); arrays lo and hi are a
    sweep, one rhs column per node."""
    g = m.mean_excess
    start = at * g / float(g @ g)
    rows, rhs = [-g], [at - lo]
    if np.all(hi < math.inf):
        rows, rhs = rows + [g], rhs + [hi - at]
    return _Param(m.excess @ start, m.excess, np.full(m.d, -np.inf),
                  np.full(m.d, np.inf), np.array(rows), np.array(rhs),
                  lambda t: start + t, budget)


def _ball_param(m: Market) -> _Param:
    d = m.d
    C = np.hstack([m.excess, -m.excess])
    row = np.ones((1, 2 * d))
    return _Param(np.zeros(m.space.n), C,
                  np.zeros(2 * d), np.full(2 * d, np.inf),
                  row, np.array([1.0]),
                  lambda t: t[:d] - t[d:])


# ---------------------------------------------------------------------------
# Family optimisers over a parametrised portfolio set
# ---------------------------------------------------------------------------

def _solve_family(par: _Param, p: np.ndarray, c: np.ndarray, shift: float,
                  rows: list, rhs: list, lower: np.ndarray):
    """min c.v + shift over v = (theta, auxiliaries) subject to the family's
    rows, par's rows and the bounds (par's on theta, ``lower`` on the
    auxiliaries, which have no upper bound).  Under par's risk budget the
    objective becomes the row c.v + shift <= budget, and the LP maximises
    E[X] instead.

    Returns (LPResult, theta), with theta None unless the LP is optimal.  In
    a sweep par's rows carry a node axis; it returns one such pair per node,
    all from one ``solve_lp_path``.
    """
    q = par.C.shape[1]
    extra = c.size - q
    rows = rows + [np.hstack([par.A_ub, np.zeros((par.A_ub.shape[0], extra))])]
    rhs = rhs + [par.b_ub]
    if par.budget is not None:
        rows.append(c[None, :])
        rhs.append([par.budget - shift])
        c = np.concatenate([p @ par.C, np.zeros(extra)])
        shift = float(p @ par.x0)
    kwargs = dict(lower=np.concatenate([par.lower, lower]),
                  upper=np.concatenate([par.upper, np.full(extra, np.inf)]))
    if par.b_ub.ndim == 1:
        return _shifted(solve_lp(c, A_ub=np.vstack(rows),
                                 b_ub=np.concatenate(rhs),
                                 maximize=par.budget is not None, **kwargs),
                        shift, q)
    # a block without the node axis is the same at every node
    nodes = par.b_ub.shape[1]
    B_ub = np.concatenate([np.broadcast_to(np.asarray(r, dtype=float).T,
                                           (nodes, len(r))).T for r in rhs])
    return [_shifted(res, shift, q)
            for res in solve_lp_path(c, np.vstack(rows), B_ub, **kwargs)]


def _shifted(res: LPResult, shift, q: int):
    """(res valued at c.v + shift, theta), theta None unless optimal."""
    if res.status != OPTIMAL:
        return res, None
    if shift:
        res.value += float(shift)
    return res, res.x[:q]


def _lift(par: _Param, kink: float = 0.0):
    """The shift s >= 0 that makes v = 0 meet every row u_i >= -X_i - m - b
    with b >= kink once m = m' + s: max(0, -min(x0) - kink)."""
    return np.maximum(0.0, -(par.x0 + kink).min())


def _hinge_rows(par: _Param, nv: int, m: int | None, u: int | None,
                kink: float = 0.0, lift: float = 0.0):
    """(block, rhs) of the rows u_i >= -X_i - m - kink, one per atom, over
    v = (theta, ...): m is the column of a scalar lifted by ``lift`` (its
    value is v[m] + lift), u the first of n columns; None drops either."""
    n, q = par.C.shape
    block = np.zeros((n, nv))
    block[:, :q] = -par.C
    if m is not None:
        block[:, m] = -1.0
    if u is not None:
        block[np.arange(n), u + np.arange(n)] = -1.0
    return block, (par.x0 + kink) + lift


def _es_min(par: _Param, p: np.ndarray, pieces):
    """min over theta of max_k sup_{lo_k <= x <= hi_k} ES_x(X) - a_k - b_k/x.

    One shortfall LP.  ES_x(X) = min_m m + E[(-X-m)^+]/x and the penalty is
    affine in 1/x, so the sup over a piece is the larger of its two endpoint
    objectives m_k + E[u_k]/x - g(x) over one block (m_k, u_k >= 0,
    u_k >= -X - m_k).  A constant piece (b = 0) keeps its lo endpoint only;
    a piece reaching x = 0 keeps its hi endpoint and bounds E[u_k] <= b_k.
    A single endpoint objective is the LP objective, so ES at alpha, the
    piece (alpha, alpha, 0, 0), is the plain (theta, m, u) LP; several take
    an epigraph variable tau after theta.  Every m_k, and tau, is lifted by
    max(0, -min x0), so v = 0 is feasible and the LP needs no phase 1.
    """
    n, q = par.C.shape
    ends = [[hi] if lo == 0.0 else [lo] if b == 0.0 else [lo, hi]
            for lo, hi, _, b in pieces]
    epigraph = len(ends) > 1 or len(ends[0]) > 1
    start = q + int(epigraph)
    nv = start + len(pieces) * (1 + n)
    lift = _lift(par)
    c = np.zeros(nv)
    shift = lift
    rows, rhs = [], []
    for k, ((lo, _, a, b), xs) in enumerate(zip(pieces, ends)):
        mk = start + k * (1 + n)
        uk = slice(mk + 1, mk + 1 + n)
        for x in xs:
            row = np.zeros((1, nv))
            row[0, mk] = 1.0
            row[0, uk] = p / x
            if epigraph:
                row[0, q] = -1.0
                rows.append(row)
                rhs.append([a + b / x])    # m_k + E[u_k]/x - g(x) <= tau
            else:
                c, shift = row[0], lift - (a + b / x)
        block, bound = _hinge_rows(par, nv, mk, mk + 1, lift=lift)
        rows.append(block)
        rhs.append(bound)                  # u_k >= -X - m_k
        if lo == 0.0:
            row = np.zeros((1, nv))
            row[0, uk] = p
            rows.append(row)
            rhs.append([b])                # E[u_k] <= b_k
    if epigraph:
        c[q] = 1.0
    lower = np.zeros(nv - q)
    lower[:start - q] = -np.inf            # tau
    lower[start - q::1 + n] = -np.inf      # the m_k columns
    return _solve_family(par, p, c, shift, rows, rhs, lower)


def _shortfall_pieces(spec: RiskSpec):
    """(lo, hi, a, b) per piece g = a + b/x of the family's profile, clipped
    to [beta, 1]; None when a piece is general."""
    if spec.family == "es":
        return [(spec.alpha, spec.alpha, 0.0, 0.0)]
    profile = lses_profile(spec.b) if spec.family == "lses" else spec.profile
    return profile.affine_pieces()


def _wc_min(par: _Param, p: np.ndarray):
    """min over theta of max_i -X_i: the minimax LP in (theta, tau), with
    tau lifted by max(0, -min x0) so that v = 0 is feasible."""
    q = par.C.shape[1]
    lift = _lift(par)
    c = np.zeros(q + 1)
    c[q] = 1.0
    block, bound = _hinge_rows(par, q + 1, q, None, lift=lift)  # -X_i <= tau
    return _solve_family(par, p, c, lift, [block], [bound],
                         np.array([-np.inf]))


def _pwl_family_min(par: _Param, p: np.ndarray, fam: str, slopes,
                    breakpoints):
    """Hinge LP for ew/sr/oce with a piecewise-linear loss, given by its
    slopes s_0..s_K and kinks b_1 < ... < b_K.

    l(0) = 0 gives l(y) = c0 + s_0 y + sum_k d_k (y - b_k)^+ with jumps
    d_k = s_k - s_{k-1} and c0 = -sum_k d_k (-b_k)^+.  Over v = (theta, m,
    w_k >= 0) with the rows w_k >= y - b_k at y = -X - m, E[l(y)] is affine
    in v: one row and one nonnegative column per atom and kink.  sr
    minimises m subject to E[l(y)] <= 0, oce minimises m + E[l(y)], and ew,
    which has no m, E[l(-X)].  m is lifted by max(0, -min x0 - min(b_1, 0)),
    so v = 0 meets every row and sr and oce need no phase 1.
    """
    s0 = slopes[0]
    jumps = np.diff(slopes)
    keep = jumps > 0.0                    # a flat kink needs no column
    kinks, jumps = np.asarray(breakpoints, dtype=float)[keep], jumps[keep]
    c0 = -float(jumps @ np.maximum(-kinks, 0.0))
    n, q = par.C.shape
    m = None if fam == "ew" else q        # sr: capital m, oce: eta = -m
    w0 = q + (m is not None)
    nv = w0 + n * kinks.size
    lift = 0.0 if m is None else _lift(par, kinks.min(initial=0.0))
    rows, rhs = [], []
    for k, b in enumerate(kinks):         # w_k >= -X - m - b_k
        block, bound = _hinge_rows(par, nv, m, w0 + k * n, b, lift)
        rows.append(block)
        rhs.append(bound)
    # E[l(y)] = loss . v + const
    loss_row = np.zeros(nv)
    loss_row[:q] = -s0 * (p @ par.C)
    if m is not None:
        loss_row[m] = -s0
    loss_row[w0:] = np.outer(jumps, p).ravel()
    const = c0 - s0 * (p @ par.x0 + lift)
    if fam == "sr":
        c = np.zeros(nv)
        c[m] = 1.0
        rows.append(loss_row[None, :])
        rhs.append([-const])              # E[l(-X-m)] <= 0
        shift = lift
    elif fam == "oce":
        c = loss_row
        c[m] += 1.0
        shift = const + lift
    else:
        c, shift = loss_row, const
    return _solve_family(par, p, c, shift, rows, rhs,
                         np.concatenate([np.full(w0 - q, -np.inf),
                                         np.zeros(nv - w0)]))


def _newton_min(m: Market, p: np.ndarray, log: bool, nu=None):
    """(min, argmin) over the portfolios pi of log E[exp(-X_pi)] (log) or
    E[exp(-X_pi)] - 1, which share their minimiser, by damped Newton on the
    log form.  Unconstrained when nu is None; otherwise KKT steps keep
    E[X_pi] = nu from the least-norm start nu g / |g|^2.  An array of nu
    gives the minima and a (d, nodes) array of minimisers, every round one
    batched solve and line search over the nodes that have not stopped."""
    E, g, d = m.excess, m.mean_excess, m.d
    Pi = np.outer(g, np.atleast_1d(0.0 if nu is None else nu)) / float(g @ g)
    k = d if nu is None else d + 1        # size of the Newton / KKT system
    kkt = np.block([[1e-12 * np.eye(d), g[:, None]], [g, 0.0]])[:k, :k]
    EE = (E[:, :, None] * E[:, None, :]).reshape(-1, d * d)

    f = _entropic(p, E @ Pi)
    live = np.arange(Pi.shape[1])
    for _ in range(200):
        expo = -(E @ Pi[:, live])
        W = p[:, None] * np.exp(expo - expo.max(axis=0))
        W /= W.sum(axis=0)                 # normalised weights of exp(-X)
        G = -(E.T @ W).T                   # one gradient per row
        A = np.repeat(kkt[None], live.size, axis=0)
        A[:, :d, :d] += ((W.T @ EE).reshape(-1, d, d)
                         - G[:, :, None] * G[:, None, :])
        b = np.concatenate([-G, np.zeros((live.size, k - d))], axis=1)
        steps = np.linalg.solve(A, b[:, :, None])[:, :d, 0]
        decrement = -np.einsum("ij,ij->i", G, steps)  # twice the decrease
        lamb, todo = 1.0, np.flatnonzero(decrement > 1e-18)  # rows searching
        moved = np.zeros(live.size, dtype=bool)
        while todo.size and lamb >= 1e-12:
            nodes = live[todo]
            trial = Pi[:, nodes] + lamb * steps[todo].T
            f_trial = _entropic(p, E @ trial)
            ok = f_trial <= f[nodes] - 0.25 * lamb * decrement[todo]
            # below half an ulp of f the test passes without progress: such
            # a step is taken, but its node stops
            moved[todo[ok & (f_trial < f[nodes])]] = True
            Pi[:, nodes[ok]], f[nodes[ok]] = trial[:, ok], f_trial[ok]
            # near the minimiser only the full step is worth trying
            todo = todo[~ok & (decrement[todo] > 1e-12)]
            lamb *= 0.5
        live = live[moved]                 # a node with no descent stops
        if not live.size:
            break
    f = f if log else np.expm1(f)
    return (f, Pi) if np.ndim(nu) else (float(f[0]), Pi[:, 0])


def _tail_density(X: RandVar, alpha: float) -> np.ndarray:
    """A maximiser of E[-ZX] over {0 <= Z <= 1/alpha, E[Z] = 1}."""
    order, _ = ascending(X.values)
    p = X.space.probs[order]
    z = np.zeros(X.space.n)
    budget = alpha
    for pos, idx in enumerate(order):
        take = min(p[pos], budget)
        z[idx] = take / (alpha * p[pos])
        budget -= take
        if budget <= 1e-15:
            break
    return z


def _kelley_min(oracle, par: _Param, p: np.ndarray):
    """Minimise a convex function of theta over par's rows from
    value/subgradient cuts, the master LP built by ``_solve_family``.

    The box starts at +-16 and grows fourfold while the master LP is
    infeasible or its minimiser sits on the box's edge, up to 2^24 times the
    largest entry of par's offset and right-hand sides.  The start theta = 0
    is a candidate, so it must meet par's rows, as rho_nu's slice from
    at = nu does.
    """
    q = par.C.shape[1]
    cap = 2.0 ** 24 * max(1.0, *np.abs(par.x0), *np.abs(par.b_ub))
    rows, rhs = [], []                     # cuts g.theta - tau <= g.t - v
    c = np.zeros(q + 1)
    c[q] = 1.0
    t = np.zeros(q)
    best_v, best_t = math.inf, t
    R = 16.0
    for _ in range(400):
        v, g = oracle(t)
        if v < best_v - 1e-15:
            best_v, best_t = v, t.copy()
        rows.append(np.append(g, -1.0))
        rhs.append(float(g @ t) - v)
        while True:
            box = replace(par, lower=np.full(q, -R), upper=np.full(q, R))
            res, t_new = _solve_family(box, p, c, 0.0, [np.array(rows)],
                                       [np.array(rhs)], np.array([-np.inf]))
            if res.status != INFEASIBLE or R >= cap:
                break
            R *= 4.0
        if res.status != OPTIMAL:  # pragma: no cover
            raise LPError("cutting-plane master LP failed")
        if np.max(np.abs(t_new)) > R - 1e-6 and R < cap:
            R *= 4.0
        elif best_v - res.value <= OBJ_TOL * max(1.0, abs(best_v)):
            break
        t = t_new
    return best_v, best_t


def _sup_es_oracle(par: _Param, space, spec: RiskSpec):
    """Value/subgradient oracle for lses / adjusted-ES objectives."""
    p = space.probs

    def oracle(t):
        X = RandVar(space, par.x0 + par.C @ t)
        if spec.family == "lses":
            bd = lses_mod.evaluate(X, spec.b)
            alpha, value = bd.alpha_star, bd.value
        else:
            value, alpha = adjusted_es_argmax(X, spec.profile)
        z = _tail_density(X, alpha)
        grad = -par.C.T @ (p * z)
        return value, grad

    return oracle


def _lp_min(spec: RiskSpec):
    """The family's LP as a function of (par, p) that returns (LPResult,
    theta) over par; None for the families without one (exp losses, ew
    with c y^gamma for gamma > 1, general adjusted-ES profiles)."""
    fam = spec.family
    if fam in ("es", "lses", "adjes"):
        pieces = _shortfall_pieces(spec)
        return None if pieces is None else (
            lambda par, p: _es_min(par, p, pieces))
    if fam == "eloss":                     # min E[-X(theta)] is linear
        return lambda par, p: _solve_family(
            par, p, -(p @ par.C), -float(p @ par.x0), [], [], np.zeros(0))
    if fam == "wc" or (fam == "sr" and spec.loss.zero_on_negatives):
        return _wc_min
    if fam in ("ew", "sr", "oce"):
        loss = spec.loss
        if loss.kind == "pwl":
            return lambda par, p: _pwl_family_min(par, p, fam, loss.slopes,
                                                  loss.breakpoints)
        if loss.kind == "power" and loss.exponent == 1.0:
            # c y^+ is the pwl loss with slopes (0, c) kinked at 0
            return lambda par, p: _pwl_family_min(par, p, fam,
                                                  (0.0, loss.coef), (0.0,))
    return None


def rho_nu(spec: RiskSpec, m: Market, nu: float):
    """(rho_nu, minimiser): minimal risk over portfolios with E[X_pi] = nu.

    Every family with an LP (``_lp_min``: es, wc, eloss, lses, adjusted ES
    with constant / affine-in-1/x profile pieces, pwl and c y^+ losses)
    solves it once over the slice; only a general adjusted-ES profile runs
    Kelley cutting planes, and an exp loss runs Newton over pi with the row
    E[X_pi] = nu.  For a positively homogeneous family the unit slice is
    also the recession LP (``_unit_slice``).

    Raises ``LPError`` when a slice LP ends other than optimal, unbounded
    included: every built-in family is bounded below on a slice.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if spec.family == "var":
        raise ValueError("value-at-risk slice minimisation is not supported")
    par = _pi_param(m, nu, nu, at=nu)
    lp = _lp_min(spec)
    if lp is None:
        return _smooth_min(spec, m, par, nu)
    return _slice_answer(par, *lp(par, m.space.probs))


def _slice_answer(par: _Param, res: LPResult, t):
    """rho_nu's answer from a slice LP over par."""
    if res.status != OPTIMAL:
        raise LPError(f"slice LP ended with status {res.status}")
    return float(res.value), par.to_portfolio(t)


def _smooth_min(spec: RiskSpec, m: Market, par: _Param,
                nu: float | None = None):
    """(value, pi) over par for a family without an LP: Kelley for a general
    adjusted-ES profile, Newton over pi for an exp loss (on E[X_pi] = nu
    when nu is set, else unconstrained)."""
    p = m.space.probs
    if spec.family == "adjes":
        v, t = _kelley_min(_sup_es_oracle(par, m.space, spec), par, p)
        return v, par.to_portfolio(t)
    if spec.loss.kind != "exp":
        raise ValueError(f"{spec.family} slice minimisation unsupported for "
                         f"{spec.loss.kind} losses")
    return _newton_min(m, p, spec.family != "ew", nu)


def _band_min(spec: RiskSpec, m: Market, lo: float, hi: float = math.inf):
    """(LPResult, pi) of min rho(X_pi) over lo <= E[X_pi] <= hi for a convex
    family that is not positively homogeneous.

    An LP family solves its LP over the portfolios, a general adjusted-ES
    profile runs Kelley over them, and an exp loss takes the unconstrained
    Newton minimiser, replaced by the slice at the nearer edge of the band
    when its return leaves the band: nu -> rho_nu is convex, so that slice
    is the band's minimum.
    """
    par = _pi_param(m, lo, hi, at=lo)
    lp = _lp_min(spec)
    if lp is not None:
        res, t = lp(par, m.space.probs)
        return res, None if t is None else par.to_portfolio(t)
    v, pi = _smooth_min(spec, m, par)
    nu = float(m.mean_excess @ pi)
    if spec.family != "adjes" and not lo <= nu <= hi:
        v, pi = rho_nu(spec, m, lo if nu < lo else hi)
    return LPResult(OPTIMAL, pi, v), pi


# ---------------------------------------------------------------------------
# Recession frontier (the recession measure's own LP)
# ---------------------------------------------------------------------------

def _recession_spec(spec: RiskSpec) -> RiskSpec | None:
    """The recession measure rho^inf of ``spec``, or None for ew with
    b_l = inf (rho^inf is 0 on X >= 0 and inf elsewhere).

    es, wc, eloss and every positively homogeneous family are their own
    recession measure; lses, and adjusted ES with beta = 0, have wc, and
    adjusted ES with beta > 0 has es at beta.  ew/sr/oce have the same
    family with the asymptotic loss l_inf(y) = b_l y^+ - a_l y^-, except
    that sr is wc when l_inf vanishes on the negatives or is infinite on
    the positives, and oce when both hold.  Every loss with b_l = inf has
    a_l = 0, so only ew reaches the slopes (0, inf).
    """
    fam = spec.family
    if fam == "var":
        raise ValueError(f"no recession frontier for family {fam!r}")
    if fam in ("es", "wc", "eloss") or spec.positively_homogeneous:
        return spec
    if fam == "lses":
        return RiskSpec.wc()
    if fam == "adjes":
        beta = spec.profile.beta
        return RiskSpec.es_at(beta) if beta > 0 else RiskSpec.wc()
    loss = spec.loss
    a, b = loss.a_l, loss.b_l
    if (fam == "sr" and (loss.zero_on_negatives or a == 0.0
                         or b == math.inf)
            or fam == "oce" and a == 0.0 and b == math.inf):
        return RiskSpec.wc()
    if b == math.inf:
        return None
    return RiskSpec(fam, loss=LossFunction.pwl((a, b), (0.0,)))


def _recession_min(spec: RiskSpec, m: Market, par: _Param):
    """(min, argmin) of rho^inf over par: the recession measure's LP, -inf
    when it is unbounded; for ew with b_l = inf the feasibility LP of
    X >= 0, inf when it is infeasible."""
    p = m.space.probs
    rec = _recession_spec(spec)
    if rec is not None:
        res, t = _lp_min(rec)(par, p)
    else:                                  # ew: 0 on X >= 0, inf elsewhere
        q = par.C.shape[1]
        block, bound = _hinge_rows(par, q, None, None)      # -X <= 0
        res, t = _solve_family(par, p, np.zeros(q), 0.0, [block], [bound],
                               np.zeros(0))
        if res.status == INFEASIBLE:
            return math.inf, None
    if res.status == UNBOUNDED:
        return -math.inf, None
    if res.status != OPTIMAL:
        raise LPError(f"recession LP ended with status {res.status}")
    return float(res.value), par.to_portfolio(t)


def rho_inf_nu(spec: RiskSpec, m: Market, nu: float) -> float:
    """Recession-boundary value: min of the recession risk over the slice."""
    value, _ = _recession_min(spec, m, _pi_param(m, nu, nu, at=nu))
    return value


def recession_ball_min(spec: RiskSpec, m: Market):
    """(min, argmin) of the recession risk over the l1 ball of portfolios.

    The recession risk is positively homogeneous, so the LP runs on the
    excess returns over their largest entry and its minimum is scaled back:
    the simplex's tolerances then meet the same data whatever its units.
    """
    scale = float(np.abs(m.excess).max(initial=0.0)) or 1.0
    par = _ball_param(m)
    value, pi = _recession_min(spec, m, replace(par, C=par.C / scale))
    return scale * value, pi


def _ball_descends(value: float, m: Market) -> bool:
    """Whether a recession minimum over the l1 ball is negative.  On the
    ball |X| <= max|excess|, so SIGN_TOL shrinks with that scale below 1."""
    scale = min(1.0, float(np.abs(m.excess).max(initial=0.0)))
    return value < -SIGN_TOL * scale


def _unit_slice(spec: RiskSpec, m: Market):
    """(rho_1, pi_1) of a positively homogeneous family from one LP.

    rho^inf is the least positively homogeneous measure above rho, so
    rho^inf = rho here: the recession LP over the slice E[X_pi] = 1 is
    rho_nu's unit slice LP, and rho_inf_1 = rho_1.  Any failure of the LP,
    unbounded included, raises ``LPError``.
    """
    par = _pi_param(m, 1.0, 1.0, at=1.0)
    return _slice_answer(par, *_lp_min(_recession_spec(spec))(
        par, m.space.probs))


# ---------------------------------------------------------------------------
# Boundary sweep and efficient frontier
# ---------------------------------------------------------------------------

REGIME_POSITIVE = "POSITIVE"
REGIME_ZERO = "ZERO"
REGIME_NEGATIVE = "NEGATIVE"
REGIME_INFINITE = "INFINITE"


@dataclass
class FrontierResult:
    nu_grid: np.ndarray
    rho_values: np.ndarray
    optimal_portfolios: list
    nu_min: float
    rho_min: float
    rho_inf_1: float
    regime: str
    errors: list = field(default_factory=list)

    def rho_inf_values(self) -> np.ndarray:
        # rho_inf(0) = 0 even when rho_inf_1 is infinite (0 * inf is NaN)
        vals = np.zeros(self.nu_grid.shape)
        moved = self.nu_grid != 0
        vals[moved] = self.nu_grid[moved] * self.rho_inf_1
        return vals


def optimal_boundary(spec: RiskSpec, m: Market, nu_max: float,
                     steps: int) -> FrontierResult:
    """Sweep rho_nu over a uniform grid and classify the regime.

    A positively homogeneous family (eloss and every zero-valued
    adjusted-ES profile included) has rho_nu = nu rho_1 with minimiser
    nu pi_1 for nu > 0, and its sweep is one LP, the unit slice
    (``_unit_slice``): rho^inf = rho, so that LP also gives rho_inf_1 =
    rho_1, and sublinearity fixes rho_0 = 0 at pi = 0.  A failed unit slice
    LP raises ``LPError``.
    Other families take rho_inf_1 first and solve one slice per grid node:
    an LP family all of them on one path (``solve_lp_path``), an exp loss
    all of them in one batched Newton, the others one ``rho_nu`` each.
    Grid values within a tie of 1e-12 max_j |X_{pi_j}|_inf (over the nodes'
    portfolios) of the least count as equal, so that rounding cannot move
    nu_min along a flat boundary: the lowest nu among them is the argmin.

    In the positive regime a convex family that is not homogeneous takes
    its boundary minimiser from one solve over the band
    0 <= E[X_pi] <= nu_max: an LP family's path solves it last, the others
    call ``_band_min``.  Otherwise the grid argmin stands (irregular
    boundaries are legal for star-shaped measures); in the zero regime a
    boundary that falls by more than the tie at every step has no
    minimiser (nu_min = inf).  A failed slice is a NaN row and an entry of
    ``errors``; when every slice fails, nu_min and rho_min are NaN.
    """
    if nu_max <= 0 or steps < 2:
        raise ValueError("need nu_max > 0 and steps >= 2")
    grid = np.linspace(0.0, nu_max, steps)
    errors: list[str] = []

    def solve_point(nu, node=None):
        try:
            if node is None:
                return rho_nu(spec, m, float(nu))
            return _slice_answer(*node)
        except LPError as exc:           # recorded, not fatal
            errors.append(f"nu={nu:g}: {exc}")
            return math.nan, None

    homogeneous = spec.positively_homogeneous
    if homogeneous:
        rho_1, pi_1 = _unit_slice(spec, m)
        rho_inf_1 = rho_1                # rho^inf = rho
    else:
        rho_inf_1 = rho_inf_nu(spec, m, 1.0)
    if rho_inf_1 == math.inf:
        regime = REGIME_INFINITE
    elif rho_inf_1 > SIGN_TOL:
        regime = REGIME_POSITIVE
    elif rho_inf_1 < -SIGN_TOL:
        regime = REGIME_NEGATIVE
    else:
        regime = REGIME_ZERO
    band = spec.convex and not homogeneous and regime == REGIME_POSITIVE
    band_min = None

    if homogeneous:                      # sublinearity: rho_0 = 0 at pi = 0
        results = [(0.0, np.zeros(m.d))] + [(nu * rho_1, nu * pi_1)
                                            for nu in grid[1:]]
    elif getattr(spec.loss, "kind", "") == "exp":
        values, pis = _newton_min(m, m.space.probs, spec.family != "ew", grid)
        results = list(zip(values, pis.T))
    else:
        # an LP family solves every node on one path from pi = 0, and the
        # band last where it is wanted; without an LP, or when the path
        # fails, each node runs rho_nu
        lp, nodes = _lp_min(spec), [None] * steps
        if lp is not None:
            lo = np.append(grid, 0.0) if band else grid
            par = _pi_param(m, lo, np.append(grid, nu_max) if band else grid)
            try:
                nodes = [(par, *res) for res in lp(par, m.space.probs)]
            except LPError:
                pass
        if len(nodes) > steps:             # the band's column
            _, res, t = nodes.pop()
            band_min = res, None if t is None else par.to_portfolio(t)
        results = [solve_point(nu, node) for nu, node in zip(grid, nodes)]
    values = np.array([v for v, _ in results])
    portfolios = [piv for _, piv in results]

    if np.all(np.isnan(values)):
        return FrontierResult(grid, values, portfolios, math.nan, math.nan,
                              rho_inf_1, regime, errors)
    tie = 1e-12 * max((float(np.abs(m.excess @ pi).max())
                       for pi in portfolios if pi is not None), default=0.0)
    k = int((values <= np.nanmin(values) + tie).argmax())
    nu_min, rho_min = float(grid[k]), float(values[k])
    if band:
        res, pi = band_min or _band_min(spec, m, 0.0, nu_max)
        if res.status == OPTIMAL and res.value <= rho_min:
            nu_min = float(np.clip(m.mean_excess @ pi, 0.0, nu_max))
            rho_min = float(res.value)
    if regime == REGIME_NEGATIVE:
        nu_min, rho_min = math.inf, -math.inf
    elif regime == REGIME_ZERO and np.all(np.diff(values) < -tie):
        nu_min = math.inf               # decreasing boundary, no minimiser
    return FrontierResult(grid, values, portfolios, nu_min, rho_min,
                          rho_inf_1, regime, errors)


@dataclass
class EfficientFrontier:
    empty: bool
    nu_values: np.ndarray
    rho_values: np.ndarray
    portfolios: list


def efficient_frontier(spec: RiskSpec, m: Market,
                       fr: FrontierResult) -> EfficientFrontier:
    """The efficient part of a convex boundary; empty under rho-arbitrage."""
    if not spec.convex:
        raise ValueError("the efficient-frontier rule needs a convex family")
    if fr.rho_inf_1 <= SIGN_TOL:
        return EfficientFrontier(True, np.zeros(0), np.zeros(0), [])
    mask = (fr.nu_grid >= fr.nu_min - 1e-12) & np.isfinite(fr.rho_values)
    return EfficientFrontier(False, fr.nu_grid[mask], fr.rho_values[mask],
                             [pi for pi, keep in zip(fr.optimal_portfolios, mask)
                              if keep])


def recession_efficient_frontier(rho_inf_1: float):
    """Three-case efficient frontier of the recession measure itself.

    Returns ("empty",), ("ray", slope) with the frontier {(nu*slope, nu)},
    or ("origin",) when every nonzero portfolio has infinite recession risk.
    """
    if rho_inf_1 == math.inf:
        return ("origin",)
    if rho_inf_1 <= SIGN_TOL:
        return ("empty",)
    return ("ray", rho_inf_1)


# ---------------------------------------------------------------------------
# Arbitrage detectors
# ---------------------------------------------------------------------------

@dataclass
class ArbitrageReport:
    classical: ArbitrageWitness | None
    rho_arbitrage: bool
    strong_rho_arbitrage: bool
    strong_recession_arbitrage: bool
    rho_inf_1: float
    ball_min: float
    interior_witness: Density | None
    closure_witness: Density | None
    descent_ray: np.ndarray | None
    errors: list = field(default_factory=list)


def detect_arbitrage(spec: RiskSpec, m: Market) -> ArbitrageReport:
    """Classical, rho- and strong-rho-arbitrage with primal/dual cross checks.

    rho-arbitrage: dual test = emptiness of the strict-interior dual set
    intersected with the equivalent martingale densities; primal test = sign
    of the recession boundary at unit return.  Strong rho-arbitrage: dual
    test = emptiness of the closed (lsc convex hull) dual set intersected
    with the absolutely continuous martingale densities; the primal descent
    ray over the l1 ball certifies the recession-measure variant, which can
    be strictly weaker for adjusted-ES profiles unbounded near beta.
    Disagreements beyond tolerance are recorded as internal errors.
    """
    errors: list[str] = []
    classical = check_classical_arbitrage(m)

    interior = interior_martingale_feasibility(m, dual_set(spec))
    rho_arb = interior is None
    rho_inf_1 = rho_inf_nu(spec, m, 1.0)
    if interior is not None and rho_inf_1 < -SIGN_TOL:
        errors.append("dual interior witness exists but rho_inf_1 < 0")
    if interior is None and rho_inf_1 > SIGN_TOL:
        errors.append("no dual interior witness but rho_inf_1 > 0")

    closure_w = martingale_feasibility(m, closure_dual_set(spec))
    strong = closure_w is None
    ball_min, ball_pi = recession_ball_min(spec, m)
    strong_inf = _ball_descends(ball_min, m)
    ray = ball_pi if strong_inf else None
    if strong_inf and not strong:
        errors.append("descent ray found but the closure dual set meets M")
    if strong and not rho_arb:
        errors.append("strong rho-arbitrage without rho-arbitrage")
    if classical is not None and not rho_arb:
        errors.append("classical arbitrage without rho-arbitrage")

    return ArbitrageReport(classical, rho_arb, strong, strong_inf,
                           rho_inf_1, ball_min, interior, closure_w, ray,
                           errors)


# ---------------------------------------------------------------------------
# The two mean-risk problems
# ---------------------------------------------------------------------------

@dataclass
class MeanRiskSolution:
    status: str                      # optimal | unbounded | infeasible
    value: float | None = None       # optimal risk (min-risk) or return
    portfolio: np.ndarray | None = None
    nu: float | None = None
    cause: str | None = None


def mean_rho_solve(spec: RiskSpec, m: Market, mode: str,
                   level: float) -> MeanRiskSolution:
    """MIN_RISK(nu*): least risk with expected excess return >= nu*.
    MAX_RETURN(rho*): largest expected excess return with risk <= rho*.

    MAX_RETURN is unbounded when the market admits rho-arbitrage for the
    family (nonpositive recession slope), MIN_RISK when the slope is
    negative.  With a positive slope, a positively homogeneous family's
    boundary is the increasing ray nu rho_1 at nu pi_1, so MIN_RISK is
    nu = nu* and MAX_RETURN is nu = rho* / rho_1, the sweep's formula for
    its nodes.  rho^inf = rho for
    such a family, so the one unit slice LP (``_unit_slice``) gives both the
    slope and (rho_1, pi_1), for every homogeneous family (eloss included)
    and on one asset too; a failed unit slice LP raises ``LPError``.
    Any other family answers MIN_RISK with one solve over the portfolios
    with E[X_pi] >= nu*, from a start point of return nu* (``_band_min``);
    an exp loss with a zero slope is unbounded, as E[exp(-X)] is strictly
    convex and never attains the infimum.  MAX_RETURN maximises E[X_pi]
    with the risk objective moved into rows <= rho*, one LP; the families
    without an LP bisect the increasing branch of the convex boundary,
    solving each slice once.
    """
    if level < 0:
        raise ValueError("the target level must be nonnegative")
    if mode not in ("MIN_RISK", "MAX_RETURN"):
        raise ValueError(f"unknown mode {mode!r}")
    max_return = mode == "MAX_RETURN"
    if spec.positively_homogeneous:
        rho_1, pi_1 = _unit_slice(spec, m)
        if rho_1 > SIGN_TOL:
            nu = level / rho_1 if max_return else level
            return MeanRiskSolution("optimal",
                                    nu if max_return else nu * rho_1,
                                    nu * pi_1, nu)
        rho_inf_1 = rho_1                # rho^inf = rho
    else:
        rho_inf_1 = rho_inf_nu(spec, m, 1.0)
    if not max_return:
        if rho_inf_1 < -SIGN_TOL:
            return MeanRiskSolution("unbounded",
                                    cause="negative recession slope")
        if rho_inf_1 <= SIGN_TOL and getattr(spec.loss, "kind", "") == "exp":
            return MeanRiskSolution("unbounded",
                                    cause="risk keeps decreasing with return")
        return _lp_solution(m, *_band_min(spec, m, level), max_return=False)
    if rho_inf_1 <= SIGN_TOL:
        return MeanRiskSolution(
            "unbounded", cause="rho-arbitrage: nonpositive recession slope")
    lp = _lp_min(spec)
    if lp is not None:
        par = _pi_param(m, 0.0, budget=level)
        res, t = lp(par, m.space.probs)
        return _lp_solution(m, res, None if t is None else par.to_portfolio(t),
                            max_return=True)
    # rho_nu -> inf as nu -> inf, so bisect the increasing branch; the
    # last doubling step within budget starts the bracket (the risk at
    # nu = 0 is at most rho(0) = 0 <= rho*)
    lo, hi, at_lo = 0.0, 1.0, rho_nu(spec, m, 0.0)
    for _ in range(200):
        at_hi = rho_nu(spec, m, hi)
        if at_hi[0] > level:
            break
        lo, at_lo = hi, at_hi
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        at_mid = rho_nu(spec, m, mid)
        if at_mid[0] <= level:
            lo, at_lo = mid, at_mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, hi):
            break
    return MeanRiskSolution("optimal", lo, at_lo[1], lo)


def _lp_solution(m: Market, res, pi, max_return: bool) -> MeanRiskSolution:
    """The mean-risk answer of one LP over the portfolios."""
    if res.status == OPTIMAL:
        nu = float(m.mean_excess @ pi)
        return MeanRiskSolution("optimal", nu if max_return else res.value,
                                pi, nu)
    if res.status == INFEASIBLE:
        return MeanRiskSolution("infeasible",
                                cause="risk budget below minimal risk")
    return MeanRiskSolution("unbounded", cause=(
        "return unbounded within the risk budget" if max_return
        else "risk keeps decreasing with return"))
