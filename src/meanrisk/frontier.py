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
* pwl loss families     -> epigraph LPs over the loss pieces
* exp loss families     -> damped Newton on the smooth convex objective
* positively homogeneous families (es, wc, eloss, ew/sr/oce with a loss
  kinked at 0 only, adjusted ES with a profile vanishing on [beta, 1])
                        -> rho_nu = nu rho_1, so a boundary sweep solves the
                           slices at nu = 0 and 1 only, and the mean-risk
                           problems one slice each

Recession frontiers are linear programs obtained by dualising the inner
support-function maximisation over the closed dual polytope, so the primal
arbitrage detectors never consult the martingale feasibility programs they
are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lses as lses_mod
from .dual import (Density, closure_dual_set, dual_set,
                   interior_martingale_feasibility, martingale_feasibility)
from .losses import lses_profile
from .market import (ArbitrageWitness, Market, RandVar,
                     check_classical_arbitrage, excess_return,
                     portfolio_slice)
from .measures import RiskSpec, adjusted_es_argmax, evaluate
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPError, solve_lp

SIGN_TOL = 1e-7          # sign classification of rho_inf_1 and ball minima
OBJ_TOL = 1e-8           # cutting-plane convergence on objective values


# ---------------------------------------------------------------------------
# Portfolio parametrisations
# ---------------------------------------------------------------------------

@dataclass
class _Param:
    """X = x0 + C theta over a variable vector theta with optional rows."""

    x0: np.ndarray
    C: np.ndarray                  # (n, q)
    lower: np.ndarray
    upper: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    to_portfolio: object           # theta -> pi


def _slice_param(m: Market, nu: float) -> _Param:
    sl = portfolio_slice(m, nu)
    B = sl.null_basis
    q = B.shape[1]
    return _Param(m.excess @ sl.particular, m.excess @ B,
                  np.full(q, -np.inf), np.full(q, np.inf),
                  np.zeros((0, q)), np.zeros(0),
                  lambda t: sl.particular + (B @ t if q else 0.0))


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

def _es_min(par: _Param, p: np.ndarray, pieces):
    """min over theta of max_k sup_{lo_k <= x <= hi_k} ES_x(X) - a_k - b_k/x.

    One shortfall LP.  ES_x(X) = min_m m + E[(-X-m)^+]/x and the penalty is
    affine in 1/x, so the sup over a piece is the larger of its two endpoint
    objectives m_k + E[u_k]/x - g(x) over one block (m_k, u_k >= 0,
    u_k >= -X - m_k).  A constant piece (b = 0) keeps its lo endpoint only;
    a piece reaching x = 0 keeps its hi endpoint and bounds E[u_k] <= b_k.
    A single endpoint objective is the LP objective, so ES at alpha, the
    piece (alpha, alpha, 0, 0), is the plain (theta, m, u) LP; several take
    an epigraph variable tau after theta.
    """
    n, q = par.C.shape
    ends = [[hi] if lo == 0.0 else [lo] if b == 0.0 else [lo, hi]
            for lo, hi, _, b in pieces]
    epigraph = len(ends) > 1 or len(ends[0]) > 1
    start = q + int(epigraph)
    nv = start + len(pieces) * (1 + n)
    c = np.zeros(nv)
    shift = 0.0
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
                c, shift = row[0], -(a + b / x)
        block = np.zeros((n, nv))
        block[:, :q] = -par.C
        block[:, mk] = -1.0
        block[:, uk] = -np.eye(n)
        rows.append(block)
        rhs.append(par.x0)                 # u_k >= -X - m_k
        if lo == 0.0:
            row = np.zeros((1, nv))
            row[0, uk] = p
            rows.append(row)
            rhs.append([b])                # E[u_k] <= b_k
    if epigraph:
        c[q] = 1.0
    rows.append(np.hstack([par.A_ub, np.zeros((par.A_ub.shape[0], nv - q))]))
    rhs.append(par.b_ub)
    lower = np.full(nv, -np.inf)
    lower[:q] = par.lower
    lower[start:] = 0.0
    lower[start::1 + n] = -np.inf          # the m_k columns
    upper = np.full(nv, np.inf)
    upper[:q] = par.upper
    res = solve_lp(c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                   lower=lower, upper=upper)
    if res.status != OPTIMAL:
        return res, None
    res.value += shift
    return res, res.x[:q]


def _shortfall_pieces(spec: RiskSpec):
    """(lo, hi, a, b) per piece g = a + b/x of the family's profile, clipped
    to [beta, 1]; None when a piece is general."""
    if spec.family == "es":
        return [(spec.alpha, spec.alpha, 0.0, 0.0)]
    profile = lses_profile(spec.b) if spec.family == "lses" else spec.profile
    if any(pc.kind == "general" for pc in profile.pieces):
        return None
    pieces = []
    for pc in profile.pieces:
        lo, hi = max(pc.lo, profile.beta), min(pc.hi, 1.0)
        if hi > lo:
            pieces.append((lo, hi, pc.a, pc.b if pc.kind == "invlin" else 0.0))
    return pieces


def _wc_min(par: _Param, p: np.ndarray):
    n, q = par.C.shape
    nv = q + 1
    c = np.zeros(nv)
    c[q] = 1.0
    rows = np.zeros((n, nv))
    rows[:, :q] = -par.C
    rows[:, q] = -1.0
    A_ub = np.vstack([rows, np.hstack([par.A_ub, np.zeros((par.A_ub.shape[0], 1))])])
    b_ub = np.concatenate([par.x0, par.b_ub])
    lower = np.concatenate([par.lower, [-np.inf]])
    upper = np.concatenate([par.upper, [np.inf]])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, lower=lower, upper=upper)
    return res, (res.x[:q] if res.status == OPTIMAL else None)


def _pwl_family_min(par: _Param, p: np.ndarray, spec: RiskSpec):
    """Epigraph LP for ew/sr/oce with piecewise-linear losses."""
    loss = spec.loss
    lines = loss.pieces_as_lines()
    n, q = par.C.shape
    fam = spec.family
    extra = 0 if fam == "ew" else 1       # sr: capital m, oce: eta
    nv = q + extra + n
    rows, rhs = [], []
    for (A, B) in lines:
        for i in range(n):
            row = np.zeros(nv)
            # argument y_i = -X_i - m (sr), eta - X_i (oce), -X_i (ew)
            row[:q] = -A * par.C[i]
            if fam == "sr":
                row[q] = -A
            elif fam == "oce":
                row[q] = A
            row[q + extra + i] = -1.0
            rows.append(row)
            rhs.append(A * par.x0[i] - B)
    c = np.zeros(nv)
    if fam == "sr":
        c[q] = 1.0
        row = np.zeros(nv)
        row[q + extra:] = p
        rows.append(row)
        rhs.append(0.0)                   # E[l(-X-m)] <= 0
    elif fam == "oce":
        c[q] = -1.0
        c[q + extra:] = p
    else:
        c[q + extra:] = p
    A_ub = np.vstack([np.array(rows),
                      np.hstack([par.A_ub, np.zeros((par.A_ub.shape[0],
                                                     nv - q))])])
    b_ub = np.concatenate([np.array(rhs), par.b_ub])
    lower = np.concatenate([par.lower, np.full(extra, -np.inf),
                            np.full(n, -np.inf)])
    upper = np.concatenate([par.upper, np.full(extra + n, np.inf)])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, lower=lower, upper=upper)
    return res, (res.x[:q] if res.status == OPTIMAL else None)


def _entropic_min(par: _Param, p: np.ndarray):
    """min log E[exp(-X(theta))] by damped Newton (slice parametrisation)."""
    q = par.C.shape[1]
    t = np.zeros(q)

    def value(tv):
        expo = -(par.x0 + par.C @ tv)
        mx = float(np.max(expo))
        return mx + math.log(float(p @ np.exp(expo - mx)))

    for _ in range(200):
        expo = -(par.x0 + par.C @ t)
        w = p * np.exp(expo - np.max(expo))
        w = w / w.sum()
        grad = -par.C.T @ w
        H = par.C.T @ (par.C * w[:, None]) - np.outer(par.C.T @ w, par.C.T @ w)
        H = H + 1e-12 * np.eye(q)
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:  # pragma: no cover
            step = -grad
        if float(np.linalg.norm(grad)) < 1e-12:
            break
        f0 = value(t)
        lamb = 1.0
        while lamb > 1e-12 and value(t + lamb * step) > f0 - 1e-14:
            lamb *= 0.5
        if lamb <= 1e-12:
            break
        t = t + lamb * step
    return value(t), t


def _ew_exp_min(par: _Param, p: np.ndarray):
    """min E[exp(-X(theta)) - 1] by damped Newton."""
    q = par.C.shape[1]
    t = np.zeros(q)

    def value(tv):
        return float(p @ np.expm1(-(par.x0 + par.C @ tv)))

    for _ in range(200):
        e = p * np.exp(-(par.x0 + par.C @ t))
        grad = -par.C.T @ e
        if float(np.linalg.norm(grad)) < 1e-12:
            break
        H = par.C.T @ (par.C * e[:, None]) + 1e-12 * np.eye(q)
        step = np.linalg.solve(H, -grad)
        f0 = value(t)
        lamb = 1.0
        while lamb > 1e-12 and value(t + lamb * step) > f0 - 1e-14:
            lamb *= 0.5
        if lamb <= 1e-12:
            break
        t = t + lamb * step
    return value(t), t


def _tail_density(X: RandVar, alpha: float) -> np.ndarray:
    """A maximiser of E[-ZX] over {0 <= Z <= 1/alpha, E[Z] = 1}."""
    order = np.argsort(X.values, kind="stable")
    p = X.space.probs[order]
    cum = np.cumsum(p)
    z = np.zeros(X.space.n)
    budget = alpha
    for pos, idx in enumerate(order):
        take = min(p[pos], budget)
        z[idx] = take / (alpha * p[pos])
        budget -= take
        if budget <= 1e-15:
            break
    return z


def _kelley_min(oracle, q: int, radius: float = 16.0):
    """Minimise a convex function from value/subgradient cuts on a box."""
    if q == 0:
        v, _ = oracle(np.zeros(0))
        return v, np.zeros(0)
    cuts = []
    t = np.zeros(q)
    best_v, best_t = math.inf, t
    R = radius
    for _ in range(400):
        v, g = oracle(t)
        if v < best_v - 1e-15:
            best_v, best_t = v, t.copy()
        cuts.append((g.copy(), v - float(g @ t)))
        nv = q + 1
        rows = np.zeros((len(cuts), nv))
        rhs = np.zeros(len(cuts))
        for i, (gi, ci) in enumerate(cuts):
            rows[i, :q] = gi
            rows[i, q] = -1.0
            rhs[i] = -ci
        c = np.zeros(nv)
        c[q] = 1.0
        res = solve_lp(c, A_ub=rows, b_ub=rhs,
                       lower=np.concatenate([np.full(q, -R), [-np.inf]]),
                       upper=np.concatenate([np.full(q, R), [np.inf]]))
        if res.status != OPTIMAL:  # pragma: no cover
            raise LPError("cutting-plane master LP failed")
        t_new, bound = res.x[:q], res.x[q]
        if np.max(np.abs(t_new)) > R - 1e-6 and R < 2 ** 24:
            R *= 4.0
            t = t_new
            continue
        if best_v - bound <= OBJ_TOL * max(1.0, abs(best_v)):
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


def rho_nu(spec: RiskSpec, m: Market, nu: float):
    """(rho_nu, minimiser): minimal risk over portfolios with E[X_pi] = nu.

    ES, LSES and adjusted ES solve one shortfall LP whatever n is, with one
    block per constant / affine-in-1/x profile piece; only a profile with a
    general piece runs Kelley cutting planes.

    Returns (-inf, direction) when the slice problem is certified unbounded,
    which cannot happen for the built-in expectation-bounded families.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    par = _slice_param(m, nu)
    p = m.space.probs
    fam = spec.family
    if par.C.shape[1] == 0:
        pi = par.to_portfolio(np.zeros(0))
        return evaluate(spec, excess_return(m, pi)), pi
    if fam == "var":
        raise ValueError("value-at-risk slice minimisation is not supported")
    if fam == "eloss":
        return -nu, par.to_portfolio(np.zeros(par.C.shape[1]))
    if fam in ("es", "lses", "adjes"):
        pieces = _shortfall_pieces(spec)
        if pieces is None:
            v, t = _kelley_min(_sup_es_oracle(par, m.space, spec),
                               par.C.shape[1])
            return v, par.to_portfolio(t)
        res, t = _es_min(par, p, pieces)
    elif fam == "wc":
        res, t = _wc_min(par, p)
    elif fam in ("ew", "sr", "oce"):
        loss = spec.loss
        if fam == "sr" and loss.zero_on_negatives:
            res, t = _wc_min(par, p)
        elif loss.kind == "pwl":
            res, t = _pwl_family_min(par, p, spec)
        elif loss.kind == "exp":
            if fam == "ew":
                v, t = _ew_exp_min(par, p)
            else:
                v, t = _entropic_min(par, p)
            return v, par.to_portfolio(t)
        else:
            raise ValueError(f"{fam} slice minimisation unsupported for "
                             f"{loss.kind} losses")
    else:  # pragma: no cover
        raise ValueError(f"unsupported family {fam!r}")

    if res.status == UNBOUNDED:
        direction = _descent_direction(spec, m, par)
        return -math.inf, direction
    if res.status != OPTIMAL:
        raise LPError(f"slice LP ended with status {res.status}")
    return float(res.value), par.to_portfolio(t)


def _descent_direction(spec: RiskSpec, m: Market, par: _Param):
    """A null direction along which the recession risk is negative, if any."""
    value, pi = recession_ball_min(spec, m)
    return pi if value < -SIGN_TOL else None


# ---------------------------------------------------------------------------
# Recession frontier (linear programs over the closed dual polytopes)
# ---------------------------------------------------------------------------

def _recession_descriptor(spec: RiskSpec):
    fam = spec.family
    if fam == "es":
        return ("es", spec.alpha)
    if fam in ("wc", "lses"):
        return ("wc",)
    if fam == "eloss":
        return ("eloss",)
    if fam == "adjes":
        beta = spec.profile.beta
        return ("es", beta) if beta > 0 else ("wc",)
    if fam == "oce":
        a, b = spec.loss.a_l, spec.loss.b_l
        if a == 0.0 and b == math.inf:
            return ("wc",)
        return ("dualbox", a, b)
    if fam == "sr":
        loss = spec.loss
        if loss.zero_on_negatives or loss.a_l == 0.0 or loss.b_l == math.inf:
            return ("wc",)
        return ("scaled", loss.a_l, loss.b_l)
    if fam == "ew":
        return ("ew", spec.loss.a_l, spec.loss.b_l)
    raise ValueError(f"no recession frontier for family {fam!r}")


def _dualbox_min(par: _Param, p: np.ndarray, kind: str, a: float,
                 b: float):
    """min over theta of max{E[-ZX] : Z in the density set of ``kind``}.

    "dualbox" and "scaled" are the box and scaled-box density sets (with
    E[Z] = 1); "ew" is the box a <= Z <= b without E[Z] = 1, whose support
    function E[b (-X)^+ - a X^+] is the expected weighted loss's recession.
    The inner maximisation is dualised, so the joint problem is one LP in
    (theta, mu, y1, y2), with no mu for "ew".
    """
    n, q = par.C.shape
    has_mu = kind != "ew"
    has_up = b != math.inf
    has_lo = a > 0.0
    n_y1 = n if has_up else 0
    n_y2 = n if has_lo else 0
    y0 = q + int(has_mu)
    nv = y0 + n_y1 + n_y2
    c = np.zeros(nv)
    if has_mu:
        c[q] = 1.0
    if kind != "scaled":
        if has_up:
            c[y0:y0 + n_y1] = b
        if has_lo:
            c[y0 + n_y1:] = -a
    rows, rhs = [], []
    for i in range(n):
        row = np.zeros(nv)
        row[:q] = -p[i] * par.C[i]
        if has_mu:
            row[q] = -p[i]
        if has_up:
            row[y0 + i] = -1.0
        if has_lo:
            row[y0 + n_y1 + i] = 1.0
        rows.append(row)
        rhs.append(p[i] * par.x0[i])       # mu p_i + y1_i - y2_i >= c_i(theta)
    if kind == "scaled":
        row = np.zeros(nv)
        if has_up:
            row[y0:y0 + n_y1] = b
        if has_lo:
            row[y0 + n_y1:] = -a
        rows.append(row)
        rhs.append(0.0)                    # -b sum y1 + a sum y2 >= 0
    A_ub = np.vstack([np.array(rows),
                      np.hstack([par.A_ub, np.zeros((par.A_ub.shape[0],
                                                     nv - q))])])
    b_ub = np.concatenate([np.array(rhs), par.b_ub])
    lower = np.concatenate([par.lower, np.full(y0 - q, -np.inf),
                            np.zeros(n_y1 + n_y2)])
    upper = np.concatenate([par.upper, np.full(nv - q, np.inf)])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, lower=lower, upper=upper)
    return res, (res.x[:q] if res.status == OPTIMAL else None)


def _recession_min(spec: RiskSpec, m: Market, par: _Param):
    p = m.space.probs
    desc = _recession_descriptor(spec)
    if desc[0] == "es":
        res, t = _es_min(par, p, [(desc[1], desc[1], 0.0, 0.0)])
    elif desc[0] == "wc":
        res, t = _wc_min(par, p)
    elif desc[0] == "eloss":
        # min E[-X(theta)] is linear
        c0 = -float(p @ par.x0)
        ct = -(p @ par.C)
        res = solve_lp(ct, A_ub=par.A_ub, b_ub=par.b_ub,
                       lower=par.lower, upper=par.upper)
        if res.status == OPTIMAL:
            return float(res.value) + c0, par.to_portfolio(res.x)
        return -math.inf, None
    else:
        res, t = _dualbox_min(par, p, *desc)
    if res.status == UNBOUNDED:
        return -math.inf, None
    if res.status == INFEASIBLE and desc[0] == "ew":
        return math.inf, None              # b_l = inf, and every X loses somewhere
    if res.status != OPTIMAL:
        raise LPError(f"recession LP ended with status {res.status}")
    return float(res.value), par.to_portfolio(t)


def rho_inf_nu(spec: RiskSpec, m: Market, nu: float) -> float:
    """Recession-boundary value: min of the recession risk over the slice."""
    value, _ = _recession_min(spec, m, _slice_param(m, nu))
    return value


def recession_ball_min(spec: RiskSpec, m: Market):
    """(min, argmin) of the recession risk over the l1 ball of portfolios."""
    value, pi = _recession_min(spec, m, _ball_param(m))
    return value, pi


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


def _golden_argmin(f, lo: float, hi: float, tol: float) -> float:
    """Midpoint of the golden-section bracket of a unimodal f on [lo, hi],
    shrunk below width tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_boundary(spec: RiskSpec, m: Market, nu_max: float,
                     steps: int) -> FrontierResult:
    """Sweep rho_nu over a uniform grid and classify the regime.

    A positively homogeneous family has rho_nu = nu rho_1 with minimiser
    nu pi_1 for nu > 0, so its sweep solves the slices at nu = 0 and 1 only
    (a -inf or failed unit slice carries to every nu > 0).  Other families
    solve one slice per grid node.

    In convex families the boundary minimiser is refined by golden section
    between the neighbouring grid nodes of the argmin; otherwise the grid
    argmin stands (irregular boundaries are legal for star-shaped measures).
    When every slice fails, nu_min and rho_min are NaN and ``errors`` says why.
    """
    if nu_max <= 0 or steps < 2:
        raise ValueError("need nu_max > 0 and steps >= 2")
    grid = np.linspace(0.0, nu_max, steps)
    errors: list[str] = []

    def solve_point(nu):
        try:
            return rho_nu(spec, m, float(nu))
        except LPError as exc:           # recorded, not fatal
            errors.append(f"nu={nu:g}: {exc}")
            return math.nan, None

    if spec.positively_homogeneous:
        at_zero = solve_point(0.0)
        rho_1, pi_1 = solve_point(1.0)
        scalable = math.isfinite(rho_1)
        results = [at_zero] + [
            (nu * rho_1, nu * pi_1) if scalable else (rho_1, pi_1)
            for nu in grid[1:]]
    else:
        results = [solve_point(nu) for nu in grid]
    values = np.array([v for v, _ in results])
    portfolios = [piv for _, piv in results]

    rho_inf_1 = rho_inf_nu(spec, m, 1.0)
    if rho_inf_1 == math.inf:
        regime = REGIME_INFINITE
    elif rho_inf_1 > SIGN_TOL:
        regime = REGIME_POSITIVE
    elif rho_inf_1 < -SIGN_TOL:
        regime = REGIME_NEGATIVE
    else:
        regime = REGIME_ZERO

    if np.all(np.isnan(values)):
        return FrontierResult(grid, values, portfolios, math.nan, math.nan,
                              rho_inf_1, regime, errors)
    k = int(np.nanargmin(values))
    nu_min, rho_min = float(grid[k]), float(values[k])
    if spec.convex and regime == REGIME_POSITIVE and 0 < k < steps - 1:
        nu_ref = _golden_argmin(lambda nu: rho_nu(spec, m, nu)[0],
                                float(grid[k - 1]), float(grid[k + 1]),
                                1e-9 * max(1.0, nu_max))
        rho_ref = rho_nu(spec, m, nu_ref)[0]
        if rho_ref <= rho_min:
            nu_min, rho_min = nu_ref, rho_ref
    if regime == REGIME_NEGATIVE:
        nu_min, rho_min = math.inf, -math.inf
    elif regime == REGIME_ZERO and np.all(np.diff(values) < 0):
        nu_min = math.inf               # nonincreasing boundary, no minimiser
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
    if rho_inf_1 <= 0.0:
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
    strong_inf = ball_min < -SIGN_TOL
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

    Both are declared unbounded when the market admits rho-arbitrage for the
    family (negative or zero recession boundary slope).  With a positive
    slope, a positively homogeneous family's boundary is the increasing ray
    nu rho_1, so MIN_RISK is the slice at nu* and MAX_RETURN is
    nu = rho* / rho_1 with portfolio nu pi_1: one slice LP each.  Other
    families search the convex boundary by golden section (MIN_RISK) and
    bisection (MAX_RETURN), solving each slice once.
    """
    if level < 0:
        raise ValueError("the target level must be nonnegative")
    rho_inf_1 = rho_inf_nu(spec, m, 1.0)
    ray = spec.positively_homogeneous and rho_inf_1 > SIGN_TOL
    if mode == "MIN_RISK":
        if rho_inf_1 < -SIGN_TOL:
            return MeanRiskSolution("unbounded",
                                    cause="negative recession slope")
        if ray:
            value, pi = rho_nu(spec, m, level)
            return MeanRiskSolution("optimal", value, pi, level)
        # golden over nu >= nu* of the convex map nu -> rho_nu
        lo = level
        hi = max(level + 1.0, 2.0 * level)
        at_lo = rho_nu(spec, m, lo)
        for _ in range(80):
            if rho_nu(spec, m, hi)[0] > at_lo[0] or hi > 1e12:
                break
            hi *= 2.0
        if hi > 1e12:
            return MeanRiskSolution("unbounded",
                                    cause="risk keeps decreasing with return")
        mid = _golden_argmin(lambda nu: rho_nu(spec, m, nu)[0], lo, hi,
                             1e-9 * max(1.0, hi))
        at_mid = rho_nu(spec, m, mid)
        best_nu, (value, pi) = min([(lo, at_lo), (mid, at_mid)],
                                   key=lambda cand: cand[1][0])
        return MeanRiskSolution("optimal", value, pi, best_nu)
    if mode == "MAX_RETURN":
        if rho_inf_1 <= SIGN_TOL:
            return MeanRiskSolution(
                "unbounded", cause="rho-arbitrage: nonpositive recession slope")
        if ray:
            rho_1, pi_1 = rho_nu(spec, m, 1.0)
            nu = level / rho_1
            return MeanRiskSolution("optimal", nu, nu * pi_1, nu)
        at_lo = rho_nu(spec, m, 0.0)
        rho_min_proxy = min(0.0, at_lo[0])
        if level < rho_min_proxy - 1e-12:
            return MeanRiskSolution("infeasible",
                                    cause="risk budget below minimal risk")
        # rho_nu -> inf as nu -> inf, so bisect the increasing branch; the
        # last doubling step within budget starts the bracket
        lo, hi = 0.0, 1.0
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
    raise ValueError(f"unknown mode {mode!r}")
