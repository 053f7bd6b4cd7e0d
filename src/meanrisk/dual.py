"""Dual representations: density sets, penalties, recession values and the
martingale-measure feasibility programs.

Every density set used by the arbitrage detectors is polyhedral on a finite
space:

* ``box``          lo <= z_i <= hi
* ``supnorm``      z_i <= hi, optionally strict (an open bound)
* ``scaled_box``   a <= k z_i <= b for some k > 0 (shortfall-risk family)
* ``penalized``    alpha(Z) = E[l*(Z)] over the domain of l*
* ``penalized_sup`` alpha(Z) depends on ||Z||_inf only (adjusted-ES family)

Feasibility against the martingale sets M (absolutely continuous) and P
(equivalent) is decided by linear programming; strict constraints are
resolved by slack maximisation with threshold ``SLACK_TOL``, which is the
numerical meaning of "Z > 0 a.s." on a finite space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import GPiece, LossFunction, TargetProfile, lses_profile
from .market import FiniteSpace, Market, RandVar
from .measures import (RiskSpec, _entropic, es, evaluate, expected_loss,
                       golden_min, quantile_pieces, worst_case)
from .simplex import OPTIMAL, LPError, solve_lp

SLACK_TOL = 1e-9
MEMBER_TOL = 1e-9


@dataclass(frozen=True)
class Density:
    """Nonnegative Z with E[Z] = 1 over a finite space."""

    space: FiniteSpace
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.shape != (self.space.n,):
            raise ValueError("density length must equal the atom count")
        if np.any(z < -1e-12):
            raise ValueError("density values must be nonnegative")
        if abs(float(self.space.probs @ z) - 1.0) > 1e-10:
            raise ValueError("density must integrate to one")
        object.__setattr__(self, "z", z)

    def pair(self, X: RandVar) -> float:
        """E[-Z X]."""
        return -float(self.space.probs @ (self.z * X.values))

    @property
    def sup_norm(self) -> float:
        return float(np.max(self.z))


@dataclass(frozen=True)
class DualSetSpec:
    """Family-derived constraint description plus its penalty evaluator."""

    kind: str                    # box | supnorm | scaled_box | penalized | penalized_sup
    lo: float = 0.0
    hi: float = math.inf
    strict: bool = False
    a_l: float | None = None
    b_l: float | None = None
    loss: LossFunction | None = None
    profile: TargetProfile | None = None
    b: float | None = None       # linear sup-norm penalty coefficient

    def penalty(self, z, probs) -> float:
        """alpha(Z) for a density given as a vector over the atoms."""
        z = np.asarray(z, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if self.kind in ("box", "supnorm"):
            if self.profile is not None:
                return float(self.profile.value(1.0 / float(np.max(z))))
            return 0.0
        if self.kind == "penalized_sup":
            m = float(np.max(z))
            if self.b is not None:
                return self.b * (m - 1.0)
            return float(self.profile.value(1.0 / m))
        if self.kind == "penalized":
            return float(probs @ self.loss.conjugate_value(z))
        if self.kind == "scaled_box":
            return _scaled_box_penalty(z, probs, self.loss)
        raise ValueError(f"unknown dual set kind {self.kind!r}")  # pragma: no cover

    def contains(self, z, tol: float = MEMBER_TOL) -> bool:
        z = np.asarray(z, dtype=float)
        if np.any(z < -tol):
            return False
        if self.kind in ("box", "penalized"):
            lo = self.lo if self.kind == "box" else self.loss.a_l
            hi = self.hi if self.kind == "box" else self.loss.b_l
            return bool(np.all(z >= lo - tol) and np.all(z <= hi + tol))
        if self.kind == "supnorm":
            if self.strict:
                return bool(np.max(z) < self.hi - tol)
            return bool(np.max(z) <= self.hi + tol)
        if self.kind == "penalized_sup":
            return True
        if self.kind == "scaled_box":
            a = self.a_l if self.a_l else 0.0
            b = self.b_l if self.b_l is not None else math.inf
            if a <= 0.0 and b == math.inf:
                return True
            zmax, zmin = float(np.max(z)), float(np.min(z))
            if b == math.inf:
                return zmin > tol
            # exists k with a <= k z <= b  <=>  a / zmin <= b / zmax
            if zmin <= tol:
                return a <= tol
            return a / zmin <= b / zmax + tol
        raise ValueError(f"unknown dual set kind {self.kind!r}")  # pragma: no cover


@dataclass(frozen=True)
class MartingaleSets:
    """The martingale density sets of a market.

    M holds the absolutely continuous densities (E[Z (R^i - r)] = 0 for all
    assets) and P the equivalent ones (Z > 0 on every atom, decided by slack
    maximisation).
    """

    market: Market

    def member_of_m(self, z, tol: float = MEMBER_TOL) -> bool:
        m = self.market
        z = np.asarray(z, dtype=float)
        if np.any(z < -tol) or abs(float(m.space.probs @ z) - 1.0) > 1e-10:
            return False
        moments = (m.space.probs * z) @ m.excess
        return bool(np.max(np.abs(moments)) <= tol)

    def member_of_p(self, z, tol: float = MEMBER_TOL) -> bool:
        return self.member_of_m(z, tol) and bool(np.min(np.asarray(z)) > SLACK_TOL)

    def element_of_m(self) -> "Density | None":
        return martingale_feasibility(self.market, None)

    def element_of_p(self) -> "Density | None":
        return interior_martingale_feasibility(
            self.market, DualSetSpec("box", 0.0, math.inf))


def _scaled_box_penalty(z, probs, loss: LossFunction) -> float:
    """inf_{k > 0} (1/k) E[l*(k Z)] by golden section over the feasible k."""
    a, b = loss.a_l, loss.b_l
    zmin, zmax = float(np.min(z)), float(np.max(z))
    lo = a / zmin if (a > 0 and zmin > 0) else 1e-8
    hi = b / zmax if b != math.inf else max(lo * 1e6, 1e6)
    if a > 0 and zmin <= 0:
        return math.inf
    if lo > hi:
        return math.inf

    def val(k: float) -> float:
        return float(probs @ loss.conjugate_value(k * z)) / k

    return val(golden_min(val, lo, hi, 1e-12))


# ---------------------------------------------------------------------------
# Family -> dual set
# ---------------------------------------------------------------------------

_DUAL_FAMILIES = ("es", "wc", "eloss", "lses", "adjes", "oce", "sr")


def dual_set(spec: RiskSpec) -> DualSetSpec:
    """Constraint description and penalty of the family's dual representation."""
    fam = spec.family
    if fam not in _DUAL_FAMILIES:
        raise ValueError(f"family {fam!r} has no supported dual representation")
    if fam == "es":
        return DualSetSpec("box", 0.0, 1.0 / spec.alpha)
    if fam == "wc":
        return DualSetSpec("box", 0.0, math.inf)
    if fam == "eloss":
        return DualSetSpec("box", 1.0, 1.0)
    if fam == "lses":
        return DualSetSpec("penalized_sup", b=spec.b)
    if fam == "adjes":
        g = spec.profile
        if g.beta == 0.0:
            return DualSetSpec("penalized_sup", profile=g)
        return DualSetSpec("supnorm", hi=1.0 / g.beta,
                           strict=not g.bounded_on_domain, profile=g)
    if fam == "oce":
        return DualSetSpec("penalized", loss=spec.loss)
    loss = spec.loss
    if loss.zero_on_negatives:
        return DualSetSpec("box", 0.0, math.inf)
    return DualSetSpec("scaled_box", a_l=loss.a_l, b_l=loss.b_l, loss=loss)


def closure_dual_set(spec: RiskSpec) -> DualSetSpec:
    """Effective domain of the lsc convex hull of the penalty."""
    fam = spec.family
    if fam not in _DUAL_FAMILIES:
        raise ValueError(f"family {fam!r} has no supported dual representation")
    if fam == "es":
        return DualSetSpec("box", 0.0, 1.0 / spec.alpha)
    if fam in ("wc", "lses"):
        return DualSetSpec("box", 0.0, math.inf)
    if fam == "eloss":
        return DualSetSpec("box", 1.0, 1.0)
    if fam == "adjes":
        g = spec.profile
        if g.beta == 0.0:
            return DualSetSpec("box", 0.0, math.inf)
        return DualSetSpec("supnorm", hi=1.0 / g.beta,
                           strict=not g.bounded_on_domain, profile=g)
    if fam == "oce":
        loss = spec.loss
        return DualSetSpec("box", loss.a_l, loss.b_l, loss=loss)
    loss = spec.loss
    if loss.zero_on_negatives or loss.a_l == 0.0 or loss.b_l == math.inf:
        return DualSetSpec("box", 0.0, math.inf)
    return DualSetSpec("scaled_box", a_l=loss.a_l, b_l=loss.b_l, loss=loss)


# ---------------------------------------------------------------------------
# Polyhedral form of the closed sets (used by LPs)
# ---------------------------------------------------------------------------

@dataclass
class SetPolytope:
    """{w >= 0 : A_ub w <= b_ub, A_eq w = b_eq}; the first n coords are z.

    ``strict_rows`` flags the A_ub rows that are strict in the underlying set
    (resolved by slack maximisation when it matters).
    """

    n: int
    nvars: int
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    strict_rows: list


def _atom_rows(n: int, nvars: int, diag: dict, shared: dict | None = None
               ) -> np.ndarray:
    """One row per atom i: coefficient c at column k + i for each k: c in
    ``diag``, and at column k for each k: c in ``shared``."""
    rows = np.zeros((n, nvars))
    atoms = np.arange(n)
    for k, c in diag.items():
        rows[atoms, k + atoms] = c
    for k, c in (shared or {}).items():
        rows[:, k] = c
    return rows


def _interleave(*blocks) -> np.ndarray:
    """Row i of each block in turn, atom by atom (rows or right-hand sides)."""
    return np.stack(blocks, axis=1).reshape((-1,) + blocks[0].shape[1:])


def _polytope_kind(ds: DualSetSpec) -> DualSetSpec:
    """Penalised sets as the boxes their penalties are finite on."""
    if ds.kind == "penalized":
        return DualSetSpec("box", ds.loss.a_l, ds.loss.b_l, loss=ds.loss)
    if ds.kind == "penalized_sup":
        return DualSetSpec("box", 0.0, math.inf)
    return ds


def set_polytope(ds: DualSetSpec | None, space: FiniteSpace) -> SetPolytope:
    """Closed polyhedral description of a dual set over the given space."""
    n = space.n
    p = space.probs
    rows_ub, rhs_ub, strict = [], [], []
    nvars = n
    ds = _polytope_kind(DualSetSpec("box", 0.0, math.inf) if ds is None
                        else ds)
    kind = ds.kind

    if kind in ("box", "supnorm"):
        hi = ds.hi
        lo = ds.lo if kind == "box" else 0.0
        if hi != math.inf:
            rows_ub.append(_atom_rows(n, n, {0: 1.0}))
            rhs_ub.append(np.full(n, hi))
            if ds.strict:
                strict = list(range(n))
        if lo > 0.0:
            rows_ub.append(_atom_rows(n, n, {0: -1.0}))
            rhs_ub.append(np.full(n, -lo))
        A_eq = p[None, :]
        b_eq = np.array([1.0])
    elif kind == "scaled_box":
        a = ds.a_l or 0.0
        b = ds.b_l if ds.b_l is not None else math.inf
        if a <= 0.0 and b == math.inf:
            return set_polytope(DualSetSpec("box", 0.0, math.inf), space)
        nvars = n + 1  # auxiliary scale s with z in [a s, b s]
        blocks = []
        if b != math.inf:
            blocks.append(_atom_rows(n, nvars, {0: 1.0}, {n: -b}))
        if a > 0.0:
            blocks.append(_atom_rows(n, nvars, {0: -1.0}, {n: a}))
        rows_ub.append(_interleave(*blocks))
        rhs_ub.append(np.zeros(n * len(blocks)))
        A_eq = np.zeros((1, nvars))
        A_eq[0, :n] = p
        b_eq = np.array([1.0])
    else:  # pragma: no cover
        raise ValueError(f"unsupported kind {kind!r}")

    A_ub = np.vstack(rows_ub) if rows_ub else np.zeros((0, nvars))
    b_ub = np.concatenate(rhs_ub) if rhs_ub else np.zeros(0)
    return SetPolytope(n, nvars, A_ub, b_ub, A_eq, b_eq, strict)


def _martingale_rows(m: Market, nvars: int) -> tuple[np.ndarray, np.ndarray]:
    """E[Z (R^i - r)] = 0 rows over the z part of the variable vector."""
    rows = np.zeros((m.d, nvars))
    rows[:, :m.space.n] = (m.excess * m.space.probs[:, None]).T
    return rows, np.zeros(m.d)


def _strict_slack(pt: SetPolytope) -> SetPolytope:
    """pt with a last column, the slack, added to its strict rows (pt itself
    when it has none)."""
    if not pt.strict_rows:
        return pt
    A_ub = np.hstack([pt.A_ub, np.zeros((pt.A_ub.shape[0], 1))])
    A_ub[pt.strict_rows, -1] = 1.0
    A_eq = np.hstack([pt.A_eq, np.zeros((pt.A_eq.shape[0], 1))])
    return SetPolytope(pt.n, pt.nvars + 1, A_ub, pt.b_ub, A_eq, pt.b_eq,
                       pt.strict_rows)


def martingale_feasibility(m: Market, ds: DualSetSpec | None = None
                           ) -> Density | None:
    """A density in M intersected with the (closed form of the) dual set.

    Strict sup-norm bounds are decided by maximising the bound slack; every
    other case is a plain feasibility program.
    """
    pt = _strict_slack(set_polytope(ds, m.space))
    strict = bool(pt.strict_rows)
    mg_A, mg_b = _martingale_rows(m, pt.nvars)
    c = np.zeros(pt.nvars)
    c[-1] = strict                      # the slack, when maximised
    res = solve_lp(c, A_ub=pt.A_ub, b_ub=pt.b_ub,
                   A_eq=np.vstack([pt.A_eq, mg_A]),
                   b_eq=np.concatenate([pt.b_eq, mg_b]), maximize=strict)
    if res.status != OPTIMAL or (strict and res.x[-1] <= SLACK_TOL):
        return None
    return Density(m.space, res.x[:pt.n])


def interior_slack(m: Market, ds: DualSetSpec) -> tuple[float, Density | None]:
    """Maximal joint slack for Z in M with Z >= eps and strict-interior bounds."""
    base = interior_polytope(ds, m.space)
    q = base.nvars - 1  # slack is the last variable
    mg_A, mg_b = _martingale_rows(m, base.nvars)
    A_eq = np.vstack([base.A_eq, mg_A])
    b_eq = np.concatenate([base.b_eq, mg_b])
    c = np.zeros(base.nvars)
    c[q] = 1.0
    res = solve_lp(c, A_ub=base.A_ub, b_ub=base.b_ub, A_eq=A_eq, b_eq=b_eq,
                   maximize=True)
    if res.status != OPTIMAL:
        return -math.inf, None
    eps = float(res.x[q])
    if eps <= SLACK_TOL:
        return eps, None
    return eps, Density(m.space, res.x[:base.n])


def interior_polytope(ds: DualSetSpec, space: FiniteSpace) -> SetPolytope:
    """Strict-interior form: z >= delta plus inward-shifted set bounds."""
    n = space.n
    p = space.probs
    ds = _polytope_kind(ds)
    kind = ds.kind

    if kind in ("box", "supnorm"):
        nvars = n + 1
        lo = ds.lo if kind == "box" else 0.0
        blocks = [_atom_rows(n, nvars, {0: -1.0}, {n: 1.0})]
        rhs = [np.full(n, -max(lo, 0.0))]  # z_i - delta >= max(lo, 0)
        if ds.hi != math.inf:
            blocks.append(_atom_rows(n, nvars, {0: 1.0}, {n: 1.0}))
            rhs.append(np.full(n, ds.hi))  # z_i + delta <= hi
    elif kind == "scaled_box":
        a = ds.a_l or 0.0
        b = ds.b_l if ds.b_l is not None else math.inf
        if a <= 0.0 and b == math.inf:
            return interior_polytope(DualSetSpec("box", 0.0, math.inf), space)
        nvars = n + 2                      # z, s, delta
        # z_i >= delta
        blocks = [_atom_rows(n, nvars, {0: -1.0}, {n + 1: 1.0})]
        if a > 0.0:                        # z_i >= a s + delta
            blocks.append(_atom_rows(n, nvars, {0: -1.0}, {n: a, n + 1: 1.0}))
        if b != math.inf:                  # z_i <= b s - delta
            blocks.append(_atom_rows(n, nvars, {0: 1.0}, {n: -b, n + 1: 1.0}))
        rhs = [np.zeros(n)] * len(blocks)
    else:  # pragma: no cover
        raise ValueError(f"unsupported kind {kind!r}")
    A_eq = np.zeros((1, nvars))
    A_eq[0, :n] = p
    b_eq = np.array([1.0])
    return SetPolytope(n, nvars, _interleave(*blocks), _interleave(*rhs),
                       A_eq, b_eq, [])


def interior_martingale_feasibility(m: Market, ds: DualSetSpec
                                    ) -> Density | None:
    """Witness of tilde-Q intersected with P, or None when no slack exists."""
    _, witness = interior_slack(m, ds)
    return witness


# ---------------------------------------------------------------------------
# Support values and recession functions
# ---------------------------------------------------------------------------

def support_value(ds: DualSetSpec | None, X: RandVar) -> float:
    """max E[-ZX] over the closed form of the dual set (an LP)."""
    pt = set_polytope(ds, X.space)
    c = np.zeros(pt.nvars)
    c[:pt.n] = -X.space.probs * X.values
    res = solve_lp(c, A_ub=pt.A_ub, b_ub=pt.b_ub, A_eq=pt.A_eq, b_eq=pt.b_eq,
                   maximize=True)
    if res.status != OPTIMAL:
        raise LPError(f"support-value LP ended with status {res.status}")
    return float(res.value)


def recession_value(spec: RiskSpec, X: RandVar) -> float:
    """The smallest positively homogeneous majorant evaluated at X."""
    fam = spec.family
    if fam in ("var", "es", "wc", "eloss"):
        return evaluate(spec, X)
    if fam == "lses":
        return worst_case(X)
    if fam == "adjes":
        beta = spec.profile.beta
        return es(X, beta) if beta > 0.0 else worst_case(X)
    if fam == "oce":
        return support_value(closure_dual_set(spec), X)
    if fam == "sr":
        cd = closure_dual_set(spec)
        if cd.kind == "box" and cd.hi == math.inf and cd.lo == 0.0:
            return worst_case(X)
        return support_value(cd, X)
    if fam == "ew":
        loss = spec.loss
        y = -X.values
        out = 0.0
        for pi, yi in zip(X.space.probs, y):
            if yi > 0:
                if loss.b_l == math.inf:
                    return math.inf
                out += pi * loss.b_l * yi
            elif yi < 0:
                out += pi * loss.a_l * yi
        return float(out)
    raise ValueError(f"no recession rule for family {fam!r}")  # pragma: no cover


def numeric_recession_probe(spec: RiskSpec, X: RandVar,
                            t_ladder=None) -> np.ndarray:
    """rho(tX)/t along an increasing ladder; nondecreasing by star-shapedness."""
    if t_ladder is None:
        t_ladder = [2.0 ** k for k in range(0, 21, 2)]
    t_ladder = list(t_ladder)
    if any(t < 1.0 for t in t_ladder) or any(
            t_ladder[i] >= t_ladder[i + 1] for i in range(len(t_ladder) - 1)):
        raise ValueError("ladder must be increasing and start at t >= 1")
    return np.array([evaluate(spec, X.scaled(t)) / t for t in t_ladder])


# ---------------------------------------------------------------------------
# Dual-side evaluation of the risk measures
# ---------------------------------------------------------------------------

def dual_evaluate(spec: RiskSpec, X: RandVar) -> float:
    """sup_Z {E[-ZX] - alpha(Z)} computed on the dual side.

    Linear programs cover the box/sup-norm families: adjusted ES solves one
    LP in (z, M) per constant / affine-in-1/x profile piece, and loss
    sensitive ES is the one-piece profile b (1/x - 1).  Piecewise-linear
    conjugates become exact cutting planes, and the OCE of c y^+ is the
    support value of the box [0, c], on which its penalty vanishes.  The
    exp loss gives the OCE and the shortfall risk the same dual value, at
    the Gibbs density Z = exp(-X) / E[exp(-X)].  The expected loss has the
    single density Z = 1, so its value is E[-X] with no LP.
    """
    fam = spec.family
    if fam == "eloss":
        return expected_loss(X)
    if fam in ("es", "wc"):
        return support_value(dual_set(spec), X)
    if fam == "lses":
        return _adjes_dual(X, lses_profile(spec.b))
    if fam == "adjes":
        return _adjes_dual(X, spec.profile)
    if fam in ("oce", "sr") and spec.loss.kind == "exp":
        return _gibbs_dual(X)
    if fam == "oce":
        if spec.loss.kind == "pwl":
            return _penalized_cut_lp(X, spec.loss)
        return support_value(dual_set(spec), X)    # c y^+: the box [0, c]
    if fam == "sr":
        loss = spec.loss
        if loss.zero_on_negatives:
            return support_value(DualSetSpec("box", 0.0, math.inf), X)
        return _perspective_cut_lp(X, loss)
    raise ValueError(f"family {fam!r} is not dual-capable")


def _adjes_dual(X: RandVar, profile: TargetProfile) -> float:
    """sup over densities of E[-ZX] - g(1/||Z||_inf).

    With the sup-norm bound M = 1/x, a piece g = a + b/x (b = 0 for a
    constant piece) is the penalty a + b M, affine in M, so each piece is
    one LP in (z, M): max E[-zX] - a - b M over 0 <= z_i <= M, E[z] = 1 and
    M in [1/hi, 1/lo] for the piece clipped to [beta, 1], capped at
    1/P[worst atom], past which the box value no longer grows.  The value
    is the largest piece value.  A profile with a general piece scans the
    candidate bounds (quantile breakpoints and piece edges) with a box LP at
    each, refined by golden section.
    """
    _, _, cum, _ = quantile_pieces(X)
    m_cap = 1.0 / float(cum[0])
    if profile.beta > 0.0:
        m_cap = min(m_cap, 1.0 / profile.beta)
    pieces = profile.affine_pieces()
    if pieces is None:
        return _adjes_general_scan(X, profile, cum, m_cap)
    n = X.space.n
    p = X.space.probs
    A_ub = np.hstack([np.eye(n), -np.ones((n, 1))])   # z_i <= M
    A_eq = np.concatenate([p, [0.0]])[None, :]
    best = -math.inf
    for lo, hi, a, b in pieces:
        m_lo = 1.0 / hi
        m_hi = m_cap if lo == 0.0 else min(m_cap, 1.0 / lo)
        if m_lo > m_hi:
            continue                       # the piece lies beyond the cap
        res = solve_lp(np.concatenate([-p * X.values, [-b]]),
                       A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=[1.0],
                       lower=np.concatenate([np.zeros(n), [m_lo]]),
                       upper=np.concatenate([np.full(n, np.inf), [m_hi]]),
                       maximize=True)
        if res.status != OPTIMAL:
            raise LPError(f"adjusted-ES dual LP status {res.status}")
        best = max(best, float(res.value) - a)
    return best


def _adjes_general_scan(X: RandVar, profile: TargetProfile, cum: np.ndarray,
                        m_cap: float) -> float:
    """Box LP at each candidate sup-norm bound, golden section around the
    best three; the objective is not piecewise linear in the bound here."""
    if X.space.n > 400:
        raise ValueError("dual evaluation of general profiles is limited to "
                         "small spaces")
    cand = {1.0, m_cap}
    for f in cum[:-1]:
        mm = 1.0 / float(f)
        if 1.0 <= mm <= m_cap:
            cand.add(mm)
    for pc in profile.pieces:
        for edge in (pc.lo, pc.hi):
            if edge > 0 and 1.0 <= 1.0 / edge <= m_cap:
                cand.add(1.0 / edge)

    def value_at(m_bound: float) -> float:
        g = float(profile.value(1.0 / m_bound))
        if not math.isfinite(g):
            return -math.inf
        return support_value(DualSetSpec("box", 0.0, m_bound), X) - g

    cand = sorted(cand)
    vals = [value_at(m) for m in cand]
    best = max(vals)
    for i in np.argsort(vals)[-3:]:
        lo = cand[max(int(i) - 1, 0)]
        hi = cand[min(int(i) + 1, len(cand) - 1)]
        if hi > lo:
            mid = golden_min(lambda m: -value_at(m), lo, hi, 1e-10)
            best = max(best, value_at(mid))
    return best


def _penalized_cut_lp(X: RandVar, loss: LossFunction) -> float:
    """Exact LP for OCE duals with piecewise-linear conjugates."""
    n = X.space.n
    p = X.space.probs
    cuts = loss.conjugate_cuts()
    # variables (z, t): maximize E[-Xz] - E[t], t_i >= A z_i + B per cut
    c = np.concatenate([-p * X.values, -p])
    A_ub = np.vstack([_atom_rows(n, 2 * n, {0: A, n: -1.0}) for A, _ in cuts])
    b_ub = np.concatenate([np.full(n, -B) for _, B in cuts])
    A_eq = np.concatenate([p, np.zeros(n)])[None, :]
    lower = np.concatenate([np.full(n, max(loss.a_l, 0.0)), np.zeros(n)])
    upper = np.concatenate([np.full(n, loss.b_l), np.full(n, np.inf)])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub,
                   A_eq=A_eq, b_eq=[1.0], lower=lower, upper=upper,
                   maximize=True)
    if res.status != OPTIMAL:
        raise LPError(f"penalized dual LP status {res.status}")
    return float(res.value)


def _perspective_cut_lp(X: RandVar, loss: LossFunction) -> float:
    """Exact LP for shortfall-risk duals: sup E[-Xz] - s E[l*(z/s)].

    Uses the scaled variables (z, s) where the true density is z and the
    penalty is the perspective of E[l*]; the perspective of a piecewise
    linear function is the pointwise max of the same cuts made positively
    homogeneous in (z, s).
    """
    n = X.space.n
    p = X.space.probs
    cuts = loss.conjugate_cuts()
    # variables (z, t, s)
    c = np.concatenate([-p * X.values, -p, [0.0]])
    nv = 2 * n + 1
    rows = [_atom_rows(n, nv, {0: A, n: -1.0}, {2 * n: B})
            for A, B in cuts]             # t_i >= A z_i + B s
    a, b = loss.a_l, loss.b_l
    bounds = []                           # a s <= z_i <= b s
    if b != math.inf:
        bounds.append(_atom_rows(n, nv, {0: 1.0}, {2 * n: -b}))
    if a > 0.0:
        bounds.append(_atom_rows(n, nv, {0: -1.0}, {2 * n: a}))
    if bounds:
        rows.append(_interleave(*bounds))
    A_ub = np.vstack(rows)
    A_eq = np.concatenate([p, np.zeros(n + 1)])[None, :]
    res = solve_lp(c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                   A_eq=A_eq, b_eq=[1.0], maximize=True)
    if res.status != OPTIMAL:
        raise LPError(f"perspective dual LP status {res.status}")
    return float(res.value)


def _gibbs_dual(X: RandVar) -> float:
    """E[-ZX] - E[Z log Z] at the Gibbs density Z = exp(-X) / E[exp(-X)],
    the maximiser for the exp loss in both the OCE penalty E[l*(Z)] and the
    shortfall penalty inf_k E[l*(kZ)]/k, which equal E[Z log Z] there.
    log Z = -Y - log E[exp(-Y)] comes from its formula, so atoms whose
    weight underflows to 0 need no log of 0.  Z is the same for Y = X -
    min X, whose log-mean-exp carries no rounding of a large offset."""
    p, x = X.space.probs, X.values
    y = x - x.min()
    log_z = -y - _entropic(p, y)
    z = np.exp(log_z)
    return -float(p @ (z * x)) - float(p @ (z * log_z))


# ---------------------------------------------------------------------------
# Profile transform: lsc convex hull in 1/x
# ---------------------------------------------------------------------------

def g_hat_transform(profile: TargetProfile, grid: int = 20000) -> TargetProfile:
    """Lower semicontinuous convex hull of y -> g(1/y), mapped back to x.

    Samples the transformed profile on a dense grid over [1, 1/beta), takes
    the lower convex hull of the sampled epigraph (monotone chain) and
    returns the piecewise-linear interpolation as a new profile.  Accuracy is
    grid limited; g(beta) = inf is preserved for profiles unbounded near
    beta.
    """
    beta = profile.beta
    if not 0.0 < beta < 1.0:
        raise ValueError("transform needs beta in (0, 1)")
    if grid < 100:
        raise ValueError("grid too coarse")
    y_cap = 1.0 / beta
    ys = 1.0 + (y_cap - 1.0) * (np.arange(grid) / grid)
    with np.errstate(divide="ignore", over="ignore"):
        gt = np.asarray(profile.value(1.0 / ys), dtype=float)
    mask = np.isfinite(gt)
    ys, gt = ys[mask], gt[mask]
    if ys.size < 2:
        raise ValueError("profile has too little finite support to transform")

    hull_x, hull_y = _lower_hull(ys, gt)

    def hat(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            y = 1.0 / x
        out = np.interp(y, hull_x, hull_y)
        # linear continuation beyond the last hull vertex
        if hull_x.size >= 2:
            slope = (hull_y[-1] - hull_y[-2]) / (hull_x[-1] - hull_x[-2])
            beyond = y > hull_x[-1]
            out = np.where(beyond, hull_y[-1] + slope * (y - hull_x[-1]), out)
        out = np.where(y < hull_x[0], hull_y[0], out)
        # chords over convex stretches exceed the sampled function between
        # grid nodes; capping by the original keeps hat <= g pointwise
        out = np.minimum(out, profile.value(x))
        return out if out.ndim else float(out)

    pieces = (GPiece(beta, 1.0, "general", fn=hat),)
    return TargetProfile(pieces, beta, profile.unbounded_near_beta,
                         profile.tail_coeff)


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex hull of points sorted by x (Andrew's monotone chain)."""
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs, ys):
        while len(hx) >= 2:
            cross = ((hx[-1] - hx[-2]) * (y - hy[-2])
                     - (hy[-1] - hy[-2]) * (x - hx[-2]))
            if cross <= 0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(float(x))
        hy.append(float(y))
    return np.asarray(hx), np.asarray(hy)
