"""Dual representations: density sets, penalties, recession values and the
martingale-measure feasibility programs.

Every density set used by the arbitrage detectors is polyhedral on a finite
space:

* ``box``          lo <= z_i <= hi
* ``supnorm``      z_i <= hi, optionally strict (an open bound)
* ``scaled_box``   a <= k z_i <= b for some k > 0 (shortfall-risk family)
* ``penalized``    alpha(Z) = E[l*(Z)] over the domain of l*
* ``penalized_sup`` alpha(Z) depends on ||Z||_inf only (adjusted-ES family)

Membership, the LP polytopes and the closed sets read every set as a box,
sup-norm ball or scaled box (``_polytope_kind``); the closure
(``closure_dual_set``) is derived from ``dual_set`` that way.  Feasibility
against the martingale sets M (absolutely continuous) and P (equivalent) is
decided by linear programming on one row assembly, a density polytope plus
the rows E[Z (R^i - r)] = 0; strict constraints are resolved by slack
maximisation with threshold ``SLACK_TOL``, which is the numerical meaning
of "Z > 0 a.s." on a finite space.  Every density polytope
(``SetPolytope``) runs over w = z - l, where l is z's lower bound: lo
(closed box), lo + delta (interior box and sup-norm ball), a s or a s +
delta (scaled box).  The lower bounds are then the sign constraints w >= 0
and need no rows; each upper bound is one row per atom whose rhs, hi - lo
or 0, is nonnegative whenever the set holds a density.  So the slack basis
is feasible for every inequality row, and phase 1 has artificials only on
the 1 + d equality rows.  Rows, costs and points over z go through
``SetPolytope.lp_row`` and ``SetPolytope.density``.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .losses import GPiece, LossFunction, TargetProfile, lses_profile
from .market import FiniteSpace, Market, RandVar
from .measures import (RiskSpec, _entropic, es, evaluate, expected_loss,
                       golden_min, quantile_pieces, worst_case)
from .simplex import INFEASIBLE, OPTIMAL, LPError, solve_lp

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
        ds = _polytope_kind(self)
        if ds.kind == "scaled_box":
            zmax, zmin = float(np.max(z)), float(np.min(z))
            if ds.b_l == math.inf:
                return zmin > tol
            # exists k with a <= k z <= b  <=>  a / zmin <= b / zmax
            if zmin <= tol:
                return ds.a_l <= tol
            return ds.a_l / zmin <= ds.b_l / zmax + tol
        if ds.kind == "supnorm" and ds.strict:
            return bool(np.max(z) < ds.hi - tol)
        lo = ds.lo if ds.kind == "box" else 0.0
        return bool(np.all(z >= lo - tol) and np.all(z <= ds.hi + tol))


ALL_DENSITIES = DualSetSpec("box", 0.0, math.inf)


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
        return interior_martingale_feasibility(self.market, ALL_DENSITIES)


def _scaled_box_penalty(z, probs, loss: LossFunction) -> float:
    """inf_{k > 0} (1/k) E[l*(k Z)], exactly.

    exp: the minimiser is k = 1/E[Z], where the value is E[Z log Z] -
    E[Z] log E[Z], summed as E[Z] E[l*(Z/E[Z])], whose terms are all
    nonnegative.  pwl: with s = 1/k the objective is f(s) = E[max_j (A_j Z
    + B_j s)] over the cuts of l*, convex and piecewise linear on the
    interval a s <= Z <= b s (a = max(a_l, 0)).  Its minimum lies at the
    left end, the right end (finite when a > 0) or where two cuts cross on
    some atom, and f's slope beyond the last crossing is max_j B_j >= 0
    (the anchor cut has B = 0), so a binary search for the sign change of
    f' between the sorted candidates finds it.
    """
    z = np.asarray(z, dtype=float)
    zmin = float(np.min(z))
    if zmin < 0.0:
        return math.inf
    if loss.kind == "exp":
        m = float(probs @ z)
        return m * float(probs @ loss.conjugate_value(z / m))
    a, b = max(loss.a_l, 0.0), loss.b_l
    lo, hi = float(np.max(z)) / b, (zmin / a if a > 0.0 else math.inf)
    if lo > hi:
        return math.inf
    A, B = np.array(loss.conjugate_cuts()).T
    dA, dB = A[None, :] - A[:, None], B[:, None] - B[None, :]
    cross = np.outer(dA[dB > 0.0] / dB[dB > 0.0], z).ravel()
    ends = [lo, hi] if math.isfinite(hi) else [lo]
    cand = np.unique(np.concatenate([ends,
                                     cross[(cross > lo) & (cross < hi)]]))

    def lines(s: float) -> np.ndarray:    # A_j z_i + B_j s, cut by atom
        return A[:, None] * z + B[:, None] * s

    # the first candidate where f stops falling; f' = E[B_j at the top cut]
    # at interval midpoints has an exact sign, where rounding blurs f at
    # near-equal candidates
    mids = (cand[:-1] + cand[1:]) / 2.0
    i = bisect.bisect_left(range(mids.size), True, key=lambda k: bool(
        probs @ B[lines(mids[k]).argmax(axis=0)] >= 0.0))
    return float(probs @ lines(cand[i]).max(axis=0))


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
        return ALL_DENSITIES
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
        return ALL_DENSITIES
    return DualSetSpec("scaled_box", a_l=loss.a_l, b_l=loss.b_l, loss=loss)


def closure_dual_set(spec: RiskSpec) -> DualSetSpec:
    """Effective domain of the lsc convex hull of the penalty.

    It is ``dual_set(spec)`` read as a polytope kind (a penalised set is
    the box its penalty is finite on), except that a scaled box with a_l =
    0 or b_l = inf closes to [0, inf): its scale k can run to 0 or to inf.
    """
    cd = _polytope_kind(dual_set(spec))
    if cd.kind == "scaled_box" and (cd.a_l == 0.0 or cd.b_l == math.inf):
        return ALL_DENSITIES
    return cd


# ---------------------------------------------------------------------------
# Polyhedral form of the closed sets (used by LPs)
# ---------------------------------------------------------------------------

@dataclass
class SetPolytope:
    """A density set as the LP {x >= 0 : A_ub x <= b_ub, A_eq x = b_eq}.

    The LP runs over x = (w, extra columns), where the extra columns are a
    scale s (scaled box) and a slack delta (interior forms) and w = z - l
    lifts z by its lower bound l = lift @ x + base, an affine form in the
    extra columns that is the same on every atom.  So z >= l is w >= 0 and
    needs no row.  ``lp_row`` maps rows and costs over z to rows over x
    plus a constant, ``density`` maps an LP point back to z.
    ``strict_rows`` flags the A_ub rows that are strict in the underlying
    set (resolved by slack maximisation when it matters).
    """

    n: int
    nvars: int
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    strict_rows: list
    lift: np.ndarray             # l's coefficients, 0 on the w columns
    base: float                  # l's constant

    def lp_row(self, r) -> tuple[np.ndarray, np.ndarray | float]:
        """r.z = row.x + constant, for r one row over the atoms or a
        matrix of them (then one row and one constant per row of r)."""
        r = np.asarray(r, dtype=float)
        total = r.sum(axis=-1)
        row = np.multiply.outer(total, self.lift)
        row[..., :self.n] += r
        return row, total * self.base

    def density(self, x: np.ndarray) -> np.ndarray:
        """z = w + l at an LP point x."""
        return x[:self.n] + (self.lift @ x + self.base)


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


def _polytope_kind(ds: DualSetSpec) -> DualSetSpec:
    """The set as a box, sup-norm ball or scaled box: a penalised set as the
    box its penalty is finite on, a scaled box with its unset bounds filled
    in (a_l = 0, b_l = inf), and as [0, inf) when a_l <= 0 and b_l = inf."""
    if ds.kind == "penalized":
        return DualSetSpec("box", ds.loss.a_l, ds.loss.b_l, loss=ds.loss)
    if ds.kind == "penalized_sup":
        return ALL_DENSITIES
    if ds.kind == "scaled_box":
        if ds.a_l is None or ds.b_l is None:
            ds = replace(ds, a_l=ds.a_l or 0.0,
                         b_l=math.inf if ds.b_l is None else ds.b_l)
        if ds.a_l <= 0.0 and ds.b_l == math.inf:
            return ALL_DENSITIES
    return ds


def _lifted(p: np.ndarray, nvars: int, lower: tuple, upper: tuple,
            strict: bool = False) -> SetPolytope:
    """The densities with l <= z_i <= u on every atom, over w = z - l.

    ``lower`` and ``upper`` are affine forms (constant, {column: coef}) in
    the extra columns; u is unbounded when any of its terms is infinite.
    A bounded u is one row per atom, w_i + (l - u) @ x <= u0 - l0, and
    E[z] = 1 goes through ``lp_row``.
    """
    n = p.size
    lift = np.zeros(nvars)
    for k, c in lower[1].items():
        lift[k] = c
    bounded = all(map(math.isfinite, (upper[0], *upper[1].values())))
    A_ub, b_ub = np.zeros((0, nvars)), np.zeros(0)
    if bounded:
        A_ub = _atom_rows(n, nvars, {0: 1.0}, {
            k: lift[k] - upper[1].get(k, 0.0) for k in range(n, nvars)})
        b_ub = np.full(n, upper[0] - lower[0])
    pt = SetPolytope(n, nvars, A_ub, b_ub, None, None,
                     list(range(n)) if strict and bounded else [],
                     lift, lower[0])
    row, const = pt.lp_row(p)
    pt.A_eq, pt.b_eq = row[None, :], np.array([1.0 - const])
    return pt


def _box_lower(ds: DualSetSpec) -> float:
    """z's lower bound in a box or sup-norm ball (z >= 0 in any case)."""
    return max(ds.lo, 0.0) if ds.kind == "box" else 0.0


def set_polytope(ds: DualSetSpec | None, space: FiniteSpace) -> SetPolytope:
    """Closed polyhedral description of a dual set over the given space: a
    box or sup-norm ball over w = z - lo, a scaled box a s <= z_i <= b s
    (a = max(a_l, 0), the scale s the last column) over w = z - a s."""
    n, p = space.n, space.probs
    ds = _polytope_kind(ALL_DENSITIES if ds is None else ds)
    if ds.kind == "scaled_box":
        return _lifted(p, n + 1, (0.0, {n: max(ds.a_l, 0.0)}),
                       (0.0, {n: ds.b_l}))
    return _lifted(p, n, (_box_lower(ds), {}), (ds.hi, {}), ds.strict)


def _martingale_lp(m: Market, pt: SetPolytope) -> dict:
    """``solve_lp`` keyword arguments for pt intersected with M: its rows
    plus E[Z (R^i - r)] = 0, mapped to the LP variables by ``lp_row``."""
    mg, const = pt.lp_row((m.excess * m.space.probs[:, None]).T)
    return dict(A_ub=pt.A_ub, b_ub=pt.b_ub, A_eq=np.vstack([pt.A_eq, mg]),
                b_eq=np.concatenate([pt.b_eq, -const]))


def _strict_slack(pt: SetPolytope) -> SetPolytope:
    """pt with a last column, the slack, added to its strict rows (pt itself
    when it has none)."""
    if not pt.strict_rows:
        return pt
    A_ub = np.hstack([pt.A_ub, np.zeros((pt.A_ub.shape[0], 1))])
    A_ub[pt.strict_rows, -1] = 1.0
    A_eq = np.hstack([pt.A_eq, np.zeros((pt.A_eq.shape[0], 1))])
    return SetPolytope(pt.n, pt.nvars + 1, A_ub, pt.b_ub, A_eq, pt.b_eq,
                       pt.strict_rows, np.append(pt.lift, 0.0), pt.base)


def martingale_feasibility(m: Market, ds: DualSetSpec | None = None
                           ) -> Density | None:
    """A density in M intersected with the (closed form of the) dual set.

    Strict sup-norm bounds are decided by maximising the bound slack; every
    other case is a plain feasibility program.
    """
    pt = _strict_slack(set_polytope(ds, m.space))
    strict = bool(pt.strict_rows)
    c = np.zeros(pt.nvars)
    c[-1] = strict                      # the slack, when maximised
    res = solve_lp(c, **_martingale_lp(m, pt), maximize=strict)
    if res.status != OPTIMAL or (strict and res.x[-1] <= SLACK_TOL):
        return None
    return Density(m.space, pt.density(res.x))


def interior_slack(m: Market, ds: DualSetSpec) -> tuple[float, Density | None]:
    """Maximal joint slack for Z in M with Z >= eps and strict-interior bounds."""
    pt = interior_polytope(ds, m.space)
    c = np.zeros(pt.nvars)
    c[-1] = 1.0                         # the slack is the last variable
    res = solve_lp(c, **_martingale_lp(m, pt), maximize=True)
    if res.status != OPTIMAL:
        return -math.inf, None
    eps = float(res.x[-1])
    return eps, (Density(m.space, pt.density(res.x)) if eps > SLACK_TOL
                 else None)


def interior_polytope(ds: DualSetSpec, space: FiniteSpace) -> SetPolytope:
    """Strict-interior form: the set's bounds shifted inward by a slack
    delta >= 0 (the last column), z_i >= l + delta and z_i <= u - delta,
    over w = z - l - delta; the lower bound l is max(lo, 0) for a box or
    sup-norm ball and a s for a scaled box, which implies z_i >= delta."""
    n, p = space.n, space.probs
    ds = _polytope_kind(ds)
    if ds.kind == "scaled_box":           # columns s, delta
        return _lifted(p, n + 2, (0.0, {n: max(ds.a_l, 0.0), n + 1: 1.0}),
                       (0.0, {n: ds.b_l, n + 1: -1.0}))
    return _lifted(p, n + 1, (_box_lower(ds), {n: 1.0}), (ds.hi, {n: -1.0}))


def interior_martingale_feasibility(m: Market, ds: DualSetSpec
                                    ) -> Density | None:
    """Witness of tilde-Q intersected with P, or None when no slack exists."""
    _, witness = interior_slack(m, ds)
    return witness


# ---------------------------------------------------------------------------
# Support values and recession functions
# ---------------------------------------------------------------------------

def _lp_max(err: str, c, **lp) -> float:
    """max c.x over the LP given as in ``solve_lp``; an LPError reading
    ``err`` and the status unless it ends optimal."""
    res = solve_lp(c, maximize=True, **lp)
    if res.status != OPTIMAL:
        raise LPError(f"{err} {res.status}")
    return float(res.value)


def support_value(ds: DualSetSpec | None, X: RandVar) -> float:
    """max E[-ZX] over the closed form of the dual set (an LP).

    A box [lo, hi] (a sup-norm ball is [0, hi]) is solved over Y = X - max X
    with E[z] <= 1 in place of E[z] = 1 and the box as variable bounds;
    max X is subtracted after.  Every rhs is then nonnegative, so the slack
    basis is feasible and phase 1 makes no pivot.  The relaxation is exact:
    E[-zY] does not decrease in z, and a box that holds a density has
    lo <= 1 <= hi, which leaves room to top E[z] up to 1.  A box that holds
    none is infeasible.  A scaled box is solved over ``set_polytope``, in
    w = z - a s, with its cost and value mapped by ``lp_row``.
    """
    ds = _polytope_kind(ALL_DENSITIES if ds is None else ds)
    err = "support-value LP ended with status"
    p = X.space.probs
    if ds.kind == "scaled_box":
        pt = set_polytope(ds, X.space)
        c, const = pt.lp_row(-p * X.values)
        return _lp_max(err, c, A_ub=pt.A_ub, b_ub=pt.b_ub, A_eq=pt.A_eq,
                       b_eq=pt.b_eq) + const
    lo = ds.lo if ds.kind == "box" else 0.0
    if not lo <= 1.0 <= ds.hi:
        raise LPError(f"{err} {INFEASIBLE}")
    top = float(X.values.max())
    return _lp_max(err, -p * (X.values - top), A_ub=p[None, :], b_ub=[1.0],
                   lower=np.full(p.size, lo),
                   upper=np.full(p.size, ds.hi)) - top


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
    if fam in ("oce", "sr"):     # an oce box carries its loss: never [0, inf)
        cd = closure_dual_set(spec)
        return worst_case(X) if cd == ALL_DENSITIES else support_value(cd, X)
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
    conjugates become exact cutting planes, one per kink of l off 0: the
    anchor cut (0, 0) is dropped, since l(0) = 0 gives l* >= 0, which the
    epigraph bound t >= 0 already says, so a loss kinked at 0 only needs no
    epigraph columns.  The shortfall dual runs in w = z - a s (a =
    max(a_l, 0)), which folds the two bounds a s <= z_i <= b s into one
    row per atom.  The OCE of c y^+ is the support value of the box
    [0, c], on which its penalty vanishes.  The box LPs (adjusted ES and
    LSES per piece, es, wc and c y^+) run over X - max X with E[z] <= 1,
    exact as E[-z(X - max X)] does not decrease in z, so they start at a
    feasible slack basis and make no phase-1 pivot.  The exp loss gives
    the OCE and the shortfall risk the same dual value, at the Gibbs
    density Z = exp(-X) / E[exp(-X)].  The expected loss has the single
    density Z = 1, so its value is E[-X] with no LP.
    """
    fam = spec.family
    if fam == "eloss":
        return expected_loss(X)
    if fam == "lses":
        return _adjes_dual(X, lses_profile(spec.b))
    if fam == "adjes":
        return _adjes_dual(X, spec.profile)
    if fam in ("oce", "sr") and spec.loss.kind == "exp":
        return _gibbs_dual(X)
    if fam == "oce" and spec.loss.kind == "pwl":
        return _penalized_cut_lp(X, spec.loss)
    if fam == "sr" and not spec.loss.zero_on_negatives:
        return _perspective_cut_lp(X, spec.loss)
    if fam in ("es", "wc", "oce", "sr"):    # boxes: c y^+ gives [0, c]
        return support_value(dual_set(spec), X)
    raise ValueError(f"family {fam!r} is not dual-capable")


def _adjes_dual(X: RandVar, profile: TargetProfile) -> float:
    """sup over densities of E[-ZX] - g(1/||Z||_inf).

    With the sup-norm bound M = 1/x, a piece g = a + b/x (b = 0 for a
    constant piece) is the penalty a + b M, affine in M, so each piece is
    one LP in (z, M): max E[-zX] - a - b M over 0 <= z_i <= M, E[z] = 1 and
    M in [1/hi, 1/lo] for the piece clipped to [beta, 1], capped at
    1/P[worst atom], past which the box value no longer grows.  The value
    is the largest piece value.  As in ``support_value`` the LP runs over
    Y = X - max X with E[z] <= 1 and M's range as variable bounds, and
    max X is subtracted after: the rows z_i - M <= 0 and E[z] <= 1 then
    start feasible at the slack basis, so phase 1 makes no pivot.  It is
    exact since E[-zY] does not decrease in z and M >= 1/hi >= 1 leaves
    room to top E[z] up to 1.  A profile with a general piece scans the
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
    top = float(X.values.max())
    A_ub = np.vstack([np.hstack([np.eye(n), -np.ones((n, 1))]),  # z_i <= M
                      np.append(p, 0.0)])                         # E[z] <= 1
    b_ub = np.append(np.zeros(n), 1.0)
    c_z = -p * (X.values - top)
    best = -math.inf
    for lo, hi, a, b in pieces:
        m_lo = 1.0 / hi
        m_hi = m_cap if lo == 0.0 else min(m_cap, 1.0 / lo)
        if m_lo > m_hi:
            continue                       # the piece lies beyond the cap
        best = max(best, _lp_max(
            "adjusted-ES dual LP status", np.append(c_z, -b), A_ub=A_ub,
            b_ub=b_ub, lower=np.append(np.zeros(n), m_lo),
            upper=np.append(np.full(n, np.inf), m_hi)) - top - a)
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


def _kink_cuts(loss: LossFunction) -> list[tuple[float, float]]:
    """The cuts of l* but the anchor (0, 0): one per kink of l off 0, so
    none for a loss kinked at 0 only (l* = 0 on [a_l, b_l])."""
    return [cut for cut in loss.conjugate_cuts() if cut != (0.0, 0.0)]


def _penalized_cut_lp(X: RandVar, loss: LossFunction) -> float:
    """Exact LP for OCE duals with piecewise-linear conjugates:
    max E[-Xz] - E[t] over a_l <= z_i <= b_l, E[z] = 1 and t_i >= A z_i + B
    for each cut of l* but the anchor (0, 0), which t >= 0 implies (l(0) =
    0 gives l* >= 0).  With no cut left the penalty vanishes on the box and
    the LP has no t columns: n variables, n bound rows."""
    n = X.space.n
    p = X.space.probs
    cuts = _kink_cuts(loss)
    nt = n if cuts else 0                 # the epigraph columns t
    nv = n + nt
    c = np.concatenate([-p * X.values, -p[:nt]])
    A_ub = np.vstack([np.zeros((0, nv))]
                     + [_atom_rows(n, nv, {0: A, n: -1.0}) for A, _ in cuts])
    b_ub = np.concatenate([np.zeros(0)] + [np.full(n, -B) for _, B in cuts])
    A_eq = np.concatenate([p, np.zeros(nt)])[None, :]
    lower = np.concatenate([np.full(n, max(loss.a_l, 0.0)), np.zeros(nt)])
    upper = np.concatenate([np.full(n, loss.b_l), np.full(nt, np.inf)])
    return _lp_max("penalized dual LP status", c, A_ub=A_ub, b_ub=b_ub,
                   A_eq=A_eq, b_eq=[1.0], lower=lower, upper=upper)


def _perspective_cut_lp(X: RandVar, loss: LossFunction) -> float:
    """Exact LP for shortfall-risk duals: sup E[-Xz] - s E[l*(z/s)].

    The penalty is the perspective of E[l*] in (z, s): the pointwise max of
    the cuts of l* made positively homogeneous, t_i >= A z_i + B s, over
    a s <= z_i <= b s with a = max(a_l, 0).  The anchor cut (0, 0) is
    dropped, as t >= 0 implies it (l(0) = 0 gives l* >= 0).  The LP runs in
    w = z - a s >= 0: the two bound rows per atom become w_i <= (b - a) s,
    a cut row A w_i - t_i + (A a + B) s <= 0, the objective
    E[-Xw] - a E[X] s - E[t] and E[z] = 1 the row E[w] + a s = 1.  Every
    inequality row has rhs 0, so the slack basis is feasible for them, and
    with a > 0 s enters on the density row: phase 1 ends in one pivot.
    """
    n = X.space.n
    p = X.space.probs
    cuts = _kink_cuts(loss)
    a, b = max(loss.a_l, 0.0), loss.b_l
    nt = n if cuts else 0
    nv = n + nt + 1                       # variables (w, t, s)
    px = p * X.values
    c = np.concatenate([-px, -p[:nt], [-a * px.sum()]])
    A_ub = np.vstack([_atom_rows(n, nv, {0: A, n: -1.0}, {nv - 1: A * a + B})
                      for A, B in cuts]
                     + [_atom_rows(n, nv, {0: 1.0}, {nv - 1: a - b})])
    A_eq = np.concatenate([p, np.zeros(nt), [a]])[None, :]
    return _lp_max("perspective dual LP status", c, A_ub=A_ub,
                   b_ub=np.zeros(A_ub.shape[0]), A_eq=A_eq, b_eq=[1.0])


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
