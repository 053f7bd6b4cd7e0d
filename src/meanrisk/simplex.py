"""Dense two-phase primal simplex kernel.

Every linear program in this package is solved here rather than by an
external solver.  The tableau carries its reduced costs as extra rows (the
phase-2 costs, and during phase 1 the phase-1 costs), so each pivot updates
them along with the constraint rows.  Pricing is Dantzig's rule: the most
negative reduced cost enters, the lowest column index winning ties.  After
a run of ``_DEGENERATE_RUN`` degenerate pivots the kernel falls back to
Bland's rule (lowest-index column with a negative reduced cost) until the
next nondegenerate pivot, which rules out cycling.  The ratio test breaks
ties by the lowest basis index, so pivot sequences are bit-reproducible,
which the dual-theorem cross checks in the test suite rely on.  Problem
sizes are small (tens of variables, occasionally a few hundred), so a
dense float64 tableau is adequate.

``solve_lp`` accepts the general form

    min / max   c.x
    subject to  A_ub x <= b_ub,  A_eq x = b_eq,  lower <= x <= upper

and reduces it to standard form internally (nonnegative variables, equality
rows).  An inequality row with a nonnegative right-hand side starts with
its slack in the basis; only equality rows and rows with a negative
right-hand side get a phase-1 artificial.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RCOST_TOL = 1e-9   # reduced cost considered negative below -_RCOST_TOL
_PIVOT_TOL = 1e-10  # smallest admissible pivot magnitude
_PHASE1_TOL = 1e-8  # residual infeasibility treated as zero
_RATIO_TIE = 1e-12  # ratios within this of the minimum tie; smaller steps
                    # count as degenerate
_DEGENERATE_RUN = 50  # degenerate pivots in a row before Bland takes over


class LPError(RuntimeError):
    """Solver failure (iteration budget exhausted or numerical breakdown)."""


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0     # phase-1 plus phase-2 pivots


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _iterate(T: np.ndarray, basis: np.ndarray, m: int, cost: int,
             ncols: int, max_iter: int, phase1: bool) -> tuple[str, int]:
    """Pivot on tableau T until row ``cost`` prices no column of 0..ncols-1.

    Rows 0..m-1 are the constraints, column -1 the right-hand side.  Returns
    the status and the number of pivots made.  In phase 1 a column with a
    negative reduced cost but no admissible pivot row is rounding noise (the
    phase-1 objective is bounded below), so it is skipped until the next
    pivot rather than reported unbounded, and the phase ends as soon as
    no basis index is ncols or above (no artificial left).
    """
    reduced = T[cost, :ncols]
    rhs = T[:m, -1]
    skipped = []
    degenerate = pivots = 0
    for _ in range(max_iter):
        if phase1 and basis.max() < ncols:
            return OPTIMAL, pivots  # every artificial has left the basis
        priced = reduced
        if skipped:
            priced = reduced.copy()
            priced[skipped] = 0.0
        if degenerate < _DEGENERATE_RUN:
            entering = int(np.argmin(priced))
            if priced[entering] >= -_RCOST_TOL:
                return OPTIMAL, pivots
        else:
            candidates = np.flatnonzero(priced < -_RCOST_TOL)
            if candidates.size == 0:
                return OPTIMAL, pivots
            entering = int(candidates[0])
        col = T[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            if not phase1:
                return UNBOUNDED, pivots
            skipped.append(entering)
            continue
        ratios = rhs[rows] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _RATIO_TIE]
        leaving = ties[np.argmin(basis[ties])]
        degenerate = degenerate + 1 if best <= _RATIO_TIE else 0
        skipped = []
        basis[leaving] = entering
        _pivot(T, leaving, entering)
        pivots += 1
    raise LPError("simplex iteration budget exhausted")


def _solve_standard(c: np.ndarray, A: np.ndarray, b: np.ndarray,
                    slack: np.ndarray, max_iter: int) -> LPResult:
    """min c.x  s.t.  A x = b, x >= 0.

    ``slack[i]`` is the column of row i's slack (+1 in that row only), or -1
    for an equality row.  Artificial variables are not stored as columns:
    once one leaves the basis it never re-enters, so basis index n + i just
    marks row i as still held by its artificial.
    """
    m, n = A.shape
    # Rows 0..m-1: constraints; row m: phase-2 costs; row m + 1: phase-1
    # costs.  The rhs entry of a cost row is minus the objective value.
    T = np.zeros((m + 2, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[m, :n] = c
    neg = b < 0
    T[:m][neg] *= -1.0
    basis = np.where((slack >= 0) & ~neg, slack, n + np.arange(m))
    artificial = basis >= n
    pivots = 0

    if artificial.any():
        T[m + 1] = -T[:m][artificial].sum(axis=0)
        _, pivots = _iterate(T, basis, m, m + 1, n, max_iter, True)
        held = basis >= n
        if T[:m, -1][held].sum() > _PHASE1_TOL:
            return LPResult(INFEASIBLE, pivots=pivots)

        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = np.ones(m + 1, dtype=bool)
        for i in np.flatnonzero(held):
            nz = np.flatnonzero(np.abs(T[i, :n]) > _PIVOT_TOL)
            if nz.size == 0:
                keep[i] = False
            else:
                basis[i] = nz[0]
                _pivot(T, i, nz[0])
                pivots += 1
        if keep.all():
            T = T[:m + 1]
        else:
            T = T[np.flatnonzero(keep)]
            basis = basis[keep[:m]]
            m = basis.size

    status, phase2 = _iterate(T, basis, m, m, n, max_iter, False)
    pivots += phase2
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=pivots)
    x = np.zeros(n)
    x[basis] = T[:m, -1]
    return LPResult(OPTIMAL, x, float(c @ x), pivots)


def solve_lp(c,
             A_ub=None, b_ub=None,
             A_eq=None, b_eq=None,
             lower=None, upper=None,
             maximize: bool = False,
             max_iter: int | None = None) -> LPResult:
    """Solve a general-form LP.  Default bounds are x >= 0.

    Bounds may contain +/-inf entries; free and upper-bounded variables are
    shifted/split to reach standard form.  ``LPResult.x`` is reported in the
    original variables.
    """
    c = np.asarray(c, dtype=float)
    nvar = c.size
    lo = np.full(nvar, 0.0) if lower is None else np.broadcast_to(
        np.asarray(lower, dtype=float), (nvar,))
    hi = np.full(nvar, np.inf) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (nvar,))
    if np.any(lo > hi):
        return LPResult(INFEASIBLE)

    A_ub = np.zeros((0, nvar)) if A_ub is None else np.atleast_2d(
        np.asarray(A_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(
        np.asarray(b_ub, dtype=float))
    A_eq = np.zeros((0, nvar)) if A_eq is None else np.atleast_2d(
        np.asarray(A_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(
        np.asarray(b_eq, dtype=float))

    # x = offset + S y with y >= 0: column k of S is sign[k] * e_src[k].  A
    # free variable gets two columns (+ then -), a variable bounded above
    # only is mirrored, and a two-sided bound adds the row y_k <= hi - lo.
    lo_f, hi_f = np.isfinite(lo), np.isfinite(hi)
    free = ~lo_f & ~hi_f
    src = np.repeat(np.arange(nvar), np.where(free, 2, 1))
    first = np.cumsum(np.where(free, 2, 1)) - np.where(free, 2, 1)
    sign = np.ones(src.size)
    sign[first[~lo_f & hi_f]] = -1.0
    sign[first[free] + 1] = -1.0
    offset = np.where(lo_f, lo, np.where(hi_f, hi, 0.0))
    boxed = np.flatnonzero(lo_f & hi_f)

    ny = src.size
    n_ub, n_eq, n_box = A_ub.shape[0], A_eq.shape[0], boxed.size
    mu = n_ub + n_box
    # Slacks turn inequality rows into equalities.
    A_std = np.zeros((mu + n_eq, ny + mu))
    A_std[:n_ub, :ny] = A_ub[:, src] * sign
    A_std[n_ub + np.arange(n_box), first[boxed]] = 1.0
    A_std[np.arange(mu), ny + np.arange(mu)] = 1.0
    A_std[mu:, :ny] = A_eq[:, src] * sign
    b_std = np.concatenate([b_ub - A_ub @ offset, hi[boxed] - lo[boxed],
                            b_eq - A_eq @ offset])
    c_std = np.zeros(ny + mu)
    c_std[:ny] = -c[src] * sign if maximize else c[src] * sign
    slack = np.concatenate([ny + np.arange(mu), np.full(n_eq, -1)])

    if max_iter is None:
        max_iter = 2000 + 200 * (A_std.shape[0] + A_std.shape[1])
    res = _solve_standard(c_std, A_std, b_std, slack, max_iter)
    if res.status != OPTIMAL:
        return LPResult(res.status, pivots=res.pivots)

    x = offset + np.bincount(src, weights=sign * res.x[:ny], minlength=nvar)
    value = float(c @ x)
    return LPResult(OPTIMAL, x, value, res.pivots)
