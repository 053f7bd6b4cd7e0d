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
right-hand side get a phase-1 artificial.  Each equality row is scaled to
a largest entry of one, so phase 1's absolute tolerances hold for rows of
any scale.

``solve_lp_range`` gives both min c.x and max c.x over one polytope from a
single tableau: after the min leg's phase 2 the cost row is negated (rhs
entry included).  Reduced costs are linear in c, so the negated row prices
-c at whatever feasible basis the min leg stopped on, optimal or not, and
the max leg runs phase 2 from there with no second standard form and no
phase 1.

An optimal ``LPResult`` carries its standard-form ``basis`` (None when
phase 1 dropped a redundant row), and ``solve_lp(..., start=basis)``
starts from it.  The start is factored once (B^-1 [A | b] from
``np.linalg.inv``); when every reduced cost of c is at least
-``_RCOST_TOL`` there, the basis is dual feasible, and the dual simplex
(Lemke 1954) pivots until every rhs is at least -``_PHASE1_TOL``, after
which phase 2 finishes as in a cold solve.  An LP that differs from the
start's only in its rhs thus needs a few dual pivots and no phase 1.  A
mis-shaped or singular start, a dual infeasible one, a dual pivot row with
no negative entry (the LP may be infeasible), a non-optimal phase 2 or an
exhausted budget falls back to the cold solve, so infeasible and unbounded
verdicts come from the cold path only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RCOST_TOL = 1e-9   # reduced cost considered negative below -_RCOST_TOL
_PIVOT_TOL = 1e-10  # smallest admissible pivot magnitude
_SMALL_PIVOT = 1e-6  # a pivot below this is picked again (Harris' test)
_HARRIS_TOL = 1e-8   # infeasibility the re-picked pivot may leave in a row
_PHASE1_TOL = 1e-8  # residual infeasibility treated as zero
_RATIO_TIE = 1e-12  # ratios within this of the minimum tie; smaller steps
                    # count as degenerate
_DEGENERATE_RUN = 50  # degenerate pivots in a row before Bland takes over
_COND_MAX = 1e12     # a start basis with max|B| max|B^-1| above this is
                     # treated as singular


class LPError(RuntimeError):
    """Solver failure (iteration budget exhausted or numerical breakdown)."""


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0     # phase-1, dual and phase-2 pivots
    phase1_pivots: int = 0
    dual_pivots: int = 0
    basis: np.ndarray | None = None  # standard-form basis, when optimal


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _ratio_test(col: np.ndarray, rhs: np.ndarray, basis: np.ndarray,
                rows: np.ndarray) -> tuple[int, float]:
    """Leaving row among ``rows`` and its ratio: the minimum ratio, ties to
    the lowest basis index.  A tiny pivot spreads its rounding over every
    row, so then Harris' two-pass test (Harris 1973) picks again: the step
    bound theta_max is the least ratio with each row's rhs relaxed by
    _HARRIS_TOL * min(1, entry), and the largest entry leaves among the rows
    whose ratio is at most theta_max.  Every row then ends at or above
    -_HARRIS_TOL, and a row with an entry e < 1 at or above -_HARRIS_TOL * e,
    so rows of data near 1e-7 are held to their own scale."""
    ratios = rhs[rows] / col[rows]
    best = ratios.min()
    ties = rows[ratios <= best + _RATIO_TIE]
    leaving = int(ties[np.argmin(basis[ties])])
    if col[leaving] < _SMALL_PIVOT:
        relax = _HARRIS_TOL * np.minimum(1.0, col[rows])
        theta_max = ((rhs[rows] + relax) / col[rows]).min()
        k = int(np.argmax(np.where(ratios <= theta_max, col[rows], 0.0)))
        leaving, best = int(rows[k]), ratios[k]
    return leaving, float(best)


def _iterate(T: np.ndarray, basis: np.ndarray, m: int, cost: int,
             ncols: int, max_iter: int, phase1: bool) -> tuple[str, int]:
    """Pivot on tableau T until row ``cost`` prices no column of 0..ncols-1.

    Rows 0..m-1 are the constraints, column -1 the right-hand side.  Returns
    the status and the number of pivots made.  In phase 1 a column with a
    negative reduced cost but no admissible pivot row is rounding noise (the
    phase-1 objective is bounded below), so it is skipped until the next
    pivot rather than reported unbounded, and the phase ends as soon as
    no basis index is ncols or above (no artificial left).  With no columns
    nothing can enter, so the basis is optimal as it stands.
    """
    if ncols == 0:
        return OPTIMAL, 0
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
        leaving, best = _ratio_test(col, rhs, basis, rows)
        degenerate = degenerate + 1 if best <= _RATIO_TIE else 0
        skipped = []
        basis[leaving] = entering
        _pivot(T, leaving, entering)
        pivots += 1
    raise LPError("simplex iteration budget exhausted")


def _phase1(c: np.ndarray, A: np.ndarray, b: np.ndarray, slack: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, int] | LPResult:
    """Phase 1 of  min c.x  s.t.  A x = b, x >= 0.

    ``slack[i]`` is the column of row i's slack (+1 in that row only), or -1
    for an equality row.  Artificial variables are not stored as columns:
    once one leaves the basis it never re-enters, so basis index n + i just
    marks row i as still held by its artificial.  Returns the tableau, its
    feasible basis and the pivots made, or an INFEASIBLE LPResult.
    """
    m, n = A.shape
    # Rows 0..m-1: constraints; row m: phase-2 costs; row m + 1: phase-1
    # costs.  The rhs entry of a cost row is minus the objective value.
    T = np.zeros((m + 2, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    # Phase 1 judges the equality rows with absolute tolerances, so each is
    # scaled to a largest entry of one.
    eq = np.flatnonzero(slack < 0)
    size = np.abs(A[eq]).max(axis=1, initial=0.0)
    T[eq] /= np.where(size > 0.0, size, 1.0)[:, None]
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
            return LPResult(INFEASIBLE, pivots=pivots, phase1_pivots=pivots)

        # Drive leftover artificials out of the basis on their rows' largest
        # entries; drop redundant rows.
        keep = np.ones(m + 1, dtype=bool)
        for i in np.flatnonzero(held):
            size = np.abs(T[i, :n])
            if not np.any(size > _PIVOT_TOL):
                keep[i] = False
            else:
                j = int(np.argmax(size))
                basis[i] = j
                _pivot(T, i, j)
                pivots += 1
        if keep.all():
            T = T[:m + 1]
        else:
            T = T[np.flatnonzero(keep)]
            basis = basis[keep[:m]]
    return T, basis, pivots


def _phase2(T: np.ndarray, basis: np.ndarray, c: np.ndarray, phase1: int,
            max_iter: int) -> LPResult:
    """Phase 2 from the feasible ``basis`` of T, whose row basis.size holds
    the reduced costs of c.  ``phase1`` pivots were made before; T and basis
    end at the final basis."""
    m = basis.size
    status, phase2 = _iterate(T, basis, m, m, c.size, max_iter, False)
    pivots = phase1 + phase2
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=pivots, phase1_pivots=phase1)
    x = np.zeros(c.size)
    x[basis] = T[:m, -1]
    return LPResult(OPTIMAL, x, float(c @ x), pivots, phase1,
                    basis=basis.copy())


def _dual_iterate(T: np.ndarray, basis: np.ndarray, m: int, ncols: int,
                  max_iter: int) -> tuple[str | None, int]:
    """Dual simplex pivots on T, whose row m holds nonnegative reduced
    costs, until every rhs is at least -_PHASE1_TOL.  The most negative rhs
    leaves; among the columns whose entry in that row is below -_PIVOT_TOL
    the least ratio reduced cost / -entry enters, the lowest index winning
    ties.  Returns the status and the pivots made: INFEASIBLE when the
    leaving row has no such entry, None when the budget runs out."""
    rhs = T[:m, -1]
    reduced = T[m, :ncols]
    for pivots in range(max_iter):
        leaving = int(np.argmin(rhs))
        if rhs[leaving] >= -_PHASE1_TOL:
            return OPTIMAL, pivots
        row = T[leaving, :ncols]
        cols = np.flatnonzero(row < -_PIVOT_TOL)
        if cols.size == 0:
            return INFEASIBLE, pivots
        ratios = reduced[cols] / -row[cols]
        entering = int(cols[np.argmax(ratios <= ratios.min() + _RATIO_TIE)])
        basis[leaving] = entering
        _pivot(T, leaving, entering)
    return None, max_iter


def _warm_solve(c: np.ndarray, A: np.ndarray, b: np.ndarray, start,
                max_iter: int) -> LPResult | None:
    """min c.x s.t. A x = b, x >= 0 from the basis ``start`` by dual simplex
    pivots and phase 2; None when the cold path must decide (see the module
    docstring)."""
    m, n = A.shape
    start = np.asarray(start)
    if (m == 0 or start.shape != (m,) or start.min() < 0
            or start.max() >= n):
        return None
    B = A[:, start]
    try:
        inverse = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    # a rough condition number; a repeated column lands here too
    if np.abs(B).max() * np.abs(inverse).max() > _COND_MAX:
        return None
    T = np.empty((m + 1, n + 1))
    T[:m, :n] = inverse @ A
    T[:m, n] = inverse @ b
    T[m] = np.append(c, 0.0) - c[start] @ T[:m]
    if T[m, :n].min() < -_RCOST_TOL:
        return None                     # not dual feasible for c
    basis = start.copy()
    status, dual = _dual_iterate(T, basis, m, n, max_iter)
    if status != OPTIMAL:
        return None
    try:
        res = _phase2(T, basis, c, 0, max_iter)
    except LPError:
        return None
    if res.status != OPTIMAL:
        return None
    res.pivots += dual
    res.dual_pivots = dual
    return res


def _standard_form(c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize):
    """The standard form of a general-form LP and the map back.

    Returns (c_std, A_std, b_std, slack, unmap), where ``unmap(res)`` turns a
    standard-form LPResult into one in the original variables, or None when
    some lower bound exceeds its upper bound.
    """
    c = np.asarray(c, dtype=float)
    nvar = c.size
    lo = np.full(nvar, 0.0) if lower is None else np.broadcast_to(
        np.asarray(lower, dtype=float), (nvar,))
    hi = np.full(nvar, np.inf) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (nvar,))
    if np.any(lo > hi):
        return None

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

    def unmap(res: LPResult) -> LPResult:
        if res.status != OPTIMAL:
            return res
        x = offset + np.bincount(src, weights=sign * res.x[:ny],
                                 minlength=nvar)
        full = res.basis.size == A_std.shape[0]   # no row dropped
        return LPResult(OPTIMAL, x, float(c @ x), res.pivots,
                        res.phase1_pivots, res.dual_pivots,
                        res.basis if full else None)
    return c_std, A_std, b_std, slack, unmap


def _budget(A_std: np.ndarray) -> int:
    return 2000 + 200 * (A_std.shape[0] + A_std.shape[1])


def solve_lp(c,
             A_ub=None, b_ub=None,
             A_eq=None, b_eq=None,
             lower=None, upper=None,
             maximize: bool = False,
             max_iter: int | None = None,
             start: np.ndarray | None = None) -> LPResult:
    """Solve a general-form LP.  Default bounds are x >= 0.

    Bounds may contain +/-inf entries; free and upper-bounded variables are
    shifted/split to reach standard form.  ``LPResult.x`` is reported in the
    original variables.  ``start`` is the ``basis`` of an optimal result of
    an LP with the same shape, typically the same LP with another rhs; the
    solve then begins with dual simplex pivots from it (see the module
    docstring).
    """
    form = _standard_form(c, A_ub, b_ub, A_eq, b_eq, lower, upper, maximize)
    if form is None:
        return LPResult(INFEASIBLE)
    c_std, A_std, b_std, slack, unmap = form
    if max_iter is None:
        max_iter = _budget(A_std)
    if start is not None:
        warm = _warm_solve(c_std, A_std, b_std, start, max_iter)
        if warm is not None:
            return unmap(warm)
    feasible = _phase1(c_std, A_std, b_std, slack, max_iter)
    if isinstance(feasible, LPResult):
        return feasible
    T, basis, pivots = feasible
    return unmap(_phase2(T, basis, c_std, pivots, max_iter))


def solve_lp_range(c,
                   A_ub=None, b_ub=None,
                   A_eq=None, b_eq=None,
                   lower=None, upper=None,
                   max_iter: int | None = None) -> tuple[LPResult, LPResult]:
    """(min, max) of c.x over one polytope, in the general form of solve_lp.

    The max leg continues from the min leg's final tableau with its cost
    row negated.  Reduced costs are linear in c, so the negated row prices
    -c at that basis, and phase 2 needs only its primal feasibility, which
    holds whether the min leg ended optimal or unbounded (an unbounded exit
    makes no pivot).  The max leg needs neither a second standard form nor
    phase 1 (its ``phase1_pivots`` is 0).  An infeasible min leg makes both
    infeasible.
    """
    form = _standard_form(c, A_ub, b_ub, A_eq, b_eq, lower, upper, False)
    if form is None:
        return LPResult(INFEASIBLE), LPResult(INFEASIBLE)
    c_std, A_std, b_std, slack, unmap = form
    if max_iter is None:
        max_iter = _budget(A_std)
    start = _phase1(c_std, A_std, b_std, slack, max_iter)
    if isinstance(start, LPResult):
        return start, LPResult(INFEASIBLE)
    T, basis, pivots = start
    low = _phase2(T, basis, c_std, pivots, max_iter)
    T[basis.size] *= -1.0
    high = _phase2(T, basis, -c_std, 0, max_iter)
    return unmap(low), unmap(high)
