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
dense float64 tableau is adequate.  A pivot divides the pivot row and
makes one rank-1 update of the whole tableau, which is (m + 1) x (n + 1)
after phase 1; pricing and the ratio test read one row and one column.  At
these sizes a pivot's time is mostly the fixed cost of its twenty-odd
numpy operations rather than arithmetic, so the kernel calls ndarray
methods rather than the np.* wrappers around them and makes few
temporaries.

Every LP goes through one driver, ``_solve``, which minimises or maximises
c.x for each objective leg and each rhs column of one polytope

    A_ub x <= b_ub,  A_eq x = b_eq,  lower <= x <= upper.

It builds the standard form (nonnegative variables, equality rows) and the
iteration budget once per call.  The standard form is built as phase 1's
tableau itself: [A_std | b_std], one column per rhs, above two zero rows for
the cost rows.  Phase 1 pivots on it in place; only a path, whose later
columns may restart cold, keeps it pristine and copies it per cold start.
When every variable is x >= 0 by value (lower all 0 and upper all +inf,
or both None), the column map is the identity: A_std is [A_ub I; A_eq 0],
x is the leading entries of the standard-form point (plus 0.0, so a basic
-0.0 reads +0.0, as the general map gives it), and no column is gathered,
split or shifted.  An inequality row with a nonnegative rhs starts with its
slack in the basis; only equality rows and rows with a negative
rhs get a phase-1 artificial, so with none phase 1 makes no pivot and adds
no cost row, and each equality row is scaled to a largest entry of one, so
phase 1's absolute tolerances hold for rows of any scale.  A path's tableau
[A | b_{k-1} ... b_1 | b_0] carries every rhs column, so each pivot keeps
every B^-1 b_j current; only the last column, the rhs, steers a pivot, so
column 0 is bit-identical to a lone solve of it.  Then that column is
dropped and its optimal basis, dual feasible as c never changes, starts
the next: dual simplex pivots (Lemke 1954), then phase 2.  Where that
fails, and after a column that was not optimal, the column restarts cold,
so infeasible and unbounded verdicts come from a cold solve only.  Within a
column each leg is priced at the basis the last one ended at (primal
feasible, as an unbounded exit makes no pivot) and runs phase 2.  A leg may
carry a tie-break: at an optimal basis c.x = c* + sum_j d_j x_j over the
nonbasic columns (Bertsimas & Tsitsiklis 1997, section 3), so the optimal
face is the feasible set with x_j = 0 wherever d_j > ``_RCOST_TOL``, and
phase 2 of the tie-break on a copy of the tableau that never lets those
columns enter minimises it there; the copy leaves the cost row dual
feasible for a next column.  ``solve_lp`` (one leg, one rhs),
``solve_lp_sequence`` (several legs) and ``solve_lp_path`` (several rhs
columns) are one-call wrappers of the driver.
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
    prow = T[row]
    prow /= prow[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * prow


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
    entries = col[rows]
    ratios = rhs[rows] / entries
    best = ratios.min()
    ties = rows[ratios <= best + _RATIO_TIE]
    leaving = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
    if col[leaving] < _SMALL_PIVOT:
        relax = _HARRIS_TOL * np.minimum(1.0, entries)
        theta_max = ((rhs[rows] + relax) / entries).min()
        k = int(np.where(ratios <= theta_max, entries, 0.0).argmax())
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
    no row is held by an artificial (basis index ncols or above; the loop
    counts them).  With no columns nothing can enter, so the basis is
    optimal as it stands.
    """
    if ncols == 0:
        return OPTIMAL, 0
    reduced = T[cost, :ncols]
    rhs = T[:m, -1]
    skipped = []
    degenerate = pivots = 0
    # rows held by an artificial; outside phase 1, -1 turns the test off
    held = int((basis >= ncols).sum()) if phase1 else -1
    for _ in range(max_iter):
        if held == 0:
            return OPTIMAL, pivots  # every artificial has left the basis
        priced = reduced
        if skipped:
            priced = reduced.copy()
            priced[skipped] = 0.0
        if degenerate < _DEGENERATE_RUN:
            entering = int(priced.argmin())
            if priced[entering] >= -_RCOST_TOL:
                return OPTIMAL, pivots
        else:
            candidates = (priced < -_RCOST_TOL).nonzero()[0]
            if candidates.size == 0:
                return OPTIMAL, pivots
            entering = int(candidates[0])
        col = T[:m, entering]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            if not phase1:
                return UNBOUNDED, pivots
            skipped.append(entering)
            continue
        leaving, best = _ratio_test(col, rhs, basis, rows)
        degenerate = degenerate + 1 if best <= _RATIO_TIE else 0
        skipped = []
        if basis[leaving] >= ncols:
            held -= 1
        basis[leaving] = entering
        _pivot(T, leaving, entering)
        pivots += 1
    raise LPError("simplex iteration budget exhausted")


def _phase1(c: np.ndarray, T: np.ndarray, mu: int,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, int] | LPResult:
    """Phase 1 of  min c.x  s.t.  A x = b, x >= 0, in place on T.

    Rows 0..m-1 of T are [A | b], and its last two rows are zeros, kept for
    the cost rows; n = c.size.  b may have several columns: the last is
    solved, the others ride along.  The first ``mu`` rows are inequality
    rows, row i with its slack (+1 in that row only) in column n - mu + i;
    the rest are equality rows.  Artificial variables are not stored as
    columns: once one leaves the basis it never re-enters, so basis index
    n + i just marks row i as still held by its artificial.  Returns the
    tableau (a view of T), its feasible basis and the pivots made, or an
    INFEASIBLE LPResult.
    """
    m, n = T.shape[0] - 2, c.size
    basis = np.arange(n - mu, n - mu + m)   # every row on its slack, ...
    if mu < m:
        basis[mu:] += mu                    # ... or on its artificial
        # Phase 1 judges the equality rows with absolute tolerances, so each
        # is scaled to a largest entry of one.
        size = np.abs(T[mu:m, :n - mu]).max(axis=1, initial=0.0)
        T[mu:m] /= np.where(size > 0.0, size, 1.0)[:, None]
    neg = (T[:m, -1] < 0).nonzero()[0]
    if neg.size:
        T[neg] *= -1.0
        basis[neg] = n + neg
    # Rows 0..m-1: constraints; row m: phase-2 costs; row m + 1, only when
    # some row holds an artificial: phase-1 costs.  The rhs entry of a cost
    # row is minus the objective value.
    T[m, :n] = c
    if mu == m and not neg.size:
        return T[:m + 1], basis, 0

    T[m + 1] = -T[:m][basis >= n].sum(axis=0)
    _, pivots = _iterate(T, basis, m, m + 1, n, max_iter, True)
    held = (basis >= n).nonzero()[0]
    if T[held, -1].sum() > _PHASE1_TOL:
        return LPResult(INFEASIBLE, pivots=pivots, phase1_pivots=pivots)

    # Drive leftover artificials out of the basis on their rows' largest
    # entries; drop redundant rows.
    redundant = []
    for i in held:
        size = np.abs(T[i, :n])
        if not (size > _PIVOT_TOL).any():
            redundant.append(i)
        else:
            j = int(size.argmax())
            basis[i] = j
            _pivot(T, i, j)
            pivots += 1
    if redundant:
        keep = np.ones(m + 1, dtype=bool)
        keep[redundant] = False
        return T[:m + 1][keep], basis[keep[:m]], pivots
    return T[:m + 1], basis, pivots


def _phase2(T: np.ndarray, basis: np.ndarray, c: np.ndarray, phase1: int,
            dual: int, max_iter: int) -> LPResult:
    """Phase 2 from the feasible ``basis`` of T, whose row basis.size holds
    the reduced costs of c.  ``phase1`` and ``dual`` pivots were made
    before; T and basis end at the final basis.  An optimal result holds
    the standard-form point and no value."""
    m = basis.size
    status, phase2 = _iterate(T, basis, m, m, c.size, max_iter, False)
    pivots = phase1 + dual + phase2
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=pivots, phase1_pivots=phase1,
                        dual_pivots=dual)
    x = np.zeros(c.size)
    x[basis] = T[:m, -1]
    return LPResult(OPTIMAL, x, None, pivots, phase1, dual, basis.copy())


def _dual_iterate(T: np.ndarray, basis: np.ndarray, m: int, ncols: int,
                  max_iter: int, scale: np.ndarray) -> tuple[str | None, int]:
    """Dual simplex pivots on T, whose row m holds nonnegative reduced
    costs, until every basic x_j >= -_PHASE1_TOL scale[j].  The least x_j /
    scale[j] leaves; of the columns whose entry in its row is below
    -_PIVOT_TOL the least ratio reduced cost / -entry enters, the lowest
    index winning ties.  Returns the status and the pivots made: INFEASIBLE
    when the leaving row has no such entry, None when the budget runs out."""
    rhs = T[:m, -1]
    reduced = T[m, :ncols]
    for pivots in range(max_iter):
        short = rhs / scale[basis]
        leaving = int(short.argmin())
        if short[leaving] >= -_PHASE1_TOL:
            return OPTIMAL, pivots
        row = T[leaving, :ncols]
        cols = (row < -_PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            return INFEASIBLE, pivots
        ratios = reduced[cols] / -row[cols]
        entering = int(cols[(ratios <= ratios.min() + _RATIO_TIE).argmax()])
        basis[leaving] = entering
        _pivot(T, leaving, entering)
    return None, max_iter


def _rows(A, b, nvar: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows A x <= b (or = b) as float arrays, none when A is None."""
    if A is None:
        return np.zeros((0, nvar)), np.zeros(0)
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return A if A.ndim == 2 else A.reshape(1, -1), b if b.ndim else b[None]


def _standard_form(nvar, A_ub, b_ub, A_eq, b_eq, lower, upper):
    """The standard form of a general-form polytope over ``nvar`` variables
    and the maps to and from it.

    Returns (T, mu, cost, to_x): T is the phase-1 block of ``_phase1``, [A |
    b] over the m standard-form rows (the first mu of them from inequality
    and bound rows, each with its slack) and one column per rhs, above two
    zero rows; ``cost(c)`` is the standard-form cost vector of c.x, and
    ``to_x(y)`` the point in the original variables of a standard-form
    point y.  Returns None when some lower bound exceeds its upper bound.
    """
    identity = lower is None and upper is None
    if not identity:
        lo, hi = np.empty(nvar), np.empty(nvar)
        lo[:] = 0.0 if lower is None else lower
        hi[:] = np.inf if upper is None else upper
        if (lo > hi).any():
            return None
        identity = not lo.any() and (hi == np.inf).all()

    A_ub, b_ub = _rows(A_ub, b_ub, nvar)  # b_ub: (n_ub,) or a column per rhs
    A_eq, b_eq = _rows(A_eq, b_eq, nvar)
    n_ub, n_eq = A_ub.shape[0], A_eq.shape[0]
    if identity:        # every variable x >= 0: x = y
        ny, mu, plain = nvar, n_ub, True
    else:
        # x = offset + S y with y >= 0: column k of S is sign[k] * e_src[k].
        # A free variable gets two columns (+ then -), a variable bounded
        # above only is mirrored, and a two-sided bound adds the row
        # y_k <= hi - lo.
        lo_f, hi_f = np.isfinite(lo), np.isfinite(hi)
        free = ~(lo_f | hi_f)
        width = 1 + free
        src = np.arange(nvar).repeat(width)
        first = width.cumsum() - width
        sign = np.ones(src.size)
        sign[first[~lo_f & hi_f]] = -1.0
        sign[first[free] + 1] = -1.0
        offset = np.where(lo_f, lo, np.where(hi_f, hi, 0.0))
        boxed = (lo_f & hi_f).nonzero()[0]
        ny, mu = src.size, n_ub + boxed.size
        plain = lo_f.all()          # no column split or mirrored: S = I

    T = np.zeros((mu + n_eq + 2, ny + mu + (b_ub.shape[1] if b_ub.ndim == 2
                                            else 1)))
    for top, A, b in ((0, A_ub, b_ub), (mu, A_eq, b_eq)):
        if A.shape[0]:
            rows = slice(top, top + A.shape[0])
            T[rows, :ny] = A if plain else A[:, src] * sign
            T[rows, ny + mu:] = (b if identity else (b.T - A @ offset).T
                                 ).reshape(A.shape[0], -1)
    if not identity and boxed.size:
        T[n_ub + np.arange(boxed.size), first[boxed]] = 1.0
        T[n_ub:mu, ny + mu:] = (hi[boxed] - lo[boxed])[:, None]
    # slacks turn inequality rows into equalities: row i's is column ny + i
    T.ravel()[ny:mu * T.shape[1]:T.shape[1] + 1] = 1.0

    def cost(c) -> np.ndarray:
        c_std = np.zeros(ny + mu)
        c_std[:ny] = c if plain else np.asarray(c, dtype=float)[src] * sign
        return c_std

    def to_x(y: np.ndarray) -> np.ndarray:
        if identity:
            return y[:ny] + 0.0     # as the general map, x is never -0.0
        return offset + np.bincount(src, weights=sign * y[:ny],
                                    minlength=nvar)
    return T, mu, cost, to_x


def _budget(A_std: np.ndarray) -> int:
    return 2000 + 200 * (A_std.shape[0] + A_std.shape[1])


def _price(T: np.ndarray, basis: np.ndarray, c: np.ndarray) -> None:
    """Write the reduced costs of c at ``basis`` into T's cost row (row
    basis.size; its rhs entry is minus the objective value)."""
    m = basis.size
    T[m, :-1] = c
    T[m, -1] = 0.0
    T[m] -= c[basis] @ T[:m]


def _face_min(T: np.ndarray, basis: np.ndarray, tie: np.ndarray,
              max_iter: int) -> LPResult:
    """min tie.x over the optimal face of T's cost row: phase 2 on a copy of
    T where the columns pricing above _RCOST_TOL price +inf (never enter)."""
    m = basis.size
    face = T[:m + 1].copy()
    _price(face, basis, tie)
    face[m, :-1][T[m, :-1] > _RCOST_TOL] = np.inf
    return _phase2(face, basis.copy(), tie, 0, 0, max_iter)


def _solve(legs, A_ub, b_ub, A_eq, b_eq, lower, upper,
           maximize: bool = False) -> list[LPResult]:
    """The driver behind solve_lp, solve_lp_sequence and solve_lp_path (see
    the module docstring): min (or max) c.x over the polytope for each leg
    ``(c, tie)``, tie None or a tie-break, and each rhs of the inequality
    rows: b_ub is one rhs, or a path's matrix with one rhs per column.
    Returns one result per (rhs, leg), rhs by rhs."""
    legs = [(np.asarray(c, dtype=float), tie) for c, tie in legs]
    path = np.ndim(b_ub) == 2
    if path:        # phase 1 solves the last rhs column, so they run reversed
        b_ub = np.asarray(b_ub, dtype=float)[:, ::-1]
    ncol = b_ub.shape[1] if path else 1
    form = _standard_form(legs[0][0].size, A_ub, b_ub, A_eq, b_eq, lower,
                          upper)
    if form is None:
        return [LPResult(INFEASIBLE) for _ in range(ncol * len(legs))]
    block, mu, cost, to_x = form
    m, n = block.shape[0] - 2, block.shape[1] - ncol
    max_iter = _budget(block[:m, :n])
    costs = [cost(-c if maximize else c) for c, _ in legs]

    def column(T, basis, pivots, dual):
        # each leg is priced at the basis the last one ended at
        out = []
        for (c, tie), c_std in zip(legs, costs):
            if out:
                _price(T, basis, c_std)
            res = _phase2(T, basis, c_std, pivots, dual, max_iter)
            pivots = dual = 0       # they count toward the first leg only
            if res.status == OPTIMAL:
                res.x = to_x(res.x)
                res.value = float(c @ res.x)
                if tie is not None:
                    face = _face_min(T, basis, cost(tie), max_iter)
                    res.status, res.basis = face.status, face.basis
                    res.x = None if face.x is None else to_x(face.x)
                    res.pivots += face.pivots
                if res.basis is not None and res.basis.size < m:
                    res.basis = None        # a redundant row was dropped
            out.append(res)
        return out

    results, T, scale = [], None, None
    for j in range(ncol, 0, -1):
        out = None
        if T is not None and basis.size:        # the last rhs was optimal
            T = T[:, :-1]
            if scale is None:    # a slack is its row's surplus, held to the
                scale = np.ones(n)                      # row's own scale
                scale[n - mu:] = np.abs(block[:mu, :n - mu]).max(
                    axis=1, initial=0.0).clip(_PIVOT_TOL, 1.0)
            status, dual = _dual_iterate(T, basis, basis.size, n, max_iter,
                                         scale)
            if status == OPTIMAL:
                out = column(T, basis, 0, dual)
        if out is None or out[0].status != OPTIMAL:
            # a path keeps its block pristine for the columns after this one
            start = _phase1(costs[0], block[:, :n + j].copy() if path
                            else block, mu, max_iter)
            if isinstance(start, LPResult):
                out = [start] + [LPResult(INFEASIBLE) for _ in legs[1:]]
            else:
                T, basis, pivots = start
                out = column(T, basis, pivots, 0)
        if out[0].status != OPTIMAL:
            T = None
        results += out
    return results


def solve_lp(c,
             A_ub=None, b_ub=None,
             A_eq=None, b_eq=None,
             lower=None, upper=None,
             maximize: bool = False) -> LPResult:
    """Solve a general-form LP.  Default bounds are x >= 0.

    Bounds may contain +/-inf entries; free and upper-bounded variables are
    shifted/split to reach standard form.  ``LPResult.x`` is reported in the
    original variables, and ``value`` is c.x there.
    """
    return _solve([(c, None)], A_ub, b_ub, A_eq, b_eq, lower, upper,
                  maximize)[0]


def solve_lp_sequence(objectives, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                      lower=None, upper=None) -> list[LPResult]:
    """min c.x over one polytope, given as in solve_lp, for each objective
    in turn (see the module docstring); results after the first have
    ``phase1_pivots`` 0, and an empty polytope makes every one infeasible.
    A pair ``(c, tie)`` also minimises tie.x over c's optimal face: its
    result keeps c's optimum as ``value``, adds the face's pivots and has
    the tie-break point as ``x`` (unbounded, x None, if tie is unbounded).
    """
    return _solve([o if isinstance(o, tuple) else (o, None)
                   for o in objectives], A_ub, b_ub, A_eq, b_eq, lower, upper)


def solve_lp_path(c, A_ub, B_ub, A_eq=None, b_eq=None, lower=None,
                  upper=None) -> list[LPResult]:
    """min c.x s.t. A_ub x <= B_ub[:, j] and the rest as in solve_lp, for
    each column j of B_ub in turn (see the module docstring); a column
    continued from the last one's basis counts its ``dual_pivots``."""
    return _solve([(c, None)], A_ub, B_ub, A_eq, b_eq, lower, upper)
