"""LP row builders against the per-row loops they replaced.

Each loop reference below is the loop form of one builder.  The array-built
rows must be the same rows in the same order, bit for bit (signs of zero
included), so pivots and answers do not change.

The density polytopes run over w = z - l, l being z's lower bound
(``lifted_polytope_loop``).  ``set_polytope_loop`` and
``interior_polytope_loop`` keep the polytopes over z itself, the rows
before the lift: test_pricing solves its reference LPs on them.

The value references are the frontier LPs before the pwl hinge rows and the
lifted start: the epigraph LP of the pwl families and the unlifted
shortfall and minimax LPs, and the dual-box LP that solved the recession
measure of ew/sr/oce before it took the hinge LP of the asymptotic loss;
and the pwl dual LPs of the OCE and the shortfall risk before they dropped
the anchor cut of l* and ran in w = z - a s.  The new LPs must reach their
values.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanrisk.dual as dual
import meanrisk.frontier as frontier
from conftest import random_market, random_randvar, random_space
from meanrisk import (DualSetSpec, FiniteSpace, LossFunction, RandVar,
                      RiskSpec, bounded_tail_profile, dual_evaluate, evaluate,
                      table_profile)
from meanrisk.dual import interior_polytope, set_polytope
from meanrisk.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def same(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------

def _as_box(ds):
    if ds.kind == "penalized":
        return DualSetSpec("box", ds.loss.a_l, ds.loss.b_l, loss=ds.loss)
    if ds.kind == "penalized_sup":
        return DualSetSpec("box", 0.0, math.inf)
    return ds


def lifted_polytope_loop(ds, space, interior):
    """The lifted density polytope, row by row: columns (w, [s], [delta])
    with w = z - l, w >= 0 in place of the lower-bound rows, one upper row
    per atom w_i + (l - u) @ x <= u0 - l0, E[z] = 1 as the row E[w] +
    (l - l0) E[1] = 1 - l0 E[1], and l's coefficients and constant."""
    n, p = space.n, space.probs
    ds = _as_box(DualSetSpec("box", 0.0, math.inf) if ds is None else ds)
    a = ds.a_l or 0.0
    b = ds.b_l if ds.b_l is not None else math.inf
    if ds.kind == "scaled_box" and a <= 0.0 and b == math.inf:
        ds = DualSetSpec("box", 0.0, math.inf)
    scaled = ds.kind == "scaled_box"
    nvars = n + scaled + interior
    lift = np.zeros(nvars)
    upper = lift.copy()          # u's coefficients
    if scaled:
        base, top = 0.0, 0.0
        lift[n] = max(a, 0.0)
        upper[n] = b
    else:
        base = max(ds.lo, 0.0) if ds.kind == "box" else 0.0
        top = ds.hi
    if interior:
        lift[-1] = 1.0
        upper[-1] = -1.0
    rows, rhs, strict = [], [], []
    if math.isfinite(top) and np.isfinite(upper[n:]).all():
        for i in range(n):
            row = np.zeros(nvars)
            row[i] = 1.0
            for k in range(n, nvars):
                row[k] = lift[k] - upper[k]
            rows.append(row)
            rhs.append(top - base)
            if ds.strict and not interior:
                strict.append(i)
    total = p.sum()
    A_eq = np.zeros((1, nvars))
    for k in range(nvars):
        A_eq[0, k] = total * lift[k] + (p[k] if k < n else 0.0)
    A_ub = np.array(rows) if rows else np.zeros((0, nvars))
    return (nvars, A_ub, np.array(rhs), A_eq, np.array([1.0 - total * base]),
            strict, lift, base)


def set_polytope_loop(ds, space):
    n, p = space.n, space.probs
    rows_ub, rhs_ub, strict = [], [], []
    nvars = n
    ds = _as_box(DualSetSpec("box", 0.0, math.inf) if ds is None else ds)
    if ds.kind in ("box", "supnorm"):
        hi = ds.hi
        lo = ds.lo if ds.kind == "box" else 0.0
        if hi != math.inf:
            for i in range(n):
                row = np.zeros(n)
                row[i] = 1.0
                rows_ub.append(row)
                rhs_ub.append(hi)
                if ds.strict:
                    strict.append(len(rows_ub) - 1)
        if lo > 0.0:
            for i in range(n):
                row = np.zeros(n)
                row[i] = -1.0
                rows_ub.append(row)
                rhs_ub.append(-lo)
        A_eq = p[None, :]
    else:
        a = ds.a_l or 0.0
        b = ds.b_l if ds.b_l is not None else math.inf
        if a <= 0.0 and b == math.inf:
            return set_polytope_loop(DualSetSpec("box", 0.0, math.inf), space)
        nvars = n + 1
        for i in range(n):
            if b != math.inf:
                row = np.zeros(nvars)
                row[i] = 1.0
                row[n] = -b
                rows_ub.append(row)
                rhs_ub.append(0.0)
            if a > 0.0:
                row = np.zeros(nvars)
                row[i] = -1.0
                row[n] = a
                rows_ub.append(row)
                rhs_ub.append(0.0)
        A_eq = np.zeros((1, nvars))
        A_eq[0, :n] = p
    A_ub = np.array(rows_ub) if rows_ub else np.zeros((0, nvars))
    b_ub = np.array(rhs_ub) if rhs_ub else np.zeros(0)
    return nvars, A_ub, b_ub, A_eq, strict


def interior_polytope_loop(ds, space):
    n, p = space.n, space.probs
    ds = _as_box(ds)
    rows, rhs = [], []
    if ds.kind in ("box", "supnorm"):
        nvars = n + 1
        lo = ds.lo if ds.kind == "box" else 0.0
        for i in range(n):
            row = np.zeros(nvars)
            row[i] = -1.0
            row[n] = 1.0
            rows.append(row)
            rhs.append(-max(lo, 0.0))
            if ds.hi != math.inf:
                row = np.zeros(nvars)
                row[i] = 1.0
                row[n] = 1.0
                rows.append(row)
                rhs.append(ds.hi)
    else:
        a = ds.a_l or 0.0
        b = ds.b_l if ds.b_l is not None else math.inf
        if a <= 0.0 and b == math.inf:
            return interior_polytope_loop(DualSetSpec("box", 0.0, math.inf),
                                          space)
        nvars = n + 2
        for i in range(n):
            row = np.zeros(nvars)
            row[i] = -1.0
            row[n + 1] = 1.0
            rows.append(row)
            rhs.append(0.0)
            if a > 0.0:
                row = np.zeros(nvars)
                row[i] = -1.0
                row[n] = a
                row[n + 1] = 1.0
                rows.append(row)
                rhs.append(0.0)
            if b != math.inf:
                row = np.zeros(nvars)
                row[i] = 1.0
                row[n] = -b
                row[n + 1] = 1.0
                rows.append(row)
                rhs.append(0.0)
    A_eq = np.zeros((1, nvars))
    A_eq[0, :n] = p
    return nvars, np.array(rows), np.array(rhs), A_eq


def pwl_hinge_loop(par, p, fam, s, breakpoints):
    kinks = [(b, s[k + 1] - s[k]) for k, b in enumerate(breakpoints)
             if s[k + 1] - s[k] > 0.0]
    n, q = par.C.shape
    extra = 0 if fam == "ew" else 1
    w0 = q + extra
    nv = w0 + n * len(kinks)
    lift = 0.0
    if extra:
        low = min([b for b, _ in kinks] + [0.0])
        lift = max(0.0, -min(x + low for x in par.x0))
    rows, rhs = [], []
    for k, (b, _) in enumerate(kinks):
        for i in range(n):
            row = np.zeros(nv)
            row[:q] = -par.C[i]
            if extra:
                row[q] = -1.0
            row[w0 + k * n + i] = -1.0
            rows.append(row)
            rhs.append(par.x0[i] + b + lift)
    loss_row = np.zeros(nv)
    loss_row[:q] = -s[0] * (p @ par.C)
    if extra:
        loss_row[q] = -s[0]
    for k, (_, jump) in enumerate(kinks):
        for i in range(n):
            loss_row[w0 + k * n + i] = jump * p[i]
    jumps = np.array([jump for _, jump in kinks])
    c0 = -float(jumps @ np.maximum(-np.array([b for b, _ in kinks]), 0.0))
    const = c0 - s[0] * (float(p @ par.x0) + lift)
    if fam == "sr":
        c = np.zeros(nv)
        c[q] = 1.0
        rows.append(loss_row)
        rhs.append(-const)
    else:
        c = loss_row
        if fam == "oce":
            c[q] += 1.0
    A_ub = np.vstack([np.array(rows).reshape(len(rows), nv),
                      np.hstack([par.A_ub, np.zeros((par.A_ub.shape[0],
                                                     nv - q))])])
    b_ub = np.concatenate([np.array(rhs), par.b_ub])
    lower = np.concatenate([par.lower, np.full(extra, -np.inf),
                            np.zeros(nv - w0)])
    upper = np.concatenate([par.upper, np.full(nv - q, np.inf)])
    return dict(c=c, A_ub=A_ub, b_ub=b_ub, lower=lower, upper=upper)


def dualbox_loop(par, p, kind, a, b):
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
        rhs.append(p[i] * par.x0[i])
    if kind == "scaled":
        row = np.zeros(nv)
        if has_up:
            row[y0:y0 + n_y1] = b
        if has_lo:
            row[y0 + n_y1:] = -a
        rows.append(row)
        rhs.append(0.0)
    A_ub = np.vstack([np.array(rows),
                      np.hstack([par.A_ub, np.zeros((par.A_ub.shape[0],
                                                     nv - q))])])
    b_ub = np.concatenate([np.array(rhs), par.b_ub])
    lower = np.concatenate([par.lower, np.full(y0 - q, -np.inf),
                            np.zeros(n_y1 + n_y2)])
    upper = np.concatenate([par.upper, np.full(nv - q, np.inf)])
    return dict(c=c, A_ub=A_ub, b_ub=b_ub, lower=lower, upper=upper)


def kink_cuts(loss):
    return [cut for cut in loss.conjugate_cuts() if cut != (0.0, 0.0)]


def penalized_cut_loop(X, loss):
    n, p = X.space.n, X.space.probs
    cuts = kink_cuts(loss)
    nt = n if cuts else 0
    c = np.concatenate([-p * X.values, -p[:nt]])
    rows, rhs = [], []
    for (A, B) in cuts:
        for i in range(n):
            row = np.zeros(n + nt)
            row[i] = A
            row[n + i] = -1.0
            rows.append(row)
            rhs.append(-B)
    return dict(c=c, A_ub=np.array(rows).reshape(len(rows), n + nt),
                b_ub=np.array(rhs, dtype=float),
                A_eq=np.concatenate([p, np.zeros(nt)])[None, :],
                lower=np.concatenate([np.full(n, max(loss.a_l, 0.0)),
                                      np.zeros(nt)]),
                upper=np.concatenate([np.full(n, loss.b_l),
                                      np.full(nt, np.inf)]))


def perspective_cut_loop(X, loss):
    """Rows in (w, t, s) with w = z - a s."""
    n, p = X.space.n, X.space.probs
    cuts = kink_cuts(loss)
    a, b = max(loss.a_l, 0.0), loss.b_l
    nt = n if cuts else 0
    nv = n + nt + 1
    px = p * X.values
    c = np.concatenate([-px, -p[:nt], [-a * px.sum()]])
    rows = []
    for (A, B) in cuts:
        for i in range(n):
            row = np.zeros(nv)
            row[i] = A
            row[n + i] = -1.0
            row[nv - 1] = A * a + B
            rows.append(row)
    for i in range(n):
        row = np.zeros(nv)
        row[i] = 1.0
        row[nv - 1] = a - b
        rows.append(row)
    A_eq = np.concatenate([p, np.zeros(nt), [a]])[None, :]
    return dict(c=c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
                A_eq=A_eq)


# ---------------------------------------------------------------------------
# Value references: the builders before the hinge rows and the lifted start
# ---------------------------------------------------------------------------

def penalized_cut_ref(X, loss):
    """The OCE dual LP in (z, t) with one row per cut of l*, the anchor
    (0, 0) included, solved."""
    n, p = X.space.n, X.space.probs
    c = np.concatenate([-p * X.values, -p])
    rows, rhs = [], []
    for (A, B) in loss.conjugate_cuts():
        for i in range(n):
            row = np.zeros(2 * n)
            row[i] = A
            row[n + i] = -1.0
            rows.append(row)
            rhs.append(-B)
    return solve_lp(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                    A_eq=np.concatenate([p, np.zeros(n)])[None, :],
                    b_eq=[1.0],
                    lower=np.concatenate([np.full(n, max(loss.a_l, 0.0)),
                                          np.zeros(n)]),
                    upper=np.concatenate([np.full(n, loss.b_l),
                                          np.full(n, np.inf)]),
                    maximize=True)


def perspective_cut_ref(X, loss):
    """The shortfall dual LP in (z, t, s): every cut of l*, the anchor
    included, and the two bound rows a s <= z_i <= b s per atom, solved."""
    n, p = X.space.n, X.space.probs
    c = np.concatenate([-p * X.values, -p, [0.0]])
    rows = []
    for (A, B) in loss.conjugate_cuts():
        for i in range(n):
            row = np.zeros(2 * n + 1)
            row[i] = A
            row[n + i] = -1.0
            row[2 * n] = B
            rows.append(row)
    a, b = loss.a_l, loss.b_l
    for i in range(n):
        if b != math.inf:
            row = np.zeros(2 * n + 1)
            row[i] = 1.0
            row[2 * n] = -b
            rows.append(row)
        if a > 0.0:
            row = np.zeros(2 * n + 1)
            row[i] = -1.0
            row[2 * n] = a
            rows.append(row)
    return solve_lp(c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
                    A_eq=np.concatenate([p, np.zeros(n + 1)])[None, :],
                    b_eq=[1.0], maximize=True)


def pwl_lines(loss):
    """l(y) = max_k (A_k y + B_k): one supporting line per pwl piece."""
    kinks, vals = loss._pwl_kinks()
    if kinks.size == 0:
        return [(loss.slopes[0], 0.0)]
    lines = []
    for j, s in enumerate(loss.slopes):
        anchor = max(j - 1, 0)
        lines.append((float(s), float(vals[anchor] - s * kinks[anchor])))
    return sorted(set(lines))


def pwl_epigraph_min(par, p, spec):
    """One row A y_i + B <= t_i per line and atom, t free."""
    n, q = par.C.shape
    fam = spec.family
    extra = 0 if fam == "ew" else 1
    nv = q + extra + n
    rows, rhs = [], []
    for (A, B) in pwl_lines(spec.loss):
        block = np.zeros((n, nv))
        block[:, :q] = -A * par.C
        if fam == "sr":
            block[:, q] = -A
        elif fam == "oce":
            block[:, q] = A
        block[np.arange(n), q + extra + np.arange(n)] = -1.0
        rows.append(block)
        rhs.append(A * par.x0 - B)
    c = np.zeros(nv)
    if fam == "sr":
        c[q] = 1.0
        row = np.zeros((1, nv))
        row[0, q + extra:] = p
        rows.append(row)
        rhs.append([0.0])
    elif fam == "oce":
        c[q] = -1.0
        c[q + extra:] = p
    else:
        c[q + extra:] = p
    return frontier._solve_family(par, p, c, 0.0, rows, rhs,
                                  np.full(extra + n, -np.inf))


def es_unlifted_min(par, p, pieces):
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
                rhs.append([a + b / x])
            else:
                c, shift = row[0], -(a + b / x)
        block = np.zeros((n, nv))
        block[:, :q] = -par.C
        block[:, mk] = -1.0
        block[:, uk] = -np.eye(n)
        rows.append(block)
        rhs.append(par.x0)
        if lo == 0.0:
            row = np.zeros((1, nv))
            row[0, uk] = p
            rows.append(row)
            rhs.append([b])
    if epigraph:
        c[q] = 1.0
    lower = np.zeros(nv - q)
    lower[:start - q] = -np.inf
    lower[start - q::1 + n] = -np.inf
    return frontier._solve_family(par, p, c, shift, rows, rhs, lower)


def wc_unlifted_min(par, p):
    n, q = par.C.shape
    c = np.zeros(q + 1)
    c[q] = 1.0
    rows = np.zeros((n, q + 1))
    rows[:, :q] = -par.C
    rows[:, q] = -1.0
    return frontier._solve_family(par, p, c, 0.0, [rows], [par.x0],
                                  np.array([-np.inf]))


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def random_pwl(rng):
    """A pwl loss with l(x) >= x: kinks at 0 and maybe at one or two more
    points, a flat or sloped left end and a finite last slope."""
    left = float(rng.choice([0.0, rng.uniform(0.1, 0.9)]))
    right = float(rng.uniform(1.2, 4.0))
    kind = int(rng.integers(3))
    if kind == 0:
        return LossFunction.pwl((left, right), (0.0,))
    if kind == 1:
        return LossFunction.pwl((left, 1.0, right), (-0.5, 0.3))
    return LossFunction.pwl((0.0, left, 1.0, right), (-1.0, -0.2, 0.0))


def recession_specs(rng):
    """es, wc, lses and adjusted ES, whose recession LPs are the shortfall
    and minimax LPs, and ew/sr/oce with losses that have a_l = 0, kinks
    off 0, the identity, exp (b_l = inf) and c y^+ with c < 1."""
    yield RiskSpec.wc()
    yield from shortfall_specs(rng)
    losses = (random_pwl(rng), LossFunction.pwl((0.0, 2.5), (0.0,)),
              LossFunction.pwl((0.4, 1.0, 3.0), (-0.5, 0.3)),
              LossFunction.identity(), LossFunction.exp())
    for fam in ("ew", "sr", "oce"):
        for loss in losses:
            yield RiskSpec(fam, loss=loss)
    yield RiskSpec.ew_with(LossFunction.power(0.5, 1.0))


def random_dual_sets(rng):
    loss = random_pwl(rng)
    lo = float(rng.uniform(0.1, 0.9))
    hi = float(rng.uniform(1.1, 5.0))
    yield None
    yield DualSetSpec("box", 0.0, math.inf)
    yield DualSetSpec("box", lo, hi)
    yield DualSetSpec("box", lo, math.inf)
    yield DualSetSpec("box", 0.0, hi)
    yield DualSetSpec("supnorm", hi=hi, strict=bool(rng.integers(2)))
    yield DualSetSpec("penalized", loss=loss)
    yield DualSetSpec("penalized_sup", b=0.5)
    for a_l, b_l in ((lo, hi), (0.0, hi), (lo, math.inf), (0.0, math.inf)):
        yield DualSetSpec("scaled_box", a_l=a_l, b_l=b_l)


class TestRowBuilders:
    def test_polytopes_match_loops(self, rng):
        for _ in range(60):
            space = random_space(rng, int(rng.integers(1, 9)))
            for ds in random_dual_sets(rng):
                for interior in (False, True):
                    if interior and ds is None:
                        continue
                    build = interior_polytope if interior else set_polytope
                    pt = build(ds, space)
                    (nvars, A_ub, b_ub, A_eq, b_eq, strict, lift,
                     base) = lifted_polytope_loop(ds, space, interior)
                    assert pt.nvars == nvars and pt.strict_rows == strict
                    assert pt.n == space.n and same(pt.base, base)
                    # every drawn set holds a density, so the slack basis
                    # is feasible for every inequality row
                    assert (pt.b_ub >= 0.0).all(), ds
                    for got, want in ((pt.A_ub, A_ub), (pt.b_ub, b_ub),
                                      (pt.A_eq, A_eq), (pt.b_eq, b_eq),
                                      (pt.lift, lift)):
                        assert same(got, want), (ds, interior)

    def _spy(self, monkeypatch, module):
        seen = []
        inner = module.solve_lp

        def spy(c, **kwargs):
            seen.append(dict(kwargs, c=c))
            return inner(c, **kwargs)

        monkeypatch.setattr(module, "solve_lp", spy)
        return seen

    def test_frontier_lps_match_loops(self, rng, monkeypatch):
        seen = self._spy(monkeypatch, frontier)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            m = random_market(rng, n=n, d=int(rng.integers(1, min(4, n))))
            p = m.space.probs
            nu = float(rng.uniform(0, 1))
            for par in (frontier._pi_param(m, nu, nu, at=nu),
                        frontier._pi_param(m, float(rng.uniform(0, 0.2))),
                        frontier._ball_param(m)):
                for fam in ("ew", "sr", "oce"):
                    loss = random_pwl(rng)
                    seen.clear()
                    frontier._pwl_family_min(par, p, fam, loss.slopes,
                                             loss.breakpoints)
                    want = pwl_hinge_loop(par, p, fam, loss.slopes,
                                          loss.breakpoints)
                    (got,) = seen
                    for key, value in want.items():
                        assert same(got[key], value), (fam, key)
                for spec in recession_specs(rng):
                    rec = frontier._recession_spec(spec)
                    if rec is None:            # ew with b_l = inf
                        continue
                    seen.clear()
                    frontier._recession_min(spec, m, par)
                    (got,) = seen
                    if rec.family == "es":
                        frontier._es_min(par, p, [(rec.alpha, rec.alpha,
                                                   0.0, 0.0)])
                    elif rec.family == "wc" or (
                            rec.family == "sr" and rec.loss.zero_on_negatives):
                        frontier._wc_min(par, p)
                    else:                      # the hinge LP of l_inf
                        loss = rec.loss
                        seen.append(pwl_hinge_loop(par, p, rec.family,
                                                   (loss.a_l, loss.b_l),
                                                   (0.0,)))
                    want = seen[1]
                    for key, value in want.items():
                        assert same(got[key], value), (spec.label(), key)

    def test_cut_lps_match_loops(self, rng, monkeypatch):
        seen = self._spy(monkeypatch, dual)
        for _ in range(60):
            X = random_randvar(rng, int(rng.integers(1, 12)))
            loss = random_pwl(rng)
            for build, loop in ((dual._penalized_cut_lp, penalized_cut_loop),
                                (dual._perspective_cut_lp,
                                 perspective_cut_loop)):
                seen.clear()
                build(X, loss)
                want = loop(X, loss)
                (got,) = seen
                for key, value in want.items():
                    assert same(got[key], value), (build.__name__, key)

    def test_pwl_dual_lp_sizes(self, rng, monkeypatch):
        # pwl(0.5,0,2) kinks at 0 only: l* = 0 on [0.5, 2] and no cut but
        # the anchor, so neither LP has epigraph columns; the sr LP has one
        # row w_i <= 1.5 s per atom and s enters on the density row
        seen = []

        def spy(c, **kwargs):
            seen.append((dict(kwargs, c=c), solve_lp(c, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(dual, "solve_lp", spy)
        n = 60
        X = random_randvar(rng, n)
        loss = LossFunction.pwl((0.5, 2.0), (0.0,))
        dual_evaluate(RiskSpec.sr_with(loss), X)
        ((got, res),) = seen
        assert got["A_ub"].shape == (n, n + 1) and got["c"].size == n + 1
        assert res.pivots <= 25 and res.phase1_pivots == 1
        seen.clear()
        dual_evaluate(RiskSpec.oce_with(loss), X)
        ((got, _),) = seen
        assert got["c"].size == n and got["A_ub"].shape == (0, n)


def random_params(rng, m):
    """A slice, a band of returns, the l1 ball and a risk budget."""
    nu = float(rng.uniform(0.0, 0.5))
    yield frontier._pi_param(m, nu, nu, at=nu)
    yield frontier._pi_param(m, nu, nu + float(rng.uniform(0.0, 0.3)))
    yield frontier._ball_param(m)
    yield frontier._pi_param(m, 0.0, budget=float(rng.uniform(0.05, 0.5)))


def shortfall_specs(rng):
    alpha = float(rng.uniform(0.05, 0.9))
    return [RiskSpec.es_at(alpha), RiskSpec.lses_at(alpha),
            RiskSpec.adjusted(table_profile([(0.2, 3.0), (0.5, 1.0),
                                             (1.0, 0.0)])),
            RiskSpec.adjusted(bounded_tail_profile(0.8, 0.3))]


def same_recession(got, ref, tag):
    """A recession value against the dual-box LP's: -inf when that LP is
    unbounded and inf when it is infeasible (ew with b_l = inf)."""
    value, _ = got
    want = {OPTIMAL: ref.value, UNBOUNDED: -math.inf,
            INFEASIBLE: math.inf}[ref.status]
    if math.isinf(want):
        assert value == want, (tag, value, want)
    else:
        assert abs(value - want) <= 1e-9 * max(1.0, abs(want)), \
            (tag, value, want)


DUALBOX_KIND = {"oce": "dualbox", "sr": "scaled", "ew": "ew"}


def same_value(got, want, tag):
    (res, _), (ref, _) = got, want
    assert res.status == ref.status, tag
    if ref.status == OPTIMAL:
        assert abs(res.value - ref.value) <= 1e-9 * max(1.0, abs(ref.value)), \
            (tag, res.value, ref.value)


class TestLiftedLps:
    """The hinge LP and the lifted shortfall and minimax LPs solve the same
    programs as the epigraph and unlifted LPs they replaced, and the
    recession LPs of ew/sr/oce reach the dual-box LP's values."""

    def test_values_match_references(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 12))
            m = random_market(rng, n=n, d=int(rng.integers(1, min(4, n))))
            p = m.space.probs
            for k, par in enumerate(random_params(rng, m)):
                for fam in ("ew", "sr", "oce"):
                    spec = RiskSpec(fam, loss=random_pwl(rng))
                    same_value(frontier._pwl_family_min(
                        par, p, fam, spec.loss.slopes, spec.loss.breakpoints),
                        pwl_epigraph_min(par, p, spec), (k, fam))
                for spec in shortfall_specs(rng):
                    pieces = frontier._shortfall_pieces(spec)
                    same_value(frontier._es_min(par, p, pieces),
                               es_unlifted_min(par, p, pieces),
                               (k, spec.label()))
                same_value(frontier._wc_min(par, p), wc_unlifted_min(par, p),
                           (k, "wc"))
                if par.budget is not None:
                    continue
                for spec in recession_specs(rng):
                    if spec.family not in DUALBOX_KIND:
                        continue
                    loss = spec.loss
                    ref = solve_lp(**dualbox_loop(
                        par, p, DUALBOX_KIND[spec.family], loss.a_l,
                        loss.b_l))
                    same_recession(frontier._recession_min(spec, m, par),
                                   ref, (k, spec.label()))

    def test_slices_need_no_phase1(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 40))
            m = random_market(rng, n=n, d=int(rng.integers(1, min(6, n))))
            p = m.space.probs
            nu = float(rng.uniform(0, 1))
            for par in (frontier._pi_param(m, nu, nu, at=nu),
                        frontier._ball_param(m)):
                lps = [frontier._wc_min(par, p)]
                lps += [frontier._es_min(par, p, frontier._shortfall_pieces(s))
                        for s in shortfall_specs(rng)]
                for fam in ("sr", "oce"):
                    loss = random_pwl(rng)
                    lps.append(frontier._pwl_family_min(
                        par, p, fam, loss.slopes, loss.breakpoints))
                    # the recession LP: the hinge LP of l_inf
                    rec = frontier._recession_spec(
                        RiskSpec(fam, loss=LossFunction.pwl(
                            (0.5, 1.0, 2.0), (-0.5, 0.3))))
                    lps.append(frontier._lp_min(rec)(par, p))
                for res, _ in lps:
                    assert res.status == OPTIMAL
                    assert res.phase1_pivots == 0 < res.pivots


@st.composite
def pwl_losses(draw):
    """A pwl loss with l(x) >= x: a_l = 0 or in (0, 1), 1-3 kinks, with or
    without one at 0, the first at or left of 0; slopes at most 1 left of
    0, 1 across it and at least 1 right of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a_l = draw(st.sampled_from([0.0, float(rng.uniform(0.05, 0.95))]))
    kinks = draw(st.integers(1, 3))
    at_zero = draw(st.booleans())
    left = draw(st.integers(0 if at_zero else 1, kinks - at_zero))
    right = kinks - at_zero - left
    bps = sorted(set(-rng.uniform(0.05, 1.0, left))) + [0.0] * at_zero \
        + sorted(set(rng.uniform(0.05, 1.0, right)))
    slopes = [a_l]
    for k, lo in enumerate(bps):
        hi = bps[k + 1] if k + 1 < len(bps) else math.inf
        if hi <= 0.0:
            slopes.append(float(rng.uniform(slopes[-1], 1.0)))
        elif lo >= 0.0:
            slopes.append(max(slopes[-1], 1.0) + float(rng.uniform(0.0, 2.0)))
        else:
            slopes.append(1.0)
    return LossFunction.pwl(slopes, bps)


class TestPwlDualLps:
    """The pwl dual LPs without the anchor cut, and the shortfall dual in
    w = z - a s, reach the values of the (z, t, s) LPs with every cut."""

    @given(pwl_losses(), st.integers(1, 40), st.integers(-3, 3),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_values_match_references(self, loss, n, k, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.2, 1.0, n)
        X = RandVar(FiniteSpace(w / w.sum()), 10.0 ** k * rng.normal(size=n))
        tol = 1e-12 * (1.0 + float(np.max(np.abs(X.values))))
        for build, ref, fam in (
                (dual._penalized_cut_lp, penalized_cut_ref, "oce"),
                (dual._perspective_cut_lp, perspective_cut_ref, "sr")):
            want = ref(X, loss)
            assert want.status == OPTIMAL
            assert build(X, loss) == pytest.approx(want.value, rel=0.0,
                                                   abs=tol), fam
            spec = RiskSpec(fam, loss=loss)
            assert dual_evaluate(spec, X) == pytest.approx(
                evaluate(spec, X), abs=1e-7 * 10.0 ** max(k, 0)), fam
