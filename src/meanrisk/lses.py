"""Loss sensitive expected shortfall: exact sweep over the tail-gap integral.

The penalised objective G(a) = ES_a(X) - b(1/a - 1) is maximised where the
tail-gap integral

    I_X(a) = integral_0^a (VaR_u(X) - VaR_a(X)) du = a ES_a(X) - a VaR_a(X)

last stays below b.  On a finite space I_X is a nondecreasing step function
whose value on the open interval between consecutive cumulative
probabilities F_{j-1} and F_j is J_j = sum_{i<j} p_i (v_j - v_i), so the
optimal level is itself a cumulative probability and no generic optimiser
is needed.  When the maximiser is a whole interval the canonical level is
its right endpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .market import RandVar
from .measures import es_sorted, quantile_pieces, var_sorted

@dataclass(frozen=True)
class LsesBreakdown:
    """Value plus the audit trail of the sweep."""

    value: float
    alpha_star: float
    alpha_star_interval: tuple[float, float]
    es_at_star: float
    var_at_star: float
    breakpoints: np.ndarray   # cumulative probabilities F_1..F_n
    I_values: np.ndarray      # I_X at each breakpoint (right-continuous)
    G_values: np.ndarray      # penalised objective at each breakpoint


def evaluate(X: RandVar, b: float) -> LsesBreakdown:
    """Exact evaluation of the loss sensitive expected shortfall at level b.

    The whole breakdown is read off one ``quantile_pieces`` table, one sort
    of X: ES and VaR at alpha* and at 1 come from ``es_sorted`` and
    ``var_sorted``, the arithmetic of ``measures.es`` and ``measures.var``
    on the same (v, p, cum), so every field equals the composition of
    those calls bit for bit.
    """
    if b <= 0:
        raise ValueError("sensitivity b must be positive")
    v, p, cum, J = quantile_pieces(X)

    # I_X equals J[j] on the open piece below cum[j] and jumps to J[j+1]
    # at cum[j]; the sup of {I_X <= b} is therefore a breakpoint.
    j_star = int(np.max(np.where(J <= b)[0]))          # J[0] == 0 <= b always
    alpha_hi = float(cum[j_star])
    ge = np.where(J >= b)[0]
    if ge.size == 0:
        alpha_lo = 1.0                                 # inf of an empty set
    else:
        j0 = int(ge[0])
        alpha_lo = float(cum[j0 - 1]) if j0 > 0 else alpha_hi
    alpha_lo = min(alpha_lo, alpha_hi)

    es_star = es_sorted(v, p, cum, alpha_hi)
    var_star = var_sorted(v, cum, alpha_hi)
    value = es_star - b * (1.0 / alpha_hi - 1.0)

    es_at_breaks = -np.cumsum(p * v) / cum     # exact ES at each F_j
    I_at_breaks = np.concatenate([
        J[1:], [es_sorted(v, p, cum, 1.0) - var_sorted(v, cum, 1.0)]])
    G_at_breaks = es_at_breaks - b * (1.0 / cum - 1.0)
    return LsesBreakdown(float(value), alpha_hi, (alpha_lo, alpha_hi),
                         float(es_star), float(var_star), cum.copy(),
                         I_at_breaks, G_at_breaks)


def continuous_identity_check(X: RandVar, b: float) -> float:
    """|LSES - (a* ES_{a*} + (1-a*) VaR_{a*})|.

    The identity holds for continuous laws; on a discretisation the residual
    shrinks with the atom count and is reported, not asserted.
    """
    bd = evaluate(X, b)
    blend = bd.alpha_star * bd.es_at_star + (1.0 - bd.alpha_star) * bd.var_at_star
    return abs(bd.value - blend)


# ---------------------------------------------------------------------------
# Standard normal helpers (self-contained: stdlib pdf and AS241 quantile)
# ---------------------------------------------------------------------------

_STANDARD_NORMAL = NormalDist()
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def normal_quantile(u: float) -> float:
    """Inverse cdf (Wichura's AS241 through ``statistics.NormalDist``)."""
    if not 0.0 < u < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return _STANDARD_NORMAL.inv_cdf(u)


def normal_quantile_grid(count: int) -> np.ndarray:
    """Quantiles at the midpoints (i - 0.5)/count, i = 1..count."""
    return np.array([normal_quantile((i + 0.5) / count) for i in range(count)])


_ALPHA_FLOOR = 1e-300   # pdf(q(a)) and a q(a) stay normal floats above it
_ALPHA_CEILING = 1.0 - 1e-12


def _tail_gap(alpha: float) -> float:
    """I_X(alpha) = pdf(q(alpha)) + alpha q(alpha) of a standard normal."""
    z = normal_quantile(alpha)
    return normal_pdf(z) + alpha * z


_GAP_FLOOR, _GAP_CEILING = _tail_gap(_ALPHA_FLOOR), _tail_gap(_ALPHA_CEILING)
_TAIL_X = 4.0           # roots with q(alpha) < -4 are polished in x = -q
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _mills_fraction(x: float) -> tuple[float, float]:
    """(D, K) from Laplace's continued fraction for the Mills ratio at
    x >= 4: D = x + 2/(x + 3/(x + ...)) and K = x + 1/D, so that
    Phi(-x) = pdf(x)/K and I(Phi(-x)) = pdf(x)/(D K), free of the
    cancellation in pdf(q) + alpha q.  Forty terms are exact to rounding
    there."""
    d = x
    for k in range(40, 1, -1):
        d = x + k / d
    return d, x + 1.0 / d


def _tail_root(b_over_sigma: float, x: float) -> float:
    """The root of I = b/sigma polished in x = -q from a start near it.

    log I(x) = -x^2/2 - log sqrt(2 pi) - log(D K) is concave and falls with
    slope -D (dI/dx = -alpha and alpha/I = D), so Newton steps after the
    first fall monotonically to the root.  The level is read off as
    alpha = (b/sigma) D, which carries only the rounding of D: neither the
    quantile nor exp(-x^2/2), whose exponent has rounding near 1e-13 at
    x = 37, enters it.
    """
    log_b = math.log(b_over_sigma)
    first = True
    while True:
        d, k = _mills_fraction(x)
        nxt = x + (-0.5 * x * x - _LOG_SQRT_2PI - math.log(d * k) - log_b) / d
        if not (first or nxt < x):
            return b_over_sigma * d
        first = False
        x = nxt


def normal_alpha_star(b_over_sigma: float) -> float:
    """Optimal level for a normal law: solves pdf(q(a)) + a q(a) = b/sigma.

    The left side is the tail-gap integral I_X(a) of a standard normal; it
    increases from 0 to infinity on (0, 1) with dI/d(log a) = a^2/pdf(q(a)).
    Newton runs on log I in u = log a, where it is convex (and nearly linear
    in the tail, I(a) ~ a/|q(a)|), so steps from a start above the root fall
    monotonically to it: from a = 1/2, where I = pdf(0), or from the ceiling
    1 - 1e-12.  A root with q(a) < -4 is then polished in x = -q by
    ``_tail_root``, since near 1e-300 the quantile and the cancellation in
    pdf(q) + a q cost about 3e-10 relative.  Returns 1.0 when no interior
    root exists below the ceiling; raises ValueError when the root lies
    below the floor 1e-300 (b/sigma below I(1e-300), about 2.7e-302), where
    pdf(q(a)) and a q(a) underflow.
    """
    if b_over_sigma <= 0:
        raise ValueError("b/sigma must be positive")
    if b_over_sigma >= _GAP_CEILING:
        return 1.0
    if b_over_sigma < _GAP_FLOOR:
        raise ValueError("b/sigma is below the range of the normal quantile")
    alpha = 0.5 if b_over_sigma < _INV_SQRT_2PI else _ALPHA_CEILING
    while True:
        z = normal_quantile(alpha)
        pdf = normal_pdf(z)
        gap = pdf + alpha * z
        # u -= (log I - log b) / (d log I/du), with d log I/du = a^2/(pdf I)
        step = math.log(gap / b_over_sigma) * (pdf / alpha) * (gap / alpha)
        nxt = max(alpha * math.exp(-step), _ALPHA_FLOOR)
        if not nxt < alpha:     # at the root up to rounding
            return _tail_root(b_over_sigma, -z) if z < -_TAIL_X else alpha
        alpha = nxt
