"""Loss functions and target risk profiles.

``LossFunction`` covers continuous convex nondecreasing losses with l(0)=0:
piecewise-linear ones, stored as slopes and breakpoints and evaluated in the
hinge form l(y) = c0 + s0 y + sum_k d_k (y - b_k)^+ (``hinges``, which the
frontier's LPs read too), plus the analytic families exp (l(x)=e^x-1) and
power (l(x)=c*x^gamma for x>0, 0 otherwise; c x^+ has the hinge form).
The piecewise-linear and exp forms satisfy l(x) >= x and can be used with
every loss-based risk functional.  A power loss satisfies it only as c x^+
with c >= 1, the one power loss the optimized certainty equivalent takes;
the others meet the relaxed shortfall conditions (l nondecreasing, convex,
l(0)=0, l(x)>0 for x>0).

``TargetProfile`` represents nonincreasing g:(0,1] -> [0,inf] with g(1)=0
as pieces that are constant, affine in 1/x, or general callables, together
with beta = inf dom g and a boundedness flag.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_LOSS_TOL = 1e-12


# ---------------------------------------------------------------------------
# Loss functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossFunction:
    kind: str                           # "pwl" | "exp" | "power"
    slopes: tuple = ()                  # pwl: len(slopes) == len(breakpoints)+1
    breakpoints: tuple = ()
    coef: float = 1.0                   # power: c
    exponent: float = 2.0               # power: gamma

    def __post_init__(self):
        if self.kind == "pwl":
            s = tuple(float(v) for v in self.slopes)
            b = tuple(float(v) for v in self.breakpoints)
            if len(s) != len(b) + 1 or not s:
                raise ValueError("pwl loss needs k+1 slopes for k breakpoints")
            if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
                raise ValueError("breakpoints must be strictly increasing")
            if any(s[i] > s[i + 1] + _LOSS_TOL for i in range(len(s) - 1)):
                raise ValueError("slopes must be nondecreasing (convexity)")
            if s[0] < -_LOSS_TOL:
                raise ValueError("loss must be nondecreasing")
            if s[-1] < 1.0 - 1e-9:
                raise ValueError("l(x) >= x fails for large x (last slope < 1)")
            if s[0] > 1.0 + 1e-9:
                raise ValueError("l(x) >= x fails for very negative x (first slope > 1)")
            object.__setattr__(self, "slopes", s)
            object.__setattr__(self, "breakpoints", b)
            for x, v in zip(b, self.value(b)):
                if v < x - 1e-9:
                    raise ValueError(f"l(x) >= x fails at breakpoint {x}")
        elif self.kind == "exp":
            pass
        elif self.kind == "power":
            if self.coef <= 0 or self.exponent < 1.0:
                raise ValueError("power loss needs c > 0 and gamma >= 1")
        else:
            raise ValueError(f"unknown loss kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def pwl(cls, slopes, breakpoints) -> "LossFunction":
        return cls("pwl", tuple(slopes), tuple(breakpoints))

    @classmethod
    def identity(cls) -> "LossFunction":
        return cls("pwl", (1.0,), ())

    @classmethod
    def cvar_generator(cls, alpha: float) -> "LossFunction":
        """l(x) = x^+ / alpha; plugging it into the OCE yields ES at level alpha."""
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        return cls("pwl", (0.0, 1.0 / alpha), (0.0,))

    @classmethod
    def exp(cls) -> "LossFunction":
        return cls("exp")

    @classmethod
    def power(cls, coef: float, exponent: float) -> "LossFunction":
        return cls("power", coef=float(coef), exponent=float(exponent))

    # -- asymptotic slopes ---------------------------------------------------

    @property
    def a_l(self) -> float:
        """lim_{x->-inf} l(x)/x."""
        if self.kind == "pwl":
            return self.slopes[0]
        return 0.0  # exp and power are flat to the left

    @property
    def b_l(self) -> float:
        """lim_{x->+inf} l(x)/x (possibly inf)."""
        if self.kind == "pwl":
            return self.slopes[-1]
        if self.kind == "power" and self.exponent == 1.0:
            return self.coef            # c x^+
        return math.inf

    @property
    def satisfies_l_geq_x(self) -> bool:
        if self.kind == "power":
            return self.exponent == 1.0 and self.coef >= 1.0
        return True

    @property
    def zero_on_negatives(self) -> bool:
        """True when l vanishes on (-inf, 0] (then the shortfall risk is WC)."""
        if self.hinges is None:
            return self.kind == "power"
        # l(y) = c0 + s0 y left of every kink, and c0 <= 0
        c0, s0, _, _ = self.hinges
        return s0 <= _LOSS_TOL and c0 >= -_LOSS_TOL

    @property
    def positively_homogeneous(self) -> bool:
        """True when l(lam x) = lam l(x) for lam > 0: pwl with kinks at 0
        only, and c x^+ (power with exponent 1)."""
        if self.kind == "power":
            return self.exponent == 1.0
        return self.kind == "pwl" and all(bk == 0.0 for bk in self.breakpoints)

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def hinges(self):
        """(c0, s0, kinks, jumps) with l(y) = c0 + s0 y + sum_k d_k (y - b_k)^+
        for a pwl loss and for c y^+ (slopes (0, c) kinked at 0); None for
        exp and c y^gamma with gamma > 1.  The kinks b_k are the breakpoints
        where the slope rises, by d_k > 0; l(0) = 0 fixes c0 = -sum_k d_k
        (-b_k)^+.  The arrays are shared by every caller, so read-only."""
        if self.kind == "pwl":
            slopes, breakpoints = self.slopes, self.breakpoints
        elif self.kind == "power" and self.exponent == 1.0:
            slopes, breakpoints = (0.0, self.coef), (0.0,)
        else:
            return None
        jumps = np.diff(slopes)
        keep = jumps > 0.0                # a flat breakpoint is no kink
        kinks, jumps = np.asarray(breakpoints, dtype=float)[keep], jumps[keep]
        kinks.flags.writeable = jumps.flags.writeable = False
        return (-float(jumps @ np.maximum(-kinks, 0.0)), slopes[0], kinks,
                jumps)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.hinges is not None:
            # c0 + sum_k d_k (y - b_k)^+ as the sum of the terms
            # d_k ((y - b_k)^+ - (-b_k)^+) = d_k (max(y, b_k) - b_k^+), each
            # exactly 0 at y = 0
            _, s0, kinks, jumps = self.hinges
            out = s0 * x
            for b, d in zip(kinks, jumps):
                out = out + d * (np.maximum(x, b) - max(b, 0.0))
        elif self.kind == "exp":
            with np.errstate(over="ignore"):
                out = np.expm1(x)       # inf is the intended extended value
        else:
            out = np.where(x > 0, self.coef * np.power(np.maximum(x, 0.0),
                                                       self.exponent), 0.0)
        return out if np.ndim(out) else float(out)

    def derivative(self, x):
        """The left derivative of a pwl loss (its slope left of each kink)."""
        if self.kind != "pwl":
            raise ValueError("derivatives are taken of pwl losses only")
        idx = np.searchsorted(np.asarray(self.breakpoints), x, side="left")
        out = np.asarray(self.slopes, dtype=float)[idx]
        return out if np.ndim(out) else float(out)

    # -- convex conjugate ----------------------------------------------------

    def conjugate_value(self, z):
        """l*(z) = sup_x {z x - l(x)} on its effective domain [a_l, b_l]."""
        z = np.asarray(z, dtype=float)
        if self.kind == "exp":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(z > 0, z * np.log(np.maximum(z, 1e-300)) - z + 1.0, 1.0)
            out = np.where(z < 0, np.inf, out)
        elif self.kind == "power":
            g = self.exponent
            if g == 1.0:
                out = np.where((z >= 0) & (z <= self.coef), 0.0, np.inf)
            else:
                base = np.maximum(z, 0.0) / (self.coef * g)
                out = (g - 1.0) / g * np.maximum(z, 0.0) * base ** (1.0 / (g - 1.0))
                out = np.where(z < 0, np.inf, out)
        else:
            cuts = self.conjugate_cuts()
            vals = np.stack([a * z + b for a, b in cuts])
            out = vals.max(axis=0)
            out = np.where((z < self.a_l - 1e-12) | (z > self.b_l + 1e-12),
                           np.inf, out)
        return out if np.ndim(out) else float(out)

    def conjugate_cuts(self) -> list[tuple[float, float]]:
        """Supporting lines of l*: l*(z) = max_k (A_k z + B_k) on [a_l, b_l].

        Exact for pwl losses (one cut per breakpoint of l plus the anchor at
        0).
        """
        if self.kind != "pwl":
            raise ValueError("exact conjugate cuts exist only for pwl losses")
        b = self.breakpoints
        cuts = [(x, -float(v)) for x, v in zip(b, self.value(b))]
        return sorted(set([(0.0, 0.0)] + cuts))


# ---------------------------------------------------------------------------
# Target profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GPiece:
    """g on [lo, hi): constant a, affine a + b/x, or a general callable."""

    lo: float
    hi: float
    kind: str          # "const" | "invlin" | "general"
    a: float = 0.0
    b: float = 0.0
    fn: object = None

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            out = np.full_like(x, self.a, dtype=float)
        elif self.kind == "invlin":
            with np.errstate(divide="ignore"):
                out = self.a + self.b / x
        else:
            out = np.asarray(self.fn(x), dtype=float)
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class TargetProfile:
    """Nonincreasing g:(0,1] -> [0,inf] with g(1)=0; +inf below beta."""

    pieces: tuple
    beta: float
    unbounded_near_beta: bool   # lim_{x -> beta+} g(x) = inf
    tail_coeff: float = 0.0     # liminf_{x->0+} x g(x) when beta == 0

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if not self.pieces:
            raise ValueError("profile needs at least one piece")

    @property
    def bounded_on_domain(self) -> bool:
        return not self.unbounded_near_beta

    @property
    def vanishes_on_domain(self) -> bool:
        """True when g == 0 on [beta, 1] (the step and zero profiles)."""
        return self.bounded_on_domain and all(
            pc.kind != "general" and pc.a == 0.0 and pc.b == 0.0
            for pc in self.pieces)

    def affine_pieces(self):
        """(lo, hi, a, b) per piece g = a + b/x (b = 0 for a constant piece),
        clipped to [beta, 1] with empty pieces dropped; None when a piece is
        general."""
        if any(pc.kind == "general" for pc in self.pieces):
            return None
        pieces = []
        for pc in self.pieces:
            lo, hi = max(pc.lo, self.beta), min(pc.hi, 1.0)
            if hi > lo:
                pieces.append((lo, hi, pc.a,
                               pc.b if pc.kind == "invlin" else 0.0))
        return pieces

    def value(self, x):
        # a 1e-12 band at beta absorbs round trips like 1/(1/beta); the
        # pieces are called only where g is finite, so never at a pole
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, np.inf)
        btol = 1e-12
        finite = x >= self.beta - btol
        if self.unbounded_near_beta:
            finite &= x > self.beta + btol
        last = len(self.pieces) - 1
        for i, pc in enumerate(self.pieces):
            lo = pc.lo - btol if i == 0 else pc.lo
            if i == last:
                mask = finite & (x >= lo) & (x <= pc.hi + 1e-15)
            else:
                mask = finite & (x >= lo) & (x < pc.hi)
            if mask.any():
                out[mask] = pc.value(x[mask])
        return out if out.ndim else float(out)

    def suitable_tail_growth(self) -> bool:
        """True when g(x) >= a + b/x near 0 for some b > 0 (beta == 0 only)."""
        return self.beta == 0.0 and self.tail_coeff > 0.0


def lses_profile(b: float) -> TargetProfile:
    """g(x) = b (1/x - 1); the profile behind loss sensitive expected shortfall."""
    if b <= 0:
        raise ValueError("sensitivity b must be positive")
    piece = GPiece(0.0, 1.0, "invlin", a=-b, b=b)
    return TargetProfile((piece,), 0.0, True, tail_coeff=b)


def step_profile(alpha0: float) -> TargetProfile:
    """g = 0 on [alpha0, 1] and +inf below; the adjusted ES is ES at alpha0."""
    if not 0 < alpha0 <= 1:
        raise ValueError("alpha0 must lie in (0, 1]")
    if alpha0 == 1.0:
        return zero_profile()
    piece = GPiece(alpha0, 1.0, "const", a=0.0)
    return TargetProfile((piece,), alpha0, False)


def zero_profile() -> TargetProfile:
    """g == 0 on (0, 1]; the adjusted ES becomes the worst case measure."""
    return TargetProfile((GPiece(0.0, 1.0, "const", a=0.0),), 0.0, False)


def table_profile(nodes: list[tuple[float, float]]) -> TargetProfile:
    """Piecewise profile through (x_k, g_k) nodes, affine in 1/x between them.

    Nodes must be sorted by x ascending with the last node (1, 0).  Below the
    smallest node x the profile is +inf when that node's x is positive (beta
    = x_min); a node at x ~ 0 is not allowed, use an explicit first segment.
    """
    nodes = sorted((float(x), float(g)) for x, g in nodes)
    if not nodes or abs(nodes[-1][0] - 1.0) > 1e-12 or abs(nodes[-1][1]) > 1e-12:
        raise ValueError("table profiles must end at the node (1, 0)")
    if nodes[0][0] <= 0:
        raise ValueError("table nodes need x > 0")
    for (x0, g0), (x1, g1) in zip(nodes, nodes[1:]):
        if g1 > g0 + 1e-12:
            raise ValueError("profile values must be nonincreasing in x")
    pieces = []
    for (x0, g0), (x1, g1) in zip(nodes, nodes[1:]):
        # solve g = a + b/x through both nodes
        b = (g0 - g1) / (1.0 / x0 - 1.0 / x1) if x0 != x1 else 0.0
        a = g1 - b / x1
        pieces.append(GPiece(x0, x1, "invlin", a=a, b=b))
    beta = nodes[0][0]
    return TargetProfile(tuple(pieces), beta, False)


def bounded_tail_profile(cap: float, slope: float) -> TargetProfile:
    """g(x) = min(cap, slope*(1/x - 1)): in G_0 and bounded on (0, 1]."""
    if cap <= 0 or slope <= 0:
        raise ValueError("cap and slope must be positive")
    xc = slope / (cap + slope)  # where slope*(1/x-1) reaches cap
    pieces = (
        GPiece(0.0, xc, "const", a=cap),
        GPiece(xc, 1.0, "invlin", a=-slope, b=slope),
    )
    return TargetProfile(pieces, 0.0, False)


def general_profile(fn, beta: float, unbounded_near_beta: bool,
                    tail_coeff: float = 0.0,
                    breaks: tuple[float, ...] = ()) -> TargetProfile:
    """Wrap a callable profile; ``breaks`` lists interior non-smooth points."""
    xs = sorted(set([beta, *breaks, 1.0]))
    pieces = tuple(GPiece(lo, hi, "general", fn=fn)
                   for lo, hi in zip(xs, xs[1:]))
    return TargetProfile(pieces, beta, unbounded_near_beta, tail_coeff)
