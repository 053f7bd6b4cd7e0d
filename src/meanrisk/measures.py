"""Risk-measure families on finite spaces and their axiom/sensitivity tests.

Quantile conventions follow the displayed infimum

    VaR_a(X) = inf{m : P[m + X < 0] <= a},

evaluated exactly on the step cdf of the sorted atoms, and expected
shortfall is the closed-form integral of the quantile function (never Monte
Carlo).  On each interval (F_{j-1}, F_j] of cumulative probabilities the map
a -> ES_a(X) equals -v_j + J_j / a with J_j = sum_{i<j} p_i (v_j - v_i),
which makes exact piecewise maximisation possible for the adjusted expected
shortfall families.

Every evaluator is continuous on the finite-dimensional outcome space, so
the Fatou property holds by construction and is not tested separately.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .losses import LossFunction, TargetProfile
from .market import FiniteSpace, RandVar

QTOL = 1e-12          # quantile breakpoint tolerance
ARG_TOL = 1e-10       # golden-section tolerance on arguments

FAMILIES = ("var", "es", "wc", "lses", "adjes", "ew", "sr", "oce", "eloss")


# ---------------------------------------------------------------------------
# Quantile machinery
# ---------------------------------------------------------------------------

def ascending(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, x[order]) with x[order] ascending, ties in index order.

    numpy's default sort (a SIMD quicksort where available) is several
    times faster than the stable one at a few thousand atoms, but it
    orders equal values arbitrarily.  When the sorted values are strictly
    increasing the ascending permutation is unique, so both sorts return
    it; otherwise (ties, a -0.0 beside a 0.0, or a NaN, which compares
    false) the stable sort is redone.
    """
    order = np.argsort(x)
    v = x[order]
    if not (v[1:] > v[:-1]).all():
        order = np.argsort(x, kind="stable")
        v = x[order]
    return order, v


def sorted_atoms(X: RandVar):
    """Values sorted ascending with matching probabilities and cumulative sums.

    Equal values keep their atom order (a stable sort), so (v, p, cum) is
    a function of X alone; ``ascending`` sorts fast where that order is
    unique anyway.
    """
    order, v = ascending(X.values)
    p = X.space.probs[order]
    cum = np.cumsum(p)
    cum[-1] = 1.0
    return v, p, cum


def quantile_pieces(X: RandVar):
    """(v, p, cum, J): ES_a(X) = -v[j] + J[j]/a for a in (cum[j-1], cum[j]].

    J[j] = sum_{i<j} p_i (v_j - v_i) is also the value of the tail-gap
    integral I_X on the open interval (cum[j-1], cum[j]).  (v, p, cum) is
    ``sorted_atoms(X)``, so ``var_sorted`` and ``es_sorted`` read exact
    quantiles off the same table.
    """
    v, p, cum = sorted_atoms(X)
    prefix = np.cumsum(p * v)
    prev_cum = np.concatenate([[0.0], cum[:-1]])
    prev_prefix = np.concatenate([[0.0], prefix[:-1]])
    J = prev_cum * v - prev_prefix
    return v, p, cum, J


def es_curve(alpha, v, cum, J):
    """Vectorised exact ES over an array of levels in (0, 1]."""
    alpha = np.asarray(alpha, dtype=float)
    idx = np.minimum(np.searchsorted(cum, alpha - 1e-15, side="left"),
                     len(v) - 1)
    return -v[idx] + J[idx] / alpha


def var_sorted(v: np.ndarray, cum: np.ndarray, alpha: float) -> float:
    """``var`` at level alpha on the table (v, cum) of ``sorted_atoms``."""
    k = int(np.searchsorted(cum, alpha + QTOL, side="right"))
    k = min(k, len(v) - 1)
    return -float(v[k])


def es_sorted(v: np.ndarray, p: np.ndarray, cum: np.ndarray,
              alpha: float) -> float:
    """``es`` at level alpha on the table (v, p, cum) of ``sorted_atoms``."""
    m = int(np.searchsorted(cum, alpha + QTOL, side="right"))
    acc = -float(p[:m] @ v[:m])
    if m < len(v):
        frac = alpha - (cum[m - 1] if m > 0 else 0.0)
        if frac > 0:
            acc -= frac * float(v[m])
    return acc / alpha


def var(X: RandVar, alpha: float) -> float:
    """Value at risk from the displayed infimum on the step cdf."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    v, _, cum = sorted_atoms(X)
    return var_sorted(v, cum, alpha)


def es(X: RandVar, alpha: float) -> float:
    """Expected shortfall: (1/a) * integral of VaR_u over (0, a]."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    return es_sorted(*sorted_atoms(X), alpha)


def worst_case(X: RandVar) -> float:
    return -float(np.min(X.values))


def expected_loss(X: RandVar) -> float:
    return -X.mean()


# ---------------------------------------------------------------------------
# Loss-based families
# ---------------------------------------------------------------------------

def expected_weighted_loss(X: RandVar, loss: LossFunction) -> float:
    return float(X.space.probs @ loss.value(-X.values))


def _entropic(p: np.ndarray, x: np.ndarray):
    """log E[exp(-x)] under the probabilities p: the entropic risk of x, or
    of each column of an (n, K) array x.

    Computed as t + log1p(E[expm1(-x - t)]) with t = max(-x), which keeps
    the digits of a tiny spread of x that log(E[exp(-x - t)]) rounds away
    near 1.  Once that mean falls to 1/2 or below, log1p would amplify the
    rounding of E[expm1] instead, and the direct sum is exact to rounding.
    """
    y = -np.asarray(x, dtype=float)
    t = y.max(axis=0)
    y -= t
    s = p @ np.expm1(y)
    if y.ndim == 1:
        return float(t) + (math.log1p(s) if s > -0.5
                           else math.log(float(p @ np.exp(y))))
    out = np.log1p(s)
    far = s <= -0.5
    out[far] = np.log(p @ np.exp(y[:, far]))
    return t + out


def shortfall_risk(X: RandVar, loss: LossFunction) -> float:
    """Smallest m with E[l(-X-m)] <= 0; the worst case when l|_(-inf,0] == 0.

    The exp loss has the closed form m = log E[exp(-X)], the entropic risk
    (Foellmer and Schied).  For a pwl loss phi(m) = E[l(-X-m)] is
    nonincreasing and affine between the sorted kinks -x_i - b_k, so a
    binary search finds the first kink with phi <= 0 in O(log(nk))
    evaluations of phi, and the root is the linear interpolation from the
    kink before it.
    """
    if loss.zero_on_negatives:
        return worst_case(X)
    p = X.space.probs
    if loss.kind == "exp":
        return _entropic(p, X.values)

    def phi(m: float) -> float:
        return float(p @ loss.value(-X.values - m))

    kinks = np.unique(-X.values[:, None] - np.asarray(loss.breakpoints))
    if not kinks.size:
        kinks = np.zeros(1)
    lo, hi = 0, kinks.size - 1
    f0, f1 = phi(kinks[lo]), phi(kinks[hi])
    if f0 <= 0.0:
        # root lies left of every kink, where phi has slope -b_l
        return kinks[0] + f0 / loss.b_l
    if f1 > 0.0:
        # beyond the last kink phi equals the (negative) left plateau of l
        tail = phi(kinks[-1] + 1.0)
        if tail < 0.0:
            slope = (tail - f1) / 1.0
            return kinks[-1] + f1 / (-slope)
        raise ValueError(  # pragma: no cover
            "shortfall risk is not finite for this loss")
    while hi - lo > 1:           # phi(kinks[lo]) > 0 >= phi(kinks[hi])
        mid = (lo + hi) // 2
        fm = phi(kinks[mid])
        if fm <= 0.0:
            hi, f1 = mid, fm
        else:
            lo, f0 = mid, fm
    return kinks[lo] + f0 * (kinks[hi] - kinks[lo]) / (f0 - f1)


def oce(X: RandVar, loss: LossFunction) -> float:
    """inf_eta E[l(eta - X)] - eta (optimised certainty equivalent).

    The exp loss gives the entropic risk log E[exp(-X)], and c y^+ with
    c > 1 gives ES at level 1/c (Ben-Tal and Teboulle 2007); no other power
    loss satisfies l(x) >= x.  A pwl loss puts the infimum at a kink
    x_i + b_k, found by a binary search for the sign change of the slope
    over the sorted kinks: O(log(nk)) slope evaluations and two objective
    evaluations.
    """
    if not loss.satisfies_l_geq_x:
        raise ValueError("the certainty-equivalent family needs l(x) >= x")
    a, b = loss.a_l, loss.b_l
    if abs(a - 1.0) < 1e-12 or abs(b - 1.0) < 1e-12:
        # l equals the identity on a half line; the infimum is the expected loss
        return expected_loss(X)
    p = X.space.probs
    if loss.kind == "exp":
        return _entropic(p, X.values)
    if loss.kind == "power":
        return es(X, 1.0 / loss.coef)

    def objective(eta: float) -> float:
        return float(p @ loss.value(eta - X.values)) - eta

    # the objective is convex and affine between the sorted kinks.  Its
    # left slope E[l'(eta - X)] - 1 is nondecreasing in eta in floating
    # point too, which objective values are not: two kinks an ulp apart
    # compare by rounding noise.  The argmin lies between the last kink
    # with left slope <= 0 and the first one with left slope > 0.
    etas = np.unique(X.values[:, None] + np.asarray(loss.breakpoints))
    lo = bisect.bisect_left(range(etas.size), True, key=lambda k: float(
        p @ loss.derivative(etas[k] - X.values)) > 1.0)
    return min(objective(e) for e in etas[max(lo - 1, 0):lo + 1])


# ---------------------------------------------------------------------------
# Adjusted expected shortfall
# ---------------------------------------------------------------------------

def golden_min(f, lo: float, hi: float, rel_tol: float) -> float:
    """Midpoint of the golden-section bracket of a unimodal f on [lo, hi],
    shrunk until b - a < rel_tol * max(1, |a|, |b|); maximisers pass -f."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(300):
        if b - a < rel_tol * max(1.0, abs(a), abs(b)):
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


def adjusted_es(X: RandVar, profile: TargetProfile) -> float:
    """sup over levels of ES_a(X) - g(a) via exact per-piece maximisation.

    Constant and affine-in-1/x profile pieces make ES - g monotone between
    breakpoints, so interval endpoints are exhaustive; general pieces fall
    back to a breakpoint grid plus golden-section refinement.
    """
    return adjusted_es_argmax(X, profile)[0]


def adjusted_es_argmax(X: RandVar, profile: TargetProfile) -> tuple[float, float]:
    """(value, maximising level) of the adjusted expected shortfall."""
    v, p, cum, J = quantile_pieces(X)

    def h_at(alpha: np.ndarray, gpiece) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return es_curve(alpha, v, cum, J) - gpiece.value(alpha)

    best, best_alpha = -math.inf, 1.0
    for pc in profile.pieces:
        lo = max(pc.lo, profile.beta, 1e-300)
        hi = min(pc.hi, 1.0)
        if hi <= lo:
            continue
        inside = cum[(cum > lo) & (cum < hi)]
        cand = np.unique(np.concatenate([[lo, hi], inside]))
        if pc.kind == "general":
            grid = np.linspace(lo, hi, 65)
            cand = np.unique(np.concatenate([cand, grid]))
        vals = h_at(cand, pc)
        vals = np.where(np.isnan(vals), -np.inf, vals)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_alpha = float(vals[k]), float(cand[k])
        if pc.kind == "general" and cand.size > 1:
            def neg_h(t, pc=pc):
                return -float(h_at(np.asarray([t]), pc)[0])
            top = np.argsort(vals)[-3:]
            for i in top:
                a = cand[max(int(i) - 1, 0)]
                b = cand[min(int(i) + 1, cand.size - 1)]
                if b > a:
                    xg = golden_min(neg_h, a, b, ARG_TOL)
                    fg = -neg_h(xg)
                    if fg > best:
                        best, best_alpha = fg, xg
    return best, best_alpha


# ---------------------------------------------------------------------------
# Family descriptor and dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskSpec:
    """Tagged description of one risk-measure family with its parameters."""

    family: str
    alpha: float | None = None
    b: float | None = None
    loss: LossFunction | None = None
    profile: TargetProfile | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("var", "es"):
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError("var/es need a level in (0, 1)")
        elif self.family == "lses":
            if self.b is None or self.b <= 0:
                raise ValueError("lses needs a sensitivity b > 0")
        elif self.family == "adjes":
            if self.profile is None:
                raise ValueError("adjes needs a target profile")
        elif self.family in ("ew", "sr", "oce"):
            if self.loss is None:
                raise ValueError(f"{self.family} needs a loss function")
            if self.family == "oce" and not self.loss.satisfies_l_geq_x:
                raise ValueError("oce needs l(x) >= x")

    # -- constructors --------------------------------------------------------

    @classmethod
    def es_at(cls, alpha: float) -> "RiskSpec":
        return cls("es", alpha=alpha)

    @classmethod
    def var_at(cls, alpha: float) -> "RiskSpec":
        return cls("var", alpha=alpha)

    @classmethod
    def wc(cls) -> "RiskSpec":
        return cls("wc")

    @classmethod
    def lses_at(cls, b: float) -> "RiskSpec":
        return cls("lses", b=b)

    @classmethod
    def adjusted(cls, profile: TargetProfile) -> "RiskSpec":
        return cls("adjes", profile=profile)

    @classmethod
    def ew_with(cls, loss: LossFunction) -> "RiskSpec":
        return cls("ew", loss=loss)

    @classmethod
    def sr_with(cls, loss: LossFunction) -> "RiskSpec":
        return cls("sr", loss=loss)

    @classmethod
    def oce_with(cls, loss: LossFunction) -> "RiskSpec":
        return cls("oce", loss=loss)

    @classmethod
    def expected_loss(cls) -> "RiskSpec":
        return cls("eloss")

    @property
    def cash_invariant(self) -> bool:
        return self.family != "ew"

    @property
    def convex(self) -> bool:
        return self.family != "var"

    @property
    def positively_homogeneous(self) -> bool:
        """rho(lam X) = lam rho(X) for lam > 0, read off the parameters."""
        fam = self.family
        if fam in ("var", "es", "wc", "eloss"):
            return True
        if fam == "adjes":
            return self.profile.vanishes_on_domain
        if fam in ("ew", "sr", "oce"):
            return (self.loss.positively_homogeneous
                    or (fam == "sr" and self.loss.zero_on_negatives))
        return False

    def label(self) -> str:
        if self.family in ("var", "es"):
            return f"{self.family}:{self.alpha:g}"
        if self.family == "lses":
            return f"lses:{self.b:g}"
        if self.family == "adjes":
            return "adjes:g=<profile>"
        if self.family in ("ew", "sr", "oce"):
            return f"{self.family}:l={self.loss.kind}"
        return self.family


def evaluate(spec: RiskSpec, X: RandVar) -> float:
    """Evaluate the family on X; +inf propagates as the float sentinel."""
    if spec.family == "var":
        return var(X, spec.alpha)
    if spec.family == "es":
        return es(X, spec.alpha)
    if spec.family == "wc":
        return worst_case(X)
    if spec.family == "eloss":
        return expected_loss(X)
    if spec.family == "lses":
        from . import lses as _lses
        return _lses.evaluate(X, spec.b).value
    if spec.family == "adjes":
        return adjusted_es(X, spec.profile)
    if spec.family == "ew":
        return expected_weighted_loss(X, spec.loss)
    if spec.family == "sr":
        return shortfall_risk(X, spec.loss)
    if spec.family == "oce":
        return oce(X, spec.loss)
    raise ValueError(f"unknown family {spec.family!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Sensitivity classification (analytic, per family)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityProfile:
    weak: bool
    strong: bool
    suitable_risk_management: bool
    suitable_portfolio_selection: bool


def classify_sensitivity(spec: RiskSpec) -> SensitivityProfile:
    """Analytic weak/strong sensitivity and suitability classification.

    Verdicts are stated for the natural ambient space of each family (L^1 or
    the Orlicz heart of the loss), not for the finite sample space at hand.
    """
    fam = spec.family
    if fam == "var" or fam == "eloss":
        return SensitivityProfile(False, False, False, False)
    if fam == "es":
        return SensitivityProfile(True, False, False, False)
    if fam == "wc":
        # strongly sensitive; too conservative to stay finite beyond L^inf
        return SensitivityProfile(True, True, True, False)
    if fam == "lses":
        return SensitivityProfile(True, True, True, True)
    if fam == "adjes":
        g = spec.profile
        strong = g.beta == 0.0
        return SensitivityProfile(True, strong, strong,
                                  strong and g.suitable_tail_growth())
    loss = spec.loss
    a, b = loss.a_l, loss.b_l
    identity = abs(a - 1.0) < 1e-12 and abs(b - 1.0) < 1e-12
    if fam == "ew":
        strong = b == math.inf or a == 0.0
        return SensitivityProfile(not identity, strong, strong, strong)
    if fam == "sr":
        if loss.zero_on_negatives:
            return SensitivityProfile(True, True, True, False)
        strong = b == math.inf or a == 0.0
        return SensitivityProfile(not identity, strong, strong, strong)
    if fam == "oce":
        weak = a < 1.0 - 1e-12 and b > 1.0 + 1e-12
        strong = b == math.inf and a == 0.0
        return SensitivityProfile(weak, strong, strong, strong)
    raise ValueError(f"unknown family {fam!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Randomised axiom probing
# ---------------------------------------------------------------------------

@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: dict | None = None


@dataclass
class AxiomReport:
    trials: int
    seed: int
    checks: dict = field(default_factory=dict)

    def passed(self, name: str) -> bool:
        return self.checks[name].passed

    def witness(self, name: str):
        return self.checks[name].witness


_STAR_LAMBDAS = (1.0, 1.5, 2.0, 10.0)
_PH_LAMBDAS = (0.5, 2.0)


def axiom_probe(spec: RiskSpec, space: FiniteSpace, trials: int = 1000,
                seed: int = 0) -> AxiomReport:
    """Randomised monotonicity/normalisation/star-shapedness/cash/convexity/
    positive-homogeneity testing with a concrete witness on each failure."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    report = AxiomReport(trials=trials, seed=seed)

    def rho(values) -> float:
        return evaluate(spec, RandVar(space, values))

    def tol(*vals) -> float:
        scale = max([1.0] + [abs(t) for t in vals if math.isfinite(t)])
        return 1e-9 * scale

    failures: dict[str, dict] = {}
    zero = rho(np.zeros(space.n))
    if abs(zero) > 1e-9:
        failures["normalisation"] = {"rho_zero": zero}

    names = ("monotonicity", "normalisation", "star_shapedness",
             "cash_invariance", "convexity", "positive_homogeneity")
    for _ in range(trials):
        scale = float(rng.choice([0.5, 1.0, 3.0]))
        x = rng.normal(0.0, scale, space.n)
        y = rng.normal(0.0, scale, space.n)
        rx, ry = rho(x), rho(y)

        if "monotonicity" not in failures:
            upper = x + np.abs(rng.normal(0.0, scale, space.n))
            ru = rho(upper)
            if ru > rx + tol(rx, ru):
                failures["monotonicity"] = {"x": x, "y": upper,
                                            "rho_x": rx, "rho_y": ru}
        if "star_shapedness" not in failures:
            for lam in _STAR_LAMBDAS:
                rl = rho(lam * x)
                if rl < lam * rx - tol(rl, lam * rx):
                    failures["star_shapedness"] = {"x": x, "lambda": lam,
                                                   "rho_lx": rl, "rho_x": rx}
                    break
        if "cash_invariance" not in failures:
            c = float(rng.uniform(-2.0, 2.0))
            rc = rho(x + c)
            if abs(rc - (rx - c)) > tol(rc, rx):
                failures["cash_invariance"] = {"x": x, "c": c,
                                               "rho_shifted": rc, "rho_x": rx}
        if "convexity" not in failures:
            rm = rho(0.5 * (x + y))
            bound = 0.5 * (rx + ry)
            if rm > bound + tol(rm, bound):
                failures["convexity"] = {"x": x, "y": y,
                                         "rho_mid": rm, "bound": bound}
        if "positive_homogeneity" not in failures:
            for lam in _PH_LAMBDAS:
                rl = rho(lam * x)
                if abs(rl - lam * rx) > tol(rl, lam * rx):
                    failures["positive_homogeneity"] = {
                        "x": x, "lambda": lam, "rho_lx": rl,
                        "lam_rho_x": lam * rx}
                    break

    for name in names:
        report.checks[name] = AxiomCheck(name, name not in failures,
                                         failures.get(name))
    return report


# ---------------------------------------------------------------------------
# Numeric sensitivity probe (advisory)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityProbe:
    positive_risk_found: bool
    lambda_star: float | None
    note: str


def numeric_sensitivity_probe(spec: RiskSpec, X: RandVar,
                              lambda_max: float = 2.0 ** 20) -> SensitivityProbe:
    """Scan rho(lambda X) over a geometric ladder; advisory only.

    A "no" outcome never refutes sensitivity (the witness lambda may simply
    exceed the ladder); classification truth comes from the analytic rules.
    """
    if float(np.min(X.values)) >= 0.0:
        raise ValueError("probe needs P[X < 0] > 0")
    lam = 1.0
    while lam <= lambda_max:
        value = evaluate(spec, X.scaled(lam))
        if value > 1e-9:
            return SensitivityProbe(True, lam, "positive risk reached")
        lam *= 2.0
    return SensitivityProbe(False, None,
                            "no positive risk up to lambda_max; evidence only")
