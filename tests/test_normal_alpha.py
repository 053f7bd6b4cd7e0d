"""normal_alpha_star's Newton steps against the bisection they replaced."""
import numpy as np
import pytest

from meanrisk import normal_alpha_star
from meanrisk.lses import normal_pdf, normal_quantile


def _bisected_alpha_star(b_over_sigma):
    """The former solver: 200 bisection steps on (1e-12, 1 - 1e-12)."""
    def lhs(alpha):
        z = normal_quantile(alpha)
        return normal_pdf(z) + alpha * z

    lo, hi = 1e-12, 1.0 - 1e-12
    if lhs(hi) <= b_over_sigma:
        return 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs(mid) < b_over_sigma:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def test_newton_matches_bisection():
    grid = np.concatenate([np.geomspace(1e-6, 0.39, 300),
                           np.linspace(0.01, 0.39, 100), [0.39894, 7.0, 50.0]])
    for ratio in grid:
        got = normal_alpha_star(ratio)
        assert abs(got - _bisected_alpha_star(ratio)) <= 1e-12, ratio
        if ratio < 0.4:     # at a root near 1 an ulp of alpha moves it
            z = normal_quantile(got)
            assert abs(normal_pdf(z) + got * z - ratio) <= 1e-14 * (
                1.0 + ratio), ratio


def test_roots_far_below_one_in_a_trillion():
    # the bracket's floor used to be 1e-12, so every b/sigma below about
    # 1.4e-13 = I(1e-12) returned about 1e-12
    ratios = np.geomspace(1e-100, 0.39, 400)
    alphas = np.array([normal_alpha_star(ratio) for ratio in ratios])
    for ratio, alpha in zip(ratios, alphas):
        z = normal_quantile(alpha)
        assert abs(normal_pdf(z) + alpha * z - ratio) <= 1e-9 * ratio, ratio
    assert np.all(np.diff(alphas) > 0)
    with pytest.raises(ValueError):
        normal_alpha_star(1e-305)      # root below the quantile's range
