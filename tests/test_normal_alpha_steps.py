"""How many quantile evaluations normal_alpha_star makes in the far tail."""
import numpy as np

import meanrisk.lses as lses


def test_far_tail_takes_few_quantile_evaluations(monkeypatch):
    # Newton runs on log I against log alpha, where the tail gap
    # I(a) ~ a/|q(a)| is nearly linear: at most 10 quantile evaluations per
    # root over [1e-100, 1e-6] (steps in alpha took 62 at 1e-100)
    calls = []
    inner = lses.normal_quantile

    def spy(u):
        calls.append(u)
        return inner(u)

    monkeypatch.setattr(lses, "normal_quantile", spy)
    counts = []
    for ratio in np.geomspace(1e-100, 1e-6, 400):
        del calls[:]
        alpha = lses.normal_alpha_star(ratio)
        z = inner(alpha)
        assert abs(lses.normal_pdf(z) + alpha * z - ratio) <= 1e-9 * ratio
        counts.append(len(calls))
    assert max(counts) <= 10, max(counts)
