"""Loss functions: the hinge form of piecewise-linear losses."""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanrisk import LossFunction
from meanrisk.losses import _LOSS_TOL

EPS = np.finfo(float).eps


@st.composite
def pwl_cases(draw):
    """(slopes, breakpoints, xs): 0-4 breakpoints on each side of 0, maybe
    one at 0, each flat, falling by at most _LOSS_TOL or rising; slopes at
    most 1 left of 0, 1 on a piece across 0 and at least 1 right of it."""
    coord = st.floats(0.01, 4.0)
    left = sorted({-v for v in draw(st.lists(coord, max_size=4))})
    right = sorted(set(draw(st.lists(coord, max_size=4))))
    bps = left + [0.0] * draw(st.booleans()) + right
    across = not bps or bps[0] > 0.0      # the first piece holds 0
    slopes = [1.0 if across else draw(st.sampled_from([0.0, 0.5])
                                      | st.floats(0.0, 1.0))]
    for k, b in enumerate(bps):
        prev, hi = slopes[-1], (bps + [math.inf])[k + 1]
        step = draw(st.sampled_from(["flat", "fall", "rise"]))
        if b < 0.0 < hi:                  # the piece across 0
            slopes.append(max(prev, 1.0))
        elif step == "rise" or b >= 0.0 and prev < 1.0:
            slopes.append(draw(st.floats(prev, 1.0)) if hi <= 0.0
                          else draw(st.floats(max(prev, 1.0), 5.0)))
        elif step == "flat":
            slopes.append(prev)
        else:
            slopes.append(prev - draw(st.floats(0.0, _LOSS_TOL)))
    xs = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
    return slopes, bps, xs + bps + [0.0]


def integrated(slopes, bps, x):
    """l(x) from l(0) = 0, the slopes integrated segment by segment; a
    breakpoint whose slope falls (by at most _LOSS_TOL) is flat, and the
    rises after it add to the slope it keeps."""
    eff = [slopes[0]]
    for lo, hi in zip(slopes, slopes[1:]):
        eff.append(eff[-1] + max(hi - lo, 0.0))
    edges = [-math.inf] + list(bps) + [math.inf]
    total = 0.0
    for s, a, b in zip(eff, edges, edges[1:]):
        lo, hi = max(a, min(x, 0.0)), min(b, max(x, 0.0))
        if hi > lo:
            total += s * (hi - lo)
    return total if x >= 0.0 else -total


class TestHingeForm:
    @settings(max_examples=200, deadline=None)
    @given(pwl_cases())
    # a rising kink below 0 (c0 = -0.25), and a flat breakpoint off 0
    @example(((0.25, 0.5, 2.0), [-1.0, 0.0], [-3.0, -1.0, -0.5, 0.5, 2.0]))
    @example(((0.5, 0.5, 2.0), [-1.0, 0.0], [-3.0, -1.0, -0.5, 0.5, 2.0]))
    def test_value_matches_the_integrated_slopes(self, case):
        slopes, bps, xs = case
        loss = LossFunction.pwl(slopes, bps)
        smax = max(map(abs, slopes))
        got = loss.value(np.array(xs))
        for x, v in zip(xs, got):
            want = integrated(slopes, bps, x)
            assert abs(v - want) <= 8 * EPS * (1.0 + abs(x) * smax), \
                (x, v, want)
        assert loss.value(0.0) == 0.0

    def test_hinge_tuples(self):
        c0, s0, kinks, jumps = LossFunction.pwl((0.25, 0.5, 2.0),
                                                (-1.0, 0.0)).hinges
        assert (c0, s0) == (-0.25, 0.25)
        assert kinks.tolist() == [-1.0, 0.0] and jumps.tolist() == [0.25, 1.5]
        # a flat breakpoint is no kink
        _, _, kinks, _ = LossFunction.pwl((0.5, 0.5, 2.0), (-1.0, 0.0)).hinges
        assert kinks.tolist() == [0.0]
        assert LossFunction.exp().hinges is None
        assert LossFunction.power(2.0, 2.0).hinges is None
