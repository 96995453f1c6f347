"""Property test of `build_circle_function` over random zero sets."""

import collections
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from wittenlab import circle_lab as cl
from wittenlab.errors import WittenLabError


@st.composite
def zero_sets(draw):
    """An even zero count (doubles twice) near the corners of a regular polygon.

    Evenly spaced zeros keep f' close to mean-zero, so that moving the first
    simple zero by less than half a gap usually closes f up; all-double sets
    and the draws whose mean does not change sign must raise instead.
    """
    n_simple = draw(st.sampled_from([0, 2, 4]))
    n_double = draw(st.integers(1 if n_simple == 0 else 0, 2))
    k = n_simple + n_double
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    jitter = draw(st.lists(st.floats(-0.2, 0.2), min_size=k, max_size=k))
    order = draw(st.permutations(range(k)))
    thetas = [phase + (i + jitter[i]) * 2.0 * math.pi / k for i in order]
    return thetas[:n_simple], thetas[n_simple:]


def _outcome(simple, double) -> str:
    try:
        cf = cl.build_circle_function(simple, double)
    except WittenLabError as err:
        assert type(err) is not WittenLabError, "errors must name their cause"
        return type(err).__name__
    crits = cf.critical_points
    assert len(crits) == len(simple) + len(double)
    assert len(cf.bd_points) == len(double)
    coeffs = np.array(cf.cos_coeffs + cf.sin_coeffs)
    assert np.all(np.isfinite(coeffs))
    assert all(math.isfinite(p.f_value) for p in crits)
    scale = np.sum(np.abs(coeffs))
    for p in crits:
        assert abs(float(cf.fprime(p.theta))) <= 1e-12 * scale
    return "built"


def test_build_circle_function_over_random_zero_sets():
    outcomes = collections.Counter()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(zero_sets())
    def check(zeros):
        outcomes[_outcome(*zeros)] += 1

    check()
    assert outcomes["built"] >= sum(outcomes.values()) // 3, outcomes
