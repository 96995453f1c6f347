import itertools

import numpy as np
import pytest

from wittenlab import local_model as lm, oscillator1d as osc
from wittenlab.errors import DegenerateInput


def test_axis_operator_signs():
    op = lm.axis_operator(lm.NonDegenerate(1, 1), 1, True, 2.0)
    assert isinstance(op, osc.Harmonic) and op.shift_sign == -1
    assert op.analytic_levels(1)[0] == 0.0

    op = lm.axis_operator(lm.BirthDeath(0, 1, 2.0), 1, False, 3.0)
    assert isinstance(op, osc.Anharmonic) and op.form_sign == -1

    op = lm.axis_operator(lm.NonDegenerate(0, 1), 1, True, 1.0)
    assert isinstance(op, osc.Harmonic) and op.shift_sign == +1
    assert op.analytic_levels(1)[0] == 4.0


def test_sector_ground_values(consts):
    sp = lm.sector_spectrum(lm.NonDegenerate(2, 3), lm.FormSector(frozenset({1, 2})),
                            1.0, 1)
    assert abs(sp.values[0]) <= 1e-12

    sp = lm.sector_spectrum(lm.NonDegenerate(2, 3), lm.FormSector(frozenset({1, 3})),
                            1.0, 1)
    assert abs(sp.values[0] - 8.0) <= 1e-10

    sp = lm.sector_spectrum(lm.BirthDeath(1, 2, 1.0), lm.FormSector(frozenset({1})),
                            1.0, 1)
    assert abs(sp.values[0] - consts["e"][0]) <= 1e-6


def test_separability_against_brute_force(consts):
    # smallest 10 sums must match exhaustive enumeration with index <= 6
    model = lm.BirthDeath(1, 3, 1.5)
    t = 2.0
    sector = lm.FormSector(frozenset({1, 3}))
    sp = lm.sector_spectrum(model, sector, t, 10)
    ladders = [lm._axis_levels(lm.axis_operator(model, ax, ax in sector.axes, t),
                               7, 1e-8) for ax in (1, 2, 3)]
    brute = sorted(a + b + c for a, b, c in itertools.product(*ladders))[:10]
    assert np.allclose(sp.values, brute, rtol=1e-12)


def test_nondegenerate_ground_multiplicity():
    model = lm.NonDegenerate(1, 3)
    t = 1.5
    zeros = []
    for r in range(model.dim + 1):
        for axes in itertools.combinations(range(1, model.dim + 1), r):
            sec = lm.FormSector(frozenset(axes))
            v = lm.sector_spectrum(model, sec, t, 1).values[0]
            if abs(v) <= 1e-10:
                zeros.append(sec.axes)
    assert zeros == [frozenset({1})]


def test_birth_death_ground_multiplicity(consts):
    model = lm.BirthDeath(0, 2, 1.0)
    t = 16.0
    target = consts["e"][0] * 16.0 ** (2.0 / 3.0)
    hits = []
    for d in range(0, 3):
        vals = lm.degree_spectrum(model, d, t, 1)
        if abs(vals[0][0] - target) / target <= 1e-6:
            hits.append(d)
    assert hits == [0, 1]


def test_degree_spectrum_prefix_property():
    model = lm.BirthDeath(0, 2, 1.0)
    short = lm.degree_spectrum(model, 1, 4.0, 4)
    long = lm.degree_spectrum(model, 1, 4.0, 8)
    assert np.allclose([v for v, _ in short], [v for v, _ in long[:4]])
    vals = [v for v, _ in long]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_pure_bd_scaling():
    model = lm.BirthDeath(0, 1, 1.0)
    v1 = np.array([v for v, _ in lm.degree_spectrum(model, 0, 1.0, 3)])
    v8 = np.array([v for v, _ in lm.degree_spectrum(model, 0, 8.0, 3)])
    assert np.max(np.abs(v8 - 4.0 * v1) / (4.0 * v1)) <= 1e-7


def test_invalid_models():
    with pytest.raises(DegenerateInput):
        lm.NonDegenerate(4, 3)
    with pytest.raises(DegenerateInput):
        lm.BirthDeath(2, 2, 1.0)
    with pytest.raises(DegenerateInput):
        lm.BirthDeath(0, 2, 0.0)
    with pytest.raises(DegenerateInput):
        lm.axis_operator(lm.NonDegenerate(1, 2), 3, True, 1.0)
    with pytest.raises(DegenerateInput):
        lm.degree_spectrum(lm.NonDegenerate(1, 2), 3, 1.0, 2)
