import re

import numpy as np
import pytest

from wittenlab import eigensolve, oscillator1d as osc
from wittenlab.errors import (DegenerateInput, DomainTooSmall, NoConvergence,
                             PositivityViolation)


def test_harmonic_ladder_shift_minus():
    sp = osc.spectrum(osc.Harmonic(1.0, -1), 3, tol=1e-7)
    assert abs(sp.values[0]) <= 1e-6
    assert np.allclose(sp.values[1:], [4.0, 8.0], rtol=1e-6)


def test_harmonic_ladder_shift_plus_t3():
    sp = osc.spectrum(osc.Harmonic(3.0, +1), 3, tol=1e-7)
    assert np.allclose(sp.values, [12.0, 24.0, 36.0], rtol=1e-6)


def test_anharmonic_ground_matches_oracle(consts):
    # the library's finite-difference ladder is independent of the oracle's
    # Galerkin solve; both must agree on all cached levels
    e = np.array(consts["e"])
    sp = osc.spectrum(osc.Anharmonic(1.0, 1.0, -1), len(e), tol=1e-9)
    assert np.max(np.abs(sp.values - e) / e) <= 1e-10


def test_dual_route_ground_level(consts):
    # the bisection route must reproduce the cached level through Richardson
    # extrapolation on grids whose mesh width halves
    L = 8.0
    model = osc.Anharmonic(1.0, 1.0, -1)
    vals = {}
    for n in (4095, 8191):
        t = osc.discretize(model, L, n)
        vals[n] = eigensolve.eigs_lowest(t, 1, tol=1e-11)[0].value
    extrap = (4 * vals[8191] - vals[4095]) / 3
    assert abs(extrap - consts["e"][0]) / consts["e"][0] <= 1e-8


def test_boundary_mass_small():
    sp = osc.spectrum(osc.Anharmonic(1.0, 1.0, -1), 1, tol=1e-7, L=8.0)
    v = sp.vectors[:, 0]
    edge = sp.n // 20
    assert float(np.sum(v[:edge] ** 2) + np.sum(v[-edge:] ** 2)) <= 1e-10


def test_domain_too_small_detected():
    with pytest.raises(DomainTooSmall):
        osc.spectrum(osc.Anharmonic(1.0, 1.0, -1), 3, tol=1e-7, L=0.6)


def test_reflection_pairing():
    assert osc.verify_reflection(1.0, 1.0, 4, tol=1e-8) <= 1e-8
    assert osc.verify_reflection(-3.0, 2.0, 2, tol=1e-8) <= 1e-8


def test_reflection_rejects_ladders_on_different_grids(monkeypatch):
    # eigenvectors on two different grids cannot be compared node by node, so
    # the reflection check must fail loudly rather than be skipped
    def fake_spectrum(m, k, tol=1e-8, L=None, n0=1024, **_):
        n = 2049 if m.form_sign < 0 else 4099
        return osc.Spectrum1D(m, 8.0, n, np.arange(1.0, k + 1.0), np.zeros((n, k)))

    monkeypatch.setattr(osc, "spectrum", fake_spectrum)
    with pytest.raises(NoConvergence, match="different grids"):
        osc.verify_reflection(1.0, 1.0, 2)


def test_scaling_self_comparison_exact():
    assert osc.verify_scaling([1.0], 2, tol=1e-7) == 0.0


def test_scaling_law():
    assert osc.verify_scaling([8.0, 27.0], 5, tol=1e-8) <= 1e-6


def test_scaling_large_t_domain_logic():
    assert osc.verify_scaling([1000.0], 3, tol=1e-8) <= 1e-6


def test_spectrum_scaled_against_table(consts):
    sp = osc.spectrum(osc.Anharmonic(-2.0, 5.0, -1), 4, tol=1e-7)
    target = 10.0 ** (2.0 / 3.0) * np.array(consts["e"][:4])
    assert np.max(np.abs(sp.values - target) / target) <= 1e-6


def test_ground_state_properties(consts):
    props = osc.ground_state_properties(osc.Anharmonic(1.0, 1.0, -1))
    assert props["min_entry"] > 0.0
    assert props["gap_ratio"] > 0.0
    gap_ref = (consts["e"][1] - consts["e"][0]) / consts["e"][0]
    assert abs(props["gap_ratio"] - gap_ref) / gap_ref <= 1e-4
    assert props["xi1_at_zero"] > 0.0
    assert abs(props["xi1_at_zero"] - consts["xi1_0"]) / consts["xi1_0"] <= 1e-4


def test_ground_positivity_survives_refinement():
    for n in (2047, 4095, 8191):
        props = osc.ground_state_properties(osc.Anharmonic(1.0, 1.0, -1), n=n)
        assert props["min_entry"] > 0.0
        assert props["gap_ratio"] > 0.0


def test_convergence_order():
    # eigenvalue error against the extrapolated reference fits slope 2 +- 0.3
    model = osc.Anharmonic(1.0, 1.0, -1)
    L = 8.0
    ref = osc.spectrum(model, 1, tol=1e-10, L=L).values[0]
    errs, hs = [], []
    for n in (255, 511, 1023, 2047):
        t = osc.discretize(model, L, n)
        val = eigensolve.eigs_lowest(t, 1)[0].value
        errs.append(abs(val - ref))
        hs.append(2 * L / (n + 1))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_model_validation():
    with pytest.raises(DegenerateInput):
        osc.Harmonic(0.0, -1)
    with pytest.raises(DegenerateInput):
        osc.Anharmonic(0.0, 1.0, -1)
    with pytest.raises(DegenerateInput):
        osc.Anharmonic(1.0, 1.0, 2)
    with pytest.raises(DegenerateInput):
        osc.discretize(osc.Harmonic(1.0, -1), 4.0, 8)


def test_anharmonic_positivity_invariant():
    sp = osc.spectrum(osc.Anharmonic(2.0, 3.0, +1), 3, tol=1e-7)
    assert sp.values[0] > 0
    assert sp.values[0] < sp.values[1]
    with pytest.raises(PositivityViolation):
        osc.Spectrum1D(osc.Anharmonic(1.0, 1.0, -1), 8.0, 255,
                       np.array([-1.0, 2.0]), np.zeros((255, 2)))


def _spy_ladder(monkeypatch):
    """Record the grids a ladder discretizes and the ones it bisects."""
    bisected, grids = [], []
    bisect, discretize = eigensolve._lowest_acyclic, osc.discretize
    monkeypatch.setattr(eigensolve, "_lowest_acyclic",
                        lambda d, o, k: bisected.append(len(d)) or bisect(d, o, k))
    monkeypatch.setattr(osc, "discretize",
                        lambda m, L, n: grids.append(n) or discretize(m, L, n))
    return grids, bisected


def test_model_ladder_bisects_only_its_first_grid(tmp_path, monkeypatch):
    # the `osc1d --a 1 --t 8 --k 5 --tol 1e-9` ladder: grid 2 is seeded from
    # grid 1, grids 3-4 from the two below them, and all pass their certificate
    from wittenlab import cli
    grids, bisected = _spy_ladder(monkeypatch)
    assert cli.main(["osc1d", "--a", "1", "--t", "8", "--k", "5", "--tol", "1e-9",
                     "--outdir", str(tmp_path), "--assert"]) == 0
    assert grids == [1024, 2049, 4099, 8199]
    assert bisected == [1024]


@pytest.mark.parametrize("model", [osc.Harmonic(3.0, -1), osc.Harmonic(1.0, +1),
                                   osc.Anharmonic(-2.0, 5.0, +1)])
def test_harmonic_and_anharmonic_ladders_bisect_only_their_first_grid(model, monkeypatch):
    grids, bisected = _spy_ladder(monkeypatch)
    osc.spectrum(model, 4, tol=1e-8)
    assert len(grids) >= 3
    assert bisected == [1024]


def test_model_ladder_levels_match_the_table_to_5e_12(consts):
    # the Romberg level removes the h^4 term too: the bench ladder's levels
    # meet the Galerkin table to 1.6e-12, where Richardson alone reached
    # 1.05e-11 on a grid twice as large
    e = np.array(consts["e"][:5])
    sp = osc.spectrum(osc.Anharmonic(1.0, 8.0, -1), 5, tol=1e-9)
    assert np.max(np.abs(sp.values / 8.0 ** (2.0 / 3.0) - e) / e) <= 5e-12


def test_a_1e_11_ladder_stops_on_grid_8199():
    sp = osc.spectrum(osc.Anharmonic(1.0, 8.0, -1), 5, tol=1e-11)
    assert sp.n == 8199


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_a_tol_below_the_grids_rounding_fails_fast(tol, monkeypatch):
    # agreement stalls near 1.5e-12 relative: the ladder must say so on the
    # first rung that agrees no better, not refine to REFINE_CAP
    grids, _ = _spy_ladder(monkeypatch)
    with pytest.raises(NoConvergence, match="at best") as err:
        osc.spectrum(osc.Anharmonic(1.0, 8.0, -1), 3, tol=tol)
    best = float(re.search(r"agree to (\S+) at best", str(err.value)).group(1))
    assert tol < best < 1e-11
    assert grids == [1024, 2049, 4099, 8199, 16399]


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_spectrum_rejects_a_tol_that_is_not_positive_and_finite(tol):
    with pytest.raises(DegenerateInput, match="tol"):
        osc.spectrum(osc.Anharmonic(1.0, 1.0, -1), 2, tol=tol)


@pytest.mark.parametrize("tol", [1e-15, 1e-20])
def test_spectrum_rejects_a_tol_below_its_floor(tol):
    with pytest.raises(DegenerateInput, match="floor"):
        osc.spectrum(osc.Anharmonic(1.0, 8.0, -1), 3, tol=tol)


def test_the_tol_floor_is_a_residual_the_ladder_grids_reach():
    model = osc.Anharmonic(1.0, 8.0, -1)
    L = osc.auto_domain(model, 5)
    for n in (1024, 32799):
        t = osc.discretize(model, L, n)
        pairs = eigensolve.eigs_lowest(t, 5, tol=osc.TOL_FLOOR)
        assert max(p.residual for p in pairs) <= osc.TOL_FLOOR * t.scale


def test_each_grid_is_asked_for_a_residual_of_at_most_1e_11(monkeypatch):
    # the `model_ladder` ladder (tol 1e-9) and one at the floor
    asked = []
    eigs_lowest = eigensolve.eigs_lowest
    monkeypatch.setattr(eigensolve, "eigs_lowest",
                        lambda t, k, tol, near=None: asked.append(tol)
                        or eigs_lowest(t, k, tol, near))
    osc.spectrum(osc.Anharmonic(1.0, 8.0, -1), 5, tol=1e-9)
    assert asked and set(asked) == {1e-11}
    asked.clear()
    osc._solve_grid(osc.Anharmonic(1.0, 8.0, -1), 2.0, 1024, 3, osc.TOL_FLOOR)
    assert asked == [osc.TOL_FLOOR]
