"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Tolerances are pinned here, not configurable; any change to them is a change
to the contract of the package.
"""

import math

import numpy as np
import pytest

from wittenlab import (circle_lab as cl, local_model as lm, morse_complex as mc,
                       oscillator1d as osc, whs_compare as wc)

SQRT3 = math.sqrt(3.0)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"\n[CRITERION-{num:02d}] {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_01_harmonic_ladder():
    worst = 0.0
    for t in (1.0, 10.0):
        for shift, levels in ((-1, lambda m: 4 * t * m),
                              (+1, lambda m: 4 * t * (m + 1))):
            sp = osc.spectrum(osc.Harmonic(t, shift), 5, tol=1e-7)
            for m, val in enumerate(sp.values):
                ref = levels(m)
                denom = ref if ref > 0 else 4 * t
                worst = max(worst, abs(val - ref) / denom)
    _report(1, "harmonic ladder 4tm / 4t(m+1), t in {1, 10}", worst <= 1e-6,
            f"max rel err {worst:.2e}")


def test_criterion_02_scaling_law():
    dev = osc.verify_scaling([8.0, 27.0, 1000.0], 5)
    _report(2, "t^(2/3) scaling of the model levels", dev <= 1e-6,
            f"max rel deviation {dev:.2e}")


def test_criterion_03_ground_state(consts, consts_doubled):
    props = osc.ground_state_properties(osc.Anharmonic(1.0, 1.0, -1))
    pos = props["min_entry"] > 0.0 and props["gap_ratio"] > 0.0
    gap_cached = (consts["e"][1] - consts["e"][0]) / consts["e"][0]
    e2 = consts_doubled["e"]
    gap_doubled = (e2[1] - e2[0]) / e2[0]
    stable = abs(gap_cached - gap_doubled) / gap_cached <= 1e-8
    _report(3, "ground-state positivity and gap stability", pos and stable,
            f"min entry {props['min_entry']:.2e}, gap rel change "
            f"{abs(gap_cached - gap_doubled) / gap_cached:.2e}")


def test_criterion_04_reflection():
    d1 = osc.verify_reflection(1.0, 1.0, 4, tol=1e-8)
    d2 = osc.verify_reflection(-3.0, 2.0, 2, tol=1e-8)
    _report(4, "reflection conjugation of the form-sign pair",
            d1 <= 1e-8 and d2 <= 1e-8, f"discrepancies {d1:.2e}, {d2:.2e}")


def test_criterion_05_local_multiplicity(consts):
    t = 16.0
    e1, e2 = consts["e"][0], consts["e"][1]
    target = e1 * t ** (2.0 / 3.0)
    model = lm.BirthDeath(0, 2, 1.0)
    tagged = []
    for d in range(0, 3):
        for val, _ in lm.degree_spectrum(model, d, t, 3):
            tagged.append((val, d))
    tagged.sort()
    two_lowest_ok = (
        abs(tagged[0][0] - target) / target <= 1e-6
        and abs(tagged[1][0] - target) / target <= 1e-6
        and {tagged[0][1], tagged[1][1]} == {0, 1})
    floor3 = min(4 * t, e2 * t ** (2.0 / 3.0))
    third_ok = tagged[2][0] >= floor3 - 1e-6
    _report(5, "birth-death doublet in degrees 0 and 1 at t=16",
            two_lowest_ok and third_ok,
            f"lowest pair {tagged[0][0]:.8f}/{tagged[1][0]:.8f} in degrees "
            f"{tagged[0][1]},{tagged[1][1]}; third {tagged[2][0]:.4f} >= {floor3:.4f}")


def test_criterion_06_cluster_counts_and_scaling(a_solves, a_solves_doubled,
                                                 a_sweep, consts):
    ok = True
    details = []
    sweep_reports = []
    for t in a_sweep:
        reports = cl.spectral_clusters(a_solves[t], a_solves_doubled[t],
                                       constants=consts)
        sweep_reports.append(reports)
        for degree in (0, 1):
            r = reports[degree]
            mat = a_solves[t].matrix(degree)
            small_ok = (r.counts["small"] == 1
                        and abs(r.small[0]) <= 1e-8 * mat.scale)
            window_ok = r.counts["bd0"] == 1
            ok = ok and small_ok and window_ok
    fit = cl.scaling_fit(sweep_reports)
    expo = fit["per_bd"]["bd0"]["exponent"]
    const = fit["per_bd"]["bd0"]["constant"]
    target = consts["e"][0] * (SQRT3 / 9.0) ** (2.0 / 3.0)
    expo_ok = 0.66 <= expo <= 0.68
    const_ok = abs(const - target) / target <= 0.05
    ok = ok and expo_ok and const_ok
    details.append(f"exponent {expo:.4f}, constant {const:.5f} vs {target:.5f}")
    _report(6, "cluster counts and t^(2/3) drift on the circle", ok,
            "; ".join(details))


def test_criterion_07_image_norm_identity(a_solves, a_sweep, consts):
    worst = 0.0
    for t in a_sweep:
        defects = cl.eq7_defect(cl.cluster_bases(a_solves[t], constants=consts))
        worst = max(worst, max(defects.values()))
    _report(7, "||d(t) E0||^2 equals the paired eigenvalue", worst <= 1e-8,
            f"max rel defect {worst:.2e}")


def test_criterion_08_supersymmetric_pairing(a_solves, b_solves):
    worst = 0.0
    for solves in (a_solves, b_solves):
        for solve in solves.values():
            # each degree has its own eigensolve in the solve
            p0, p1 = solve.pairs[0], solve.pairs[1]
            thresh = 1e-8 * solve.w.delta0.scale
            nz0 = np.array([p.value for p in p0 if p.value > thresh])[:10]
            nz1 = np.array([p.value for p in p1 if p.value > thresh])[:10]
            assert len(nz0) == len(nz1) == 10
            worst = max(worst, float(np.max(np.abs(nz0 - nz1) / nz1)))
    _report(8, "nonzero spectra of the two degrees coincide", worst <= 1e-10,
            f"max rel mismatch over both examples {worst:.2e}")


def test_criterion_09_elimination_and_incidence():
    from test_morse_complex import random_dag
    rng = np.random.default_rng(2024)
    betti_fail = 0
    for _ in range(100):
        c = mc.random_complex(rng, n_pairs=int(rng.integers(1, 7)))
        b0 = mc.betti(c)
        red = mc.eliminate_all(c)
        nd_counts = {k: sum(1 for cell in c.cells.get(k, []) if cell.kind == "nd")
                     for k in c.degrees()}
        if mc.betti(red) != b0 or any(red.dim(k) != nd_counts.get(k, 0)
                                      for k in red.degrees()):
            betti_fail += 1
    dag_fail = 0
    rng2 = np.random.default_rng(77)
    for _ in range(200):
        g = random_dag(rng2)
        table = mc.incidence_recursive(g)
        for (src, dst), val in table.items():
            if mc.generalized_incidence_pathsum(g, src, dst) != val:
                dag_fail += 1
    _report(9, "elimination preserves Betti; recursion equals path sum",
            betti_fail == 0 and dag_fail == 0,
            f"{betti_fail}/100 complex failures, {dag_fail}/200 DAG mismatches")


def test_criterion_10_chain_map_convergence(a_solves, a_sweep, consts):
    reports = [wc.f_star(a_solves[t], constants=consts) for t in a_sweep]
    devs = [r.deviation for r in reports]
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    slope = float(np.polyfit(np.log(a_sweep), np.log(devs), 1)[0])
    defect_800 = reports[-1].defect
    ok = monotone and slope <= -0.8 and defect_800 <= 1e-3
    _report(10, "integration chain map converges to the identity", ok,
            f"deviations {' '.join(f'{d:.2e}' for d in devs)}; "
            f"slope {slope:.3f}; defect(800) {defect_800:.2e}")


def test_criterion_11_matrix_element_limits(a_solves, b_solves, b_sweep, consts):
    rows_a = wc.matrix_element_check(list(a_solves.values()), constants=consts)
    by_a = {(r.t, r.pair): r for r in rows_a}
    bd = by_a[(800.0, "bd0:1<-bd0:0")]
    bd_ok = 0.95 <= bd.rescaled <= 1.05
    nd_a = by_a[(800.0, "max0<-min0")]
    nd_a_ok = nd_a.label == "nd" and nd_a.abs_err <= 0.2

    rows_b = wc.matrix_element_check(list(b_solves.values()), constants=consts,
                                     strict_floor=False)
    t_max = max(b_sweep)
    nd_b = [r for r in rows_b if r.t == t_max and r.label == "nd-extension"]
    nd_b_ok = len(nd_b) == 4 and all(r.abs_err <= 0.2 for r in nd_b)
    nonzero_targets = [r for r in nd_b if r.target != 0.0]
    _report(11, "matrix elements reach their limits", bd_ok and nd_a_ok and nd_b_ok,
            f"bd ratio {bd.rescaled:.4f}; A integer err {nd_a.abs_err:.2e}; "
            f"B integer errB {max(r.abs_err for r in nd_b):.3f} over "
            f"{len(nonzero_targets)} nonzero targets")
