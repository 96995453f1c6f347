import math
from fractions import Fraction

import numpy as np
import pytest

from wittenlab import circle_lab as cl, eigensolve
from wittenlab.constants import load_constants
from wittenlab.errors import (AssumptionViolated, ClusterOverlap, DegenerateInput,
                              GridTooCoarse, MeanZeroUnreachable,
                              NotAffinelySelfIndexable, WeightOverflow)
from wittenlab.logspace import LogVector

SQRT3 = math.sqrt(3.0)


def test_example_a_derived_values(example_a):
    crits = example_a.critical_points
    kinds = [(p.kind, p.index) for p in crits]
    assert kinds == [("nd", 1), ("bd", 0), ("nd", 0)]
    mx, bd, mn = crits
    assert abs(mx.theta - math.pi / 3) <= 1e-12
    assert abs(bd.theta - math.pi) <= 1e-12
    assert abs(mn.theta - 5 * math.pi / 3) <= 1e-12
    assert abs(mn.f_value) <= 1e-12 and abs(mx.f_value - 1.0) <= 1e-12
    assert abs(bd.f_value - 0.5) <= 1e-12
    assert abs(bd.a + SQRT3 / 9.0) <= 1e-12
    assert example_a.self_indexed


def test_example_a_prenormalization():
    raw = cl.build_circle_function([math.pi / 3, -math.pi / 3], [math.pi])
    # f' = cos(theta) + cos(2 theta), f = sin + sin(2 theta)/2
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert np.allclose(raw.fprime(th), np.cos(th) + np.cos(2 * th), atol=1e-10)
    vals = {round(p.theta, 6): p for p in raw.critical_points}
    bd = [p for p in raw.critical_points if p.kind == "bd"][0]
    assert abs(bd.a + 0.5) <= 1e-10
    mx = [p for p in raw.critical_points if p.kind == "nd" and p.index == 1][0]
    assert abs(mx.f_value - 3 * SQRT3 / 4) <= 1e-10


def test_build_requires_zeros():
    with pytest.raises(DegenerateInput, match="at least one critical point"):
        cl.build_circle_function([], [])
    with pytest.raises(DegenerateInput, match="even"):
        cl.build_circle_function([1.0], [])       # odd zero count
    with pytest.raises(MeanZeroUnreachable):
        cl.build_circle_function([], [1.0])       # one-signed derivative


def test_classification_counts(example_b):
    assert len(example_b.minima) == 2
    assert len(example_b.maxima) == 2
    assert len(example_b.bd_points) == 1


def test_affine_self_index_identity(example_a):
    again = cl.affine_self_index(example_a)
    assert abs(again.critical_points[0].f_value - 1.0) <= 1e-12
    mags = [abs(c1 - c2) for c1, c2 in zip(again.cos_coeffs, example_a.cos_coeffs)]
    assert max(mags) <= 1e-12


def test_affine_self_index_rejects_distinct_minima(example_b):
    with pytest.raises(NotAffinelySelfIndexable):
        cl.affine_self_index(example_b)


def test_distinct_a_required():
    # symmetric double zeros produce equal cubic magnitudes
    with pytest.raises(DegenerateInput):
        cl.build_circle_function([0.9, 0.9 + np.pi],
                                 [2.5, 2.5 + np.pi])


def test_assemble_zero_function_is_periodic_laplacian():
    zero = cl.CircleFunction((0.0,), (0.0,), 0.0, ())
    n = 128
    w = cl.assemble_witten(zero, 4.0, n)
    h = 2 * np.pi / n
    assert np.allclose(w.delta0.diag, 2 / h**2, rtol=1e-12)
    assert np.allclose(w.delta0.offdiag, -1 / h**2, rtol=1e-12)
    assert abs(w.delta0.corner + 1 / h**2) <= 1e-6 / h**2
    pairs = eigensolve.eigs_lowest(w.delta0, 1)
    assert abs(pairs[0].value) <= 1e-10 * w.delta0.scale


def test_witten_diagonals_rounded_once(example_b):
    """Each diagonal entry is within one ulp of the exact sum of squares."""
    w = cl.assemble_witten(example_b, 24.0, 256)
    for diag, (a, b) in ((w.delta0.diag, (w.wminus, np.roll(w.wplus, 1))),
                         (w.delta1.diag, (w.wplus, w.wminus))):
        for d, x, y in zip(diag, a, b):
            assert abs(Fraction(d) - Fraction(x) ** 2 - Fraction(y) ** 2) < np.spacing(d)


def test_grid_too_coarse(example_a):
    with pytest.raises(GridTooCoarse):
        cl.assemble_witten(example_a, 400.0, 256)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [3000.0, 1e4])
def test_weight_overflow_is_named(example_a, alpha):
    """A Witten weight past double range is refused before any exp or square
    overflows (3000 overflowed a square, 1e4 the exp itself)."""
    with pytest.raises(WeightOverflow):
        cl.circle_solve(cl.rescale(example_a, alpha), 200.0)


def test_discrete_kernel_is_sampled_exponential(example_a):
    t = 120.0
    w = cl.assemble_witten(example_a, t, 4096)
    u = np.exp(-t * (w.f_nodes - np.min(w.f_nodes)))
    assert np.linalg.norm(w.apply_d(u)) <= 1e-10 * np.linalg.norm(u) * w.delta0.scale ** 0.5
    pairs = eigensolve.eigs_lowest(w.delta0, 1)
    assert abs(pairs[0].value) <= 1e-10 * w.delta0.scale


def test_supersymmetric_pairing(example_a):
    t = 100.0
    solve = cl.circle_solve(example_a, t, 4096, 6)
    p0, p1 = solve.pairs[0], solve.pairs[1]
    thresh = 1e-8 * solve.w.delta0.scale
    nz0 = [p.value for p in p0 if p.value > thresh]
    nz1 = [p.value for p in p1 if p.value > thresh]
    assert len(nz0) == len(nz1) == 5
    rel = np.max(np.abs(np.array(nz0) - np.array(nz1)) / np.array(nz1))
    assert rel <= 1e-10


def test_choose_epsilon_single_bd(example_a):
    e1, e2 = load_constants()["e"][:2]
    b = abs(example_a.bd_points[0].a) ** (2.0 / 3.0)
    expected = 0.9 * min(0.5 * e1 * b, 0.5 * (e2 * b - e1 * b))
    assert abs(cl.choose_epsilon(example_a) - expected) <= 1e-12


def test_choose_epsilon_two_bd_spacing_term(example_two_bd):
    e1, e2 = load_constants()["e"][:2]
    mags = sorted(abs(p.a) for p in example_two_bd.bd_points)
    b = [m ** (2.0 / 3.0) for m in mags]
    cands = [0.5 * e1 * b[0], 0.5 * e1 * (b[1] - b[0]),
             0.5 * (e2 * b[0] - e1 * b[1])]
    assert abs(cl.choose_epsilon(example_two_bd) - 0.9 * min(cands)) <= 1e-12


def test_choose_epsilon_assumption_violated(example_a):
    from dataclasses import replace
    bad_pts = []
    for i, p in enumerate(example_a.critical_points):
        if p.kind == "bd":
            bad_pts.append(replace(p, a=p.a))
        else:
            bad_pts.append(p)
    # fabricate a second birth-death point with |a| ratio beyond (e2/e1)^{3/2}
    huge = replace(example_a.critical_points[1], theta=0.2, a=40.0 * SQRT3 / 9)
    cf = cl.CircleFunction(example_a.cos_coeffs, example_a.sin_coeffs,
                           example_a.offset, tuple(bad_pts) + (huge,))
    with pytest.raises(AssumptionViolated):
        cl.choose_epsilon(cf)


@pytest.mark.parametrize("alpha, t, ratio", [(100.0, 200.0, 0.0017), (30.0, 800.0, 1.7e-5)])
def test_circle_solve_names_a_window_below_the_residual_bound(example_a, alpha, t, ratio):
    # without the precondition the eigensolve raises NoConvergence (alpha 100)
    # or SingularShift (alpha 30, t 800)
    cf = cl.rescale(example_a, alpha)
    w = cl.assemble_witten(cf, t, cl.default_n_grid(cf, t))
    half_width = cl.choose_epsilon(cf) * t ** (2.0 / 3.0)
    bound = cl.EIG_TOL * w.delta0.scale
    assert half_width / bound == pytest.approx(ratio, rel=0.05)
    with pytest.raises(AssumptionViolated) as exc:
        cl.circle_solve(cf, t)
    assert f"= {half_width:.4g} " in str(exc.value)
    assert f"= {bound:.4g} " in str(exc.value)


def test_circle_solve_certifies_a_window_above_the_residual_bound(example_a):
    cf = cl.rescale(example_a, 30.0)      # half-width / bound = 1.1e4 at t = 200
    reports = cl.spectral_clusters(cl.circle_solve(cf, 200.0))
    for degree in (0, 1):
        assert reports[degree].counts == {"small": 1, "bd0": 1, "below_floor": 2}


def test_spectral_clusters_counts_and_pairing(a_solves, a_solves_doubled):
    reports = cl.spectral_clusters(a_solves[200.0], a_solves_doubled[200.0])
    for degree in (0, 1):
        r = reports[degree]
        assert r.counts["small"] == 1
        assert r.counts["bd0"] == 1
        assert len(r.small) == 1
    # the large doublet pairs across degrees (supersymmetry)
    l0, l1 = reports[0].large["bd0"], reports[1].large["bd0"]
    assert abs(l0 - l1) / l1 <= 1e-10


def test_spectral_clusters_morse(example_morse):
    solve = cl.circle_solve(example_morse, 150.0)
    reports = cl.spectral_clusters(solve, cl.doubled(solve))
    assert reports[0].large == {} and reports[0].very_large_floor is None
    assert reports[0].counts["small"] == 1
    # smallest nonzero eigenvalue scales like t (positive limit)
    ratios = []
    for t in (150.0, 300.0):
        pairs = cl.circle_solve(example_morse, t, 4096, 2).pairs[0]
        ratios.append(pairs[1].value / t)
    assert ratios[0] > 0 and ratios[1] > 0
    assert abs(ratios[1] - ratios[0]) / ratios[0] <= 0.2


def test_cluster_overlap_at_tiny_t(example_a):
    with pytest.raises(ClusterOverlap):
        cl.spectral_clusters(cl.circle_solve(example_a, 3.0, 4096))


def test_grid_doubling_stability(example_a, a_solves, a_solves_doubled):
    t = 100.0
    s4096, s8192 = a_solves[t], a_solves_doubled[t]
    assert (s4096.n_grid, s8192.n_grid) == (4096, 8192)
    s16384 = cl.doubled(s8192)
    r1 = cl.spectral_clusters(s4096, s8192)
    r2 = cl.spectral_clusters(s8192, s16384)
    for degree in (0, 1):
        a = r1[degree].large["bd0"]
        b = r2[degree].large["bd0"]
        assert abs(a - b) / b <= 1e-6


@pytest.mark.parametrize("fixture,t,strict,need", [("example_a", 200.0, True, 3),
                                                    ("example_two_bd", 200.0, False, 4),
                                                    ("example_b", 300.0, False, 4)])
def test_default_solve_reads_only_the_pairs_it_needs(request, fixture, t, strict, need):
    """A default solve computes m_k + n_bd + 1 pairs per degree and reports the
    same large values and bd-pair pairings as a solve of 13 pairs."""
    cf = request.getfixturevalue(fixture)
    lean, wide = cl.circle_solve(cf, t), cl.circle_solve(cf, t, k_eigs=13)
    assert lean.k_eigs == need == max(cl.pairs_needed(cf, d) for d in (0, 1))
    low_lean = cl.low_complex(lean, strict_floor=strict)
    low_wide = cl.low_complex(wide, strict_floor=strict)
    for degree in (0, 1):
        large, ref = low_lean.reports[degree].large, low_wide.reports[degree].large
        assert large and large.keys() == ref.keys()
        for lab, v in large.items():
            assert abs(v - ref[lab]) <= 1e-12 * ref[lab]
    for lab in (lab for lab, p in cf.labels.items() if p.kind == "bd"):
        key = (f"{lab}:1", f"{lab}:0")
        got, want = low_lean.pairings[key].to_float(), low_wide.pairings[key].to_float()
        assert abs(got - want) <= 1e-10 * abs(want)


def test_scaling_fit_requires_four_points(a_solves):
    with pytest.raises(DegenerateInput):
        cl.scaling_fit([cl.spectral_clusters(a_solves[100.0])])


def test_cluster_bases_small_is_kernel(a_solves):
    t = 100.0
    w = a_solves[t].w
    u = np.exp(-t * w.f_nodes)
    u /= np.linalg.norm(u)
    v = cl.localized_basis(a_solves[t], 0)["min0"]
    assert abs(abs(np.dot(u, v)) - 1.0) <= 1e-10


def test_cluster_bases_d_image_proportionality(a_solves):
    t = 100.0
    low = cl.low_complex(a_solves[t])
    w = a_solves[t].w
    e0 = low.vectors[0]["bd0:0"].to_values()
    e1 = low.vectors[1]["bd0:1"].to_values()
    img = w.apply_d(e0)
    lam = a_solves[t].pairs[0][low.reports[0].index["bd0"]].value
    assert abs(np.dot(img, img) - lam) / lam <= 1e-8
    # the 1-form is oriented along the image
    cos = np.dot(img, e1) / np.linalg.norm(img)
    assert 1.0 - cos <= 1e-10


def test_eq7(a_solves):
    d = cl.eq7_defect(cl.low_complex(a_solves[400.0]))
    assert d["bd0"] <= 1e-8


def test_localized_basis_single_dim_sign(example_a, a_solves):
    t = 100.0
    loc = cl.localized_basis(a_solves[t], 0)
    v = loc["min0"]
    w = a_solves[t].w
    mn = example_a.minima[0]
    q = cl.quasimode(example_a, w, 0, mn)
    assert np.dot(v, q) > 0
    assert abs(abs(np.dot(v, a_solves[t].pairs[0][0].vector)) - 1.0) <= 1e-10


@pytest.fixture(scope="module")
def b_solve_300(example_b):
    return cl.circle_solve(example_b, 300.0)


def test_localized_mass_example_b(example_b, b_solve_300):
    loc = cl.localized_basis(b_solve_300, 0)
    w = b_solve_300.w
    th = np.arange(w.n_grid) * w.h
    for lab, p in zip(sorted(loc), example_b.minima):
        s = cl._arc_distance(th, p.theta)
        r = cl._chart_radius(example_b, p)
        mass = float(np.sum(loc[lab][np.abs(s) <= r] ** 2))
        assert mass >= 0.9


def test_gram_converges_to_identity(example_b, b_solve_300):
    defects = []
    for solve in (cl.circle_solve(example_b, 150.0), b_solve_300):
        g = cl.localization_gram(solve, 0)
        defects.append(np.max(np.abs(g - np.eye(len(g)))))
    assert defects[1] < defects[0]


def test_quasimode_stays_finite_beyond_its_chart():
    # Example B unscaled: far from the higher minimum f drops below its value
    # by more than 700 / t, where e^{-t (f - f(c))} overflows
    raw = cl.build_circle_function([0.55, 1.85, 3.25, 4.35], [5.45])
    t = 400.0
    w = cl.assemble_witten(raw, t, cl.default_n_grid(raw, t))
    for degree, lab in ((0, "min1"), (1, "max0"), (1, "max1")):
        q = cl.quasimode(raw, w, degree, raw.labels[lab])
        assert np.all(np.isfinite(q))
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


def test_matrix_elements_small_block_rescaled(a_solves):
    # the small-block pairing of Example A under the e^{t} sqrt(pi/2t)
    # rescaling of the normalized small complex
    t = 400.0
    low = cl.low_complex(a_solves[t])
    rescale_log = t + 0.5 * math.log(math.pi / (2.0 * t))
    val = low.pairings[("max0", "min0")].scaled(rescale_log).to_float()
    assert abs(val) <= 0.1


def test_matrix_elements_cross_bd(two_bd_solve):
    low = cl.low_complex(two_bd_solve, strict_floor=False)
    for (l1, l0), lv in low.pairings.items():
        b1, b0 = low.bd_of.get(l1), low.bd_of.get(l0)
        if b1 is not None and b0 is not None and b1 != b0:
            assert abs(lv.to_float()) <= 1e-8


def test_richardson_partner_must_double_the_grid(a_solves, a_solves_doubled):
    with pytest.raises(DegenerateInput, match="twice the grid"):
        cl.spectral_clusters(a_solves[100.0], a_solves_doubled[200.0])
    with pytest.raises(DegenerateInput, match="twice the grid"):
        cl.spectral_clusters(a_solves[100.0], a_solves[100.0])


def test_one_assembly_per_grid_and_one_eigensolve_per_degree(example_a,
                                                             monkeypatch):
    from wittenlab import whs_compare as wc
    assembled, solved = [], []
    real_assemble, real_eigs = cl.assemble_witten, eigensolve.eigs_lowest

    def assemble(cf, t, n_grid):
        assembled.append((t, n_grid))
        return real_assemble(cf, t, n_grid)

    def eigs_lowest(t, k, tol=1e-11, near=None):
        if t.corner is not None:           # the Witten matrices are cyclic
            solved.append((t.n, id(t), near is None))
        return real_eigs(t, k, tol=tol, near=near)

    monkeypatch.setattr(cl, "assemble_witten", assemble)
    monkeypatch.setattr(eigensolve, "eigs_lowest", eigs_lowest)

    # coarse grids keep this cheap; the call pattern does not depend on n
    t, n = 200.0, 1024
    solve = cl.circle_solve(example_a, t, n)
    doubled = cl.doubled(solve)
    cl.spectral_clusters(solve, doubled)
    assert assembled == [(t, n), (t, 2 * n)]
    assert sorted(size for size, _, _ in solved) == [n, n, 2 * n, 2 * n]
    assert len(set(solved)) == 4                # one solve per (degree, grid)
    # only the first solve, degree 0 on grid n, is unseeded
    assert [unseeded for _, _, unseeded in solved] == [True, False, False, False]
    assert solved[0][:2] == (n, id(solve.w.delta0))

    assembled.clear()
    solved.clear()
    wc.f_star(cl.circle_solve(example_a, 100.0, n))
    assert assembled == [(100.0, n)]
    assert len(solved) == len(set(solved)) == 2


def test_only_the_first_solve_of_a_richardson_pair_locates(example_a, monkeypatch):
    # A at t = 200, the `clusters` benchmark's solve: every seeded solve is
    # certified, so a silent fallback to locating would show here
    located = []
    locate = eigensolve._locate
    monkeypatch.setattr(eigensolve, "_locate",
                        lambda t, k: located.append(t.n) or locate(t, k))
    solve = cl.circle_solve(example_a, 200.0)
    doubled = cl.doubled(solve)
    assert located == [solve.n_grid]
    assert doubled.n_grid == 2 * solve.n_grid and doubled.k_eigs == solve.k_eigs
    for s in (solve, doubled):
        gap = np.abs(s.values(0) - s.values(1))
        slack = 2.0 * (cl.EIG_TOL + 64.0 * np.finfo(float).eps) * s.matrix(0).scale
        assert np.all(gap <= slack)          # Delta0 and Delta1 share their spectrum


def test_a_coarse_seed_must_solve_the_same_problem(example_a, example_b):
    coarse = cl.circle_solve(example_a, 50.0, 512)
    for cf, t, k in ((example_b, 50.0, coarse.k_eigs), (example_a, 60.0, coarse.k_eigs),
                     (example_a, 50.0, coarse.k_eigs + 1)):
        with pytest.raises(DegenerateInput, match="coarse seed"):
            cl.circle_solve(cf, t, 1024, k, coarse=coarse)


def test_spectral_clusters_counts_each_window_edge_once(a_solves, monkeypatch):
    counted = []
    real_count = eigensolve.count_below

    def count_below(t, lam):
        counted.append(lam)
        return real_count(t, lam)

    monkeypatch.setattr(eigensolve, "count_below", count_below)
    cl.spectral_clusters(a_solves[200.0])
    # per degree: eps t^(2/3), the two edges of the bd0 window, the floor
    assert len(counted) == 8
    assert counted[:4] == sorted(counted[:4]) and counted[4:] == counted[:4]


def test_cluster_index_names_the_pair_in_its_window(example_two_bd, two_bd_solve, consts):
    reports = cl.spectral_clusters(two_bd_solve, strict_floor=False)
    bd = {lab: p for lab, p in example_two_bd.labels.items() if p.kind == "bd"}
    assert list(bd) == ["bd0", "bd1"]
    s = two_bd_solve.t ** (2.0 / 3.0)
    for degree in (0, 1):
        r = reports[degree]
        assert sorted(r.index) == ["bd0", "bd1"]
        for lab, p in bd.items():
            center = consts["e"][0] * abs(p.a) ** (2.0 / 3.0)
            pair = two_bd_solve.pairs[degree][r.index[lab]]
            assert (center - r.epsilon) * s <= pair.value < (center + r.epsilon) * s
            assert r.large[lab] == pair.value


def test_low_complex_labels_and_located_pairs(two_bd_solve, a_solves):
    low = cl.low_complex(two_bd_solve, strict_floor=False)
    assert list(low.vectors[0]) == ["min0", "bd0:0", "bd1:0"]
    assert list(low.vectors[1]) == ["max0", "bd0:1", "bd1:1"]
    assert low.bd_of == {"bd0:0": "bd0", "bd1:0": "bd1", "bd0:1": "bd0", "bd1:1": "bd1"}
    assert sorted(low.pairings) == sorted((l1, l0) for l0 in low.vectors[0]
                                          for l1 in low.vectors[1])
    for degree in (0, 1):
        for lab, i in low.reports[degree].index.items():
            lv = low.vectors[degree][f"{lab}:{degree}"]
            pair = LogVector.from_values(two_bd_solve.pairs[degree][i].vector)
            np.testing.assert_array_equal(lv.log, pair.log)
            assert abs(np.dot(lv.sign, pair.sign)) == len(lv)

    # a numerically zero one-dimensional small cluster is the exact kernel
    low_a = cl.low_complex(a_solves[100.0])
    lv, kernel = low_a.vectors[0]["min0"], a_solves[100.0].w.kernel_node_logvec()
    np.testing.assert_array_equal(lv.log, kernel.log)
    assert abs(np.dot(lv.sign, kernel.sign)) == len(lv)


def test_labels_count_each_kind_by_angle(example_a, example_b):
    assert list(example_a.labels) == ["max0", "bd0", "min0"]
    assert list(example_b.labels) == ["max0", "min0", "max1", "min1", "bd0"]
    for cf in (example_a, example_b):
        thetas = [p.theta for p in cf.labels.values()]
        assert thetas == sorted(thetas)
        assert tuple(cf.labels.values()) == cf.critical_points
