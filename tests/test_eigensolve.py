from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from wittenlab import circle_lab, eigensolve as es
from wittenlab.errors import DegenerateInput, NoConvergence, SingularShift


def tridiag(diag, off, corner=None):
    return es.SymTridiag(np.asarray(diag, float), np.asarray(off, float), corner)


def random_tridiag(rng, n, cyclic):
    return tridiag(rng.normal(size=n) * 2, rng.normal(size=n - 1),
                   rng.normal() if cyclic else None)


def assert_counts_exact(t, lams):
    """count_below equals the dense count wherever the strict count is well posed."""
    ev = np.linalg.eigvalsh(t.to_dense())
    checked = 0
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for lam in lams:
            if np.min(np.abs(ev - lam)) <= 1e-9 * t.scale:
                continue
            assert es.count_below(t, lam) == int(np.sum(ev < lam)), (t, lam)
            checked += 1
    return checked


def test_sturm_diagonal_matrix():
    t = tridiag([1.0, 2.0, 3.0], [0.0, 0.0])
    assert es.count_below(t, 2.5) == 2


def test_sturm_2x2_closed_form():
    t = tridiag([2.0, 2.0], [-1.0])        # eigenvalues 1 and 3
    assert es.count_below(t, 2.0) == 1


def test_sturm_dirichlet_laplacian():
    n = 100
    h = 1.0 / (n + 1)
    t = tridiag(np.full(n, 2 / h**2), np.full(n - 1, -1 / h**2))
    exact = (4 / h**2) * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
    for lam in [0.5 * exact[3], exact[50] * 1.0001, 3.7e5]:
        assert es.count_below(t, lam) == int(np.sum(exact < lam))


def test_eigs_diagonal():
    t = tridiag([5.0, 1.0, 9.0], [0.0, 0.0])
    pairs = es.eigs_lowest(t, 2)
    assert np.allclose([p.value for p in pairs], [1.0, 5.0], atol=1e-12)


def test_eigs_periodic_laplacian_degenerate():
    n = 64
    h = 2 * np.pi / n
    t = tridiag(np.full(n, 2 / h**2), np.full(n - 1, -1 / h**2), corner=-1 / h**2)
    pairs = es.eigs_lowest(t, 3)
    vals = np.array([p.value for p in pairs])
    lam1 = (4 / h**2) * np.sin(np.pi / n) ** 2
    assert abs(vals[0]) <= 1e-10 * t.scale
    assert np.allclose(vals[1:], [lam1, lam1], rtol=1e-10)


def test_eigs_residual_and_orthogonality():
    rng = np.random.default_rng(5)
    d = rng.normal(size=60) * 3
    o = rng.normal(size=59)
    for corner in (None, 0.7):
        t = tridiag(d, o, corner)
        pairs = es.eigs_lowest(t, 6, tol=1e-11)
        for p in pairs:
            assert p.residual <= 1e-11 * t.scale
            assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-12
        for i in range(6):
            for j in range(i):
                assert abs(np.dot(pairs[i].vector, pairs[j].vector)) <= 1e-8


def test_inertia_consistency_with_returned_values():
    rng = np.random.default_rng(11)
    t = tridiag(rng.normal(size=40), rng.normal(size=39))
    pairs = es.eigs_lowest(t, 8)
    vals = [p.value for p in pairs]
    la, lb = vals[1] - 1e-9, vals[6] + 1e-9
    inside = sum(1 for v in vals if la <= v < lb)
    assert es.count_below(t, lb) - es.count_below(t, la) == inside


def test_counts_match_dense_for_cyclic():
    rng = np.random.default_rng(0)
    for _ in range(4):
        n = 30
        t = tridiag(rng.normal(size=n), rng.normal(size=n - 1), rng.normal())
        ev = np.linalg.eigvalsh(t.to_dense())
        for lam in (-2.0, -0.3, 0.9, 2.4):
            assert es.count_below(t, lam) == int(np.sum(ev < lam))


def test_eigs_match_dense_cyclic():
    rng = np.random.default_rng(3)
    n = 50
    t = tridiag(rng.normal(size=n) * 2, rng.normal(size=n - 1), 0.9)
    ev = np.linalg.eigvalsh(t.to_dense())[:5]
    pairs = es.eigs_lowest(t, 5)
    assert np.allclose([p.value for p in pairs], ev, atol=1e-10 * t.scale)


def test_determinism_bit_identical():
    rng = np.random.default_rng(9)
    t = tridiag(rng.normal(size=128), rng.normal(size=127), 0.4)
    a = es.eigs_lowest(t, 4)
    b = es.eigs_lowest.__wrapped__(t, 4) if hasattr(es.eigs_lowest, "__wrapped__") \
        else es.eigs_lowest(t, 4)
    for pa, pb in zip(a, b):
        assert pa.value == pb.value
        assert np.array_equal(pa.vector, pb.vector)


def test_degenerate_input():
    t = tridiag([1.0, 2.0], [0.5])
    with pytest.raises(DegenerateInput):
        es.eigs_lowest(t, 3)
    with pytest.raises(DegenerateInput):
        es.eigs_lowest(t, 0)


def test_solve_shifted_identity():
    t = tridiag([1.0, 1.0, 1.0], [0.0, 0.0])
    x = es._ShiftedTridiagSolve(t.diag, t.offdiag, 0.0).solve(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-14)


def test_solve_shifted_diag2():
    t = tridiag([2.0, 2.0], [0.0])
    x = es._ShiftedTridiagSolve(t.diag, t.offdiag, 1.0).solve(np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)
    # above the spectrum: the dgttrf route, on its padded n = 2 case
    t = tridiag([2.0, 2.0], [0.5])
    x = es._ShiftedTridiagSolve(t.diag, t.offdiag, 3.0).solve(np.array([1.0, 1.0]))
    assert np.allclose(t.matvec(x) - 3.0 * x, [1.0, 1.0], atol=1e-14)


def test_solve_shifted_cyclic_residual():
    n = 8
    t = tridiag(np.full(n, 2.0), np.full(n - 1, -1.0), -1.0)
    rhs = np.zeros(n)
    rhs[0] = 1.0
    x = es._apply_shifted_inverse_cyclic(t, -1.0)(rhs)
    assert np.linalg.norm(t.matvec(x) + x - rhs) <= 1e-12


def test_solve_shifted_singular_raises():
    t = tridiag([1.0, 1.0, 1.0], [0.0, 0.0])
    with pytest.raises(SingularShift):
        es._ShiftedTridiagSolve(t.diag, t.offdiag, 1.0)


def test_bordered_solve_matches_dense():
    """(T - sigma I)^{-1} r as accurate as T - sigma and the cut block allow.

    Shifts just below each located value, as inverse iteration takes them,
    and within 1e-12 * scale of an eigenvalue of the block A left by cutting
    node n-1, where most Witten values sit and x_A = y - x x_n cancels.
    """
    rng = np.random.default_rng(111)
    eps = np.finfo(float).eps
    checked = 0
    for n in range(2, 61):
        t = random_tridiag(rng, n, cyclic=True)
        dense = t.to_dense()
        ev, mu = np.linalg.eigvalsh(dense), np.linalg.eigvalsh(dense[:-1, :-1])
        r = rng.normal(size=n)
        for sigma in np.concatenate([es.eigvals_lowest(t, n) - 1e-9 * t.scale,
                                     mu - 1e-12 * t.scale, mu + 0.5e-12 * t.scale]):
            x = es._apply_shifted_inverse_cyclic(t, sigma)(r)
            ref = np.linalg.solve(dense - sigma * np.eye(n), r)
            dist = min(np.min(np.abs(ev - sigma)), np.min(np.abs(mu - sigma)))
            err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
            assert err <= 64.0 * eps * t.scale / dist, (n, sigma)
            checked += 1
    assert checked >= 5000


def test_bordered_solve_raises_where_the_schur_complement_vanishes():
    # periodic Laplacian of 3 nodes at its zero eigenvalue: the cut block is
    # positive definite there, and s(0) = 2 - b^T A^{-1} b = 0 exactly
    t = tridiag([2.0, 2.0, 2.0], [-1.0, -1.0], corner=-1.0)
    with pytest.raises(SingularShift):
        es._apply_shifted_inverse_cyclic(t, 0.0)


@pytest.mark.parametrize("name", ["A", "B"])
def test_witten_ground_vectors_are_positive(name, a_solves, b_solves):
    """Below the spectrum every term of the bordered solve is positive."""
    for solve in {"A": a_solves, "B": b_solves}[name].values():
        for degree in (0, 1):
            assert np.min(solve.pairs[degree][0].vector) > 0.0, (solve.t, degree)


# -- differential tests against dense eigvalsh ----------------------------------

@pytest.mark.parametrize("cyclic", [False, True])
def test_counts_match_dense_random(cyclic):
    rng = np.random.default_rng(21 + cyclic)
    checked = 0
    for n in range(2, 61):
        checked += assert_counts_exact(random_tridiag(rng, n, cyclic),
                                       rng.normal(size=6) * 3)
    assert checked >= 300


@pytest.mark.parametrize("cyclic", [False, True])
def test_counts_exact_with_near_zero_pivots(cyclic):
    """Leading pivots of T - lam I at or near zero, where bordered counts clip."""
    rng = np.random.default_rng(31 + cyclic)
    for n in range(2, 61):
        lam = float(rng.normal())
        corner = float(rng.normal()) if cyclic else None
        off = rng.normal(size=n - 1)
        # constant diagonal at lam: every odd leading block is singular
        assert_counts_exact(tridiag(np.full(n, lam), off, corner), [lam, lam + 0.3])
        # prescribed LDL^T pivots, a fifth of them 1e-30 behind couplings of
        # 1e-15: a bordered elimination's border column grows past 1e140
        piv = rng.normal(size=n)
        tiny = rng.integers(0, n - 1, size=max(1, n // 5))
        piv[tiny] = 1e-30
        off[tiny] *= 1e-15
        diag = lam + piv
        diag[1:] += off ** 2 / piv[:-1]
        assert_counts_exact(tridiag(diag, off, corner), [lam, lam - 0.5, lam + 0.5])


def test_cyclic_count_at_an_eigenvalue_of_the_cut_block():
    """lam at an eigenvalue of the block left by the first cut: no Schur complement there.

    Eigenvectors of random tridiagonals are localized, so many block
    eigenvalues also lie within 1e-9 of an eigenvalue of T and are skipped.
    """
    rng = np.random.default_rng(41)
    checked = 0
    for n in range(3, 61):
        t = random_tridiag(rng, n, cyclic=True)
        block = tridiag(t.diag[:-1], t.offdiag[:-1]).to_dense()
        checked += assert_counts_exact(t, np.linalg.eigvalsh(block))
    assert checked >= 500


@pytest.mark.parametrize("n", [6, 10, 30])
def test_cyclic_count_when_every_single_cut_is_singular(n):
    # periodic Laplacian at its centre: every (n-1) block has 2 as an eigenvalue
    t = tridiag(np.full(n, 2.0), np.full(n - 1, -1.0), -1.0)
    assert assert_counts_exact(t, [2.0]) == 1


@pytest.mark.parametrize("cyclic", [False, True])
def test_eigs_lowest_match_dense_random(cyclic):
    rng = np.random.default_rng(51 + cyclic)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for n in range(2, 61):
            t = random_tridiag(rng, n, cyclic)
            k = min(n, 1 + n % 6)
            ev = np.linalg.eigvalsh(t.to_dense())[:k]
            vals = np.array([p.value for p in es.eigs_lowest(t, k)])
            assert np.max(np.abs(vals - ev)) <= 1e-10 * t.scale, n
            assert np.max(np.abs(es.eigvals_lowest(t, k) - ev)) <= 1e-10 * t.scale


@pytest.mark.parametrize("n", [2, 3])
def test_small_cycles(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(20):
        t = random_tridiag(rng, n, cyclic=True)
        ev = np.linalg.eigvalsh(t.to_dense())
        vals = np.array([p.value for p in es.eigs_lowest(t, n)])
        assert np.max(np.abs(vals - ev)) <= 1e-10 * t.scale
        assert_counts_exact(t, np.concatenate([ev - 0.1, ev + 0.1, t.diag]))


def test_cyclic_n2_dense_form_adds_the_corner():
    t = tridiag([1.0, 3.0], [0.5], corner=0.25)
    assert np.array_equal(t.to_dense(), [[1.0, 0.75], [0.75, 3.0]])
    x = np.array([1.0, -2.0])
    assert np.allclose(t.matvec(x), t.to_dense() @ x)


@pytest.mark.parametrize("field", ["diag", "offdiag", "corner"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(field, bad):
    parts = {"diag": np.ones(4), "offdiag": np.full(3, -0.5), "corner": -0.5}
    if field == "corner":
        parts["corner"] = bad
    else:
        parts[field][1] = bad
    with pytest.raises(DegenerateInput):
        es.SymTridiag(**parts)


def test_non_finite_shift_rejected():
    t = tridiag([2.0, 2.0, 2.0], [-1.0, -1.0], corner=-1.0)
    for lam in (np.nan, np.inf):
        with pytest.raises(DegenerateInput):
            es.count_below(t, lam)


def assert_cyclic_eigenpairs(t, k):
    """Orthonormal vectors, small residuals and dense values from eigs_lowest."""
    pairs = es.eigs_lowest(t, k)
    vecs = np.array([p.vector for p in pairs])
    assert np.max(np.abs(vecs @ vecs.T - np.eye(k))) <= 1e-12, t.n
    for p in pairs:
        assert np.linalg.norm(t.matvec(p.vector) - p.value * p.vector) <= 1e-11 * t.scale
    ev = np.linalg.eigvalsh(t.to_dense())[:k]
    assert np.max(np.abs([p.value for p in pairs] - ev)) <= 1e-10 * t.scale, t.n


def test_cyclic_eigenvectors():
    # periodic Laplacians: every eigenvalue but the lowest is exactly double
    for n in range(3, 80):
        t = tridiag(np.full(n, 2.0), np.full(n - 1, -1.0), -1.0)
        assert_cyclic_eigenpairs(t, min(n, 5))
    rng = np.random.default_rng(71)
    for n in range(3, 120):
        assert_cyclic_eigenpairs(random_tridiag(rng, n, cyclic=True), min(n, 1 + n % 7))


def test_stencil_vector_offset_wraps_without_overflow():
    n = 16
    for seq in (0, 1, 2, 101):
        offset = (seq * 0x9E3779B97F4A7C15 + 0x243F6A8885A308D3) % 2 ** 64
        z = [(i + offset) % 2 ** 64 for i in range(n)]
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z = [((x ^ (x >> shift)) * mult) % 2 ** 64 for x in z]
        u = np.array([float(x ^ (x >> 31)) for x in z]) / 2.0 ** 64
        v = 1.0 + 0.9 * (u - 0.5)
        with np.errstate(over="raise"):
            got = es._stencil_vector(n, seq)
        assert np.array_equal(got, v / np.linalg.norm(v)), seq


# -- the cyclic eigenvalue locator --------------------------------------------------

def interleaved_band(t):
    """Upper band storage of a cyclic matrix in the order 0, n-1, 1, n-2, ...

    Cyclic neighbours end up at most two places apart, so the permuted
    matrix is pentadiagonal: band[2 + r - c, c] holds entry (r, c), r <= c.
    """
    n = t.n
    perm = np.empty(n, dtype=int)
    perm[0::2] = np.arange((n + 1) // 2)
    perm[1::2] = n - 1 - np.arange(n // 2)
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)
    band = np.zeros((3, n))
    band[2, pos] = t.diag
    left, right = pos, np.roll(pos, -1)        # edge i couples i and i+1 mod n
    rows, cols = np.minimum(left, right), np.maximum(left, right)
    np.add.at(band, (2 + rows - cols, cols), np.append(t.offdiag, t.corner))
    return band


def test_cyclic_eigvals_match_dense_random():
    rng = np.random.default_rng(81)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for n in range(3, 81):
            t = random_tridiag(rng, n, cyclic=True)
            ev = np.linalg.eigvalsh(t.to_dense())
            for k in (1, n - 1, n):
                got = es.eigvals_lowest(t, k)
                assert np.all(np.diff(got) >= 0.0), (n, k)
                assert np.max(np.abs(got - ev[:k])) <= 1e-12 * t.scale, (n, k)


def test_cyclic_eigvals_periodic_laplacian_double_values():
    # every eigenvalue but the lowest (and the top one for even n) is exactly
    # double and equals an eigenvalue of the block left by the cut, so its
    # brackets on both sides are empty
    for n in range(3, 81):
        t = tridiag(np.full(n, 2.0), np.full(n - 1, -1.0), -1.0)
        exact = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
        got = es.eigvals_lowest(t, n)
        assert np.max(np.abs(got - exact)) <= 1e-12 * t.scale, n


@pytest.mark.parametrize("name", ["A", "B", "two_bd"])
def test_cyclic_eigvals_match_banded_on_witten_matrices(name, example_a, example_b,
                                                        example_two_bd):
    cf = {"A": example_a, "B": example_b, "two_bd": example_two_bd}[name]
    for n_grid in (1024, 2048):
        for t in (50.0, 400.0):
            w = circle_lab.assemble_witten(cf, t, n_grid)
            for mat in (w.delta0, w.delta1):
                ref = scipy.linalg.eig_banded(interleaved_band(mat), eigvals_only=True,
                                              select="i", select_range=(0, 12))
                got = es.eigvals_lowest(mat, 13)
                assert np.max(np.abs(got - ref)) <= 1e-12 * mat.scale, (n_grid, t)


def test_cyclic_locator_budget_exceeded_raises(monkeypatch):
    n = 24
    theta = 2.0 * np.pi * np.arange(n) / n
    # a smooth potential: delocalized vectors, so no value sits at a bracket end
    t = tridiag(2.0 + 0.5 * np.cos(theta), np.full(n - 1, -1.0), -1.0)
    assert np.max(np.abs(es.eigvals_lowest(t, n)
                         - np.linalg.eigvalsh(t.to_dense()))) <= 1e-12 * t.scale
    monkeypatch.setattr(es, "LOCATE_EVALS", 3)
    with pytest.raises(NoConvergence, match="Schur evaluations"):
        es.eigvals_lowest(t, n)


def test_pairs_outside_their_brackets_raise(monkeypatch):
    rng = np.random.default_rng(91)
    t = random_tridiag(rng, 40, cyclic=True)
    k = 5
    lam, ends = es._locate_cyclic(t, k + 1)
    assert len(es.eigs_lowest(t, k)) == k
    # seeds one gap off: inverse iteration converges to lambda_{j+1}
    monkeypatch.setattr(es, "_locate_cyclic", lambda t, k: (lam[1:k + 1], ends[:k + 1]))
    with pytest.raises(NoConvergence, match="bracket"):
        es.eigs_lowest(t, k)


def test_error_free_transformations():
    rng = np.random.default_rng(101)
    a = rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200)
    b = rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200)
    for (hi, lo), exact in ((es.two_sum(a, b), lambda x, y: Fraction(x) + Fraction(y)),
                            (es.two_product(a, b), lambda x, y: Fraction(x) * Fraction(y))):
        for x, y, h, l in zip(a, b, hi, lo):
            assert Fraction(h) + Fraction(l) == exact(x, y)


def test_rayleigh_quotient_accurate_for_a_small_witten_value(example_b):
    """A value 1e-8 of the scale, where the rows of T v cancel by eight digits."""
    t = circle_lab.assemble_witten(example_b, 24.0, 4096).delta0
    pair = es.eigs_lowest(t, 2)[1]
    assert 1e-9 * t.scale < pair.value < 1e-7 * t.scale
    v = [Fraction(x) for x in pair.vector]
    num = (sum(Fraction(d) * x * x for d, x in zip(t.diag, v))
           + 2 * sum(Fraction(e) * x * y for e, x, y in zip(t.offdiag, v, v[1:]))
           + 2 * Fraction(t.corner) * v[0] * v[-1])
    exact = num / sum(x * x for x in v)
    assert abs(Fraction(pair.value) - exact) <= 1e-13 * exact


# -- the seeded acyclic route -------------------------------------------------

@pytest.fixture(scope="module")
def ladder_grids():
    """The grids of the `osc1d --a 1 --t 8 --k 5 --tol 1e-9` ladder, unseeded."""
    from wittenlab import oscillator1d as osc
    model = osc.Anharmonic(1.0, 8.0, -1)
    L = osc.auto_domain(model, 5)
    grids = []
    for n in (1024, 2049, 4099, 8199, 16399):
        t = osc.discretize(model, L, n)
        grids.append((t, es.eigs_lowest(t, 5, tol=1e-11)))
    return grids


def _spy_bisection(monkeypatch):
    calls = []
    bisect = es._lowest_acyclic

    def spy(diag, off, k):
        calls.append(len(diag))
        return bisect(diag, off, k)

    monkeypatch.setattr(es, "_lowest_acyclic", spy)
    return calls


def test_seeded_route_matches_bisection_on_the_ladder(ladder_grids, monkeypatch):
    """Grid 2 seeded from grid 1 and grids 3-5 from the two grids below, as
    oscillator1d.spectrum does."""
    calls = _spy_bisection(monkeypatch)
    vals = [np.array([p.value for p in pairs]) for _, pairs in ladder_grids]
    for g in (1, 2, 3, 4):
        near = vals[0]
        if g > 1:
            extrap = (4.0 * vals[g - 1] - vals[g - 2]) / 3.0
            near = extrap + (vals[g - 1] - extrap) / 4.0
        t, ref = ladder_grids[g]
        seeded = es.eigs_lowest(t, 5, tol=1e-11, near=near)
        for p, q in zip(seeded, ref):
            assert abs(p.value - q.value) <= 1e-12 * t.scale
            assert abs(np.dot(p.vector, q.vector)) >= 1.0 - 1e-12
            assert p.residual <= 1e-11 * t.scale
        assert np.all(seeded[0].vector > 0.0)
    assert calls == []      # every certificate held: no grid was bisected


@pytest.mark.parametrize("case", ["one level off", "all equal", "above lambda_0"])
def test_seeds_that_fail_the_certificate_fall_back_to_bisection(ladder_grids, case,
                                                                monkeypatch):
    t, _ = ladder_grids[2]
    lam = es.eigvals_lowest(t, 6)
    near = {"one level off": lam[1:],                   # fails the Sturm count
            "all equal": np.full(5, lam[0]),            # does not converge
            "above lambda_0": lam[:5] + 2e-9 * t.scale, # shifts above their pairs
            }[case]
    ref = es.eigs_lowest(t, 5)
    calls = _spy_bisection(monkeypatch)
    got = es.eigs_lowest(t, 5, near=near)
    assert calls == [t.n]
    for p, q in zip(got, ref):
        assert p.value == q.value
        assert p.residual == q.residual
        assert np.array_equal(p.vector, q.vector)


def test_overlapping_intervals_fall_back_to_bisection(monkeypatch):
    # two values 4e-16 apart: their residual intervals overlap, so the seeded
    # pairs cannot be told apart by one count above them
    t = tridiag([1.0, 1.0 + 4e-16, 3.0, 5.0], [0.0, 0.0, 0.0])
    assert es._certified_near(t, np.array([1.0, 1.0, 3.0]), 1e-11) is None
    ref = es.eigs_lowest(t, 3)
    calls = _spy_bisection(monkeypatch)
    got = es.eigs_lowest(t, 3, near=[1.0, 1.0, 3.0])
    assert calls == [4]
    assert [p.value for p in got] == [p.value for p in ref]


# -- the seeded cyclic route ----------------------------------------------------

def _spy_locate(monkeypatch):
    calls = []
    locate = es._locate

    def spy(t, k):
        calls.append(t.n)
        return locate(t, k)

    monkeypatch.setattr(es, "_locate", spy)
    return calls


def assert_same_pairs(got, ref):
    for p, q in zip(got, ref, strict=True):
        assert p.value == q.value
        assert p.residual == q.residual
        assert np.array_equal(p.vector, q.vector)


@pytest.mark.parametrize("name", ["A", "B", "two_bd"])
def test_seeded_cyclic_route_matches_the_unseeded_one(name, example_a, example_b,
                                                      example_two_bd, monkeypatch):
    """Witten matrices seeded as circle_lab seeds them: Delta1 with Delta0's
    values on its grid, Delta0 on grid 2n with Delta0's values on grid n."""
    cf = {"A": example_a, "B": example_b, "two_bd": example_two_bd}[name]
    k = max(circle_lab.pairs_needed(cf, degree) for degree in (0, 1))
    t, n = 50.0, 1024
    w, w2 = circle_lab.assemble_witten(cf, t, n), circle_lab.assemble_witten(cf, t, 2 * n)
    values = {id(m): [p.value for p in es.eigs_lowest(m, k, circle_lab.EIG_TOL)]
              for m in (w.delta0, w2.delta0)}
    calls = _spy_locate(monkeypatch)
    for mat, seed in ((w.delta1, w.delta0), (w2.delta0, w.delta0), (w2.delta1, w2.delta0)):
        ref = es.eigs_lowest(mat, k, circle_lab.EIG_TOL)
        calls.clear()
        got = es.eigs_lowest(mat, k, circle_lab.EIG_TOL, near=values[id(seed)])
        assert calls == []                  # the certificate held
        for p, q in zip(got, ref, strict=True):
            slack = 2.0 * es._SLACK * mat.scale
            assert abs(p.value - q.value) <= p.residual + q.residual + slack
            assert abs(np.dot(p.vector, q.vector)) >= 1.0 - 1e-10
            assert p.residual <= circle_lab.EIG_TOL * mat.scale


def test_cyclic_seeds_one_level_off_fall_back(monkeypatch):
    rng = np.random.default_rng(97)
    t = random_tridiag(rng, 40, cyclic=True)
    lam = es.eigvals_lowest(t, 6)
    ref = es.eigs_lowest(t, 5)
    calls = _spy_locate(monkeypatch)
    assert_same_pairs(es.eigs_lowest(t, 5, near=lam[1:]), ref)     # fails the count
    assert calls == [t.n]


def test_overlapping_cyclic_intervals_fall_back(example_b, monkeypatch):
    # B at t = 81: its small pair is noise-level on grid 2n, and the residual
    # intervals of the pair seeded from grid n overlap
    n = circle_lab.default_n_grid(example_b, 81.0)
    coarse = circle_lab.assemble_witten(example_b, 81.0, n).delta0
    mat = circle_lab.assemble_witten(example_b, 81.0, 2 * n).delta0
    k = circle_lab.pairs_needed(example_b, 0)
    near = es.eigvals_lowest(coarse, k)
    ref = es.eigs_lowest(mat, k, circle_lab.EIG_TOL)
    assert es._certified_near(mat, near, circle_lab.EIG_TOL) is None
    calls = _spy_locate(monkeypatch)
    assert_same_pairs(es.eigs_lowest(mat, k, circle_lab.EIG_TOL, near=near), ref)
    assert calls == [mat.n]


def test_a_count_that_raises_inside_the_certificate_falls_back(monkeypatch):
    rng = np.random.default_rng(101)
    t = random_tridiag(rng, 40, cyclic=True)
    near = es.eigvals_lowest(t, 4)
    ref = es.eigs_lowest(t, 4)
    assert es._certified_near(t, near, 1e-11) is not None     # holds unpatched

    def singular(t, lam):
        raise SingularShift("every cut singular")

    monkeypatch.setattr(es, "count_below", singular)
    calls = _spy_locate(monkeypatch)
    assert_same_pairs(es.eigs_lowest(t, 4, near=near), ref)
    assert calls == [t.n]


def test_double_seeds_fall_back_without_a_sweep(monkeypatch):
    # the periodic Laplacian's values above the lowest are exactly double
    n = 64
    t = tridiag(np.full(n, 2.0), np.full(n - 1, -1.0), -1.0)
    near = es.eigvals_lowest(t, 3)
    ref = es.eigs_lowest(t, 3)
    swept = []
    pairs_near = es._pairs_near
    monkeypatch.setattr(es, "_pairs_near",
                        lambda t, lam, tol, ends=None: swept.append(ends is None)
                        or pairs_near(t, lam, tol, ends))
    assert_same_pairs(es.eigs_lowest(t, 3, near=near), ref)
    assert swept == [False]             # only the unseeded route's sweep ran


def test_seeded_route_input_checks():
    rng = np.random.default_rng(23)
    acyclic = random_tridiag(rng, 20, cyclic=False)
    near = es.eigvals_lowest(acyclic, 3)
    for bad in ([near[0], np.nan, near[2]], [near[0], near[1], np.inf], near[:2],
                np.append(near, 9.0)):
        with pytest.raises(DegenerateInput, match="near"):
            es.eigs_lowest(acyclic, 3, near=bad)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-11])
def test_tol_must_be_positive_and_finite(tol):
    rng = np.random.default_rng(29)
    for cyclic in (False, True):
        with pytest.raises(DegenerateInput, match="tol"):
            es.eigs_lowest(random_tridiag(rng, 12, cyclic), 2, tol=tol)
