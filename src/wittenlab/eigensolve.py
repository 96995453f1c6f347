"""Deterministic symmetric eigensolver for (cyclic) tridiagonal matrices.

Acyclic matrices get their lowest eigenvalues from LAPACK dstebz bisection
and their inertia counts from its Sturm counts, exact for a matrix within a
few ulps of the input.  Given k predicted values (`near`, as a Richardson
ladder has them from its coarser grids, or a Witten Laplacian from its
supersymmetric partner), a solve of either shape skips locating them:
inverse iteration runs from shifts just below the predictions, and the
pairs are accepted on one inertia count (`count_below`, `_certified_near`),
or else the unseeded route runs.

A cyclic matrix (periodic corner entries) is read through one cut of the
cycle (`_Cut`): moving m consecutive indices last writes
T - lam I = [[A - lam, B], [B^T, C - lam]], with A the acyclic (n-m) block
and B its border, and S(lam) = C - lam - B^T (A - lam)^{-1} B is the m x m
Schur complement, one tridiagonal solve.  Every cyclic computation reads it:

- Locations cut node n-1 (m = 1).  dstebz gives the lowest eigenvalues mu_j
  of A, Cauchy interlacing puts lambda_j in [mu_{j-1}, mu_j] (closed by
  -scale and scale), and inside that bracket lambda_j is the one sign change
  of the scalar s(lam), whose slope is -1 - |x|^2 with x = (A - lam)^{-1} b.
  Most values sit within DEFLATE_TOL * scale of a bracket end (Witten
  eigenvectors are localized); the others take a safeguarded rational
  iteration of at most LOCATE_EVALS evaluations.  k values cost O(nk).
- Shifted solves are a bordered elimination over the same cut:
  y = (A - sigma)^{-1} r_A, x_n = (r_n - b^T y) / s(sigma) and
  x_A = y - x x_n.  Below the spectrum A - sigma is positive definite, and
  with non-positive couplings (b <= 0, s > 0) every term of a positive
  right-hand side's solution is positive.
- Inertia counts are certified, never clipped: by Haynsworth additivity the
  count below lam is the Sturm count of A plus the negative eigenvalues of
  S(lam).  The cut is moved while A is within SCHUR_SEPARATION * scale of
  singular, which bounds the relative error of S by about
  eps / SCHUR_SEPARATION, and then widened to two indices (a constant
  diagonal at lam makes every odd block singular).

One route (`_pairs_near`) then gives the vectors for both shapes and for
seeded solves: inverse iteration from a shift just below each eigenvalue
or prediction, orthogonalized against the vectors of all lower ones, each
shift factored once (`_ShiftedTridiagSolve`: dpttrf below the spectrum,
where the no-pivot LDL^T keeps the ground vector positive, and dgttrf
elsewhere).  Each value is the Rayleigh quotient of its
vector, written over the row sums and couplings of T so that it does not
cancel, and a cyclic one must lie in its bracket.

Everything is free of RNG: starting vectors are fixed index stencils, all
reductions run in index order, so repeated calls are bit-identical.

This module is the package's one LAPACK entry point (`_lapack`).  It loads
scipy's compiled `scipy.linalg._flapack` extension by file, because
`import scipy.linalg` runs the package's `__init__`, whose array-API shim
loads numpy.f2py, numpy.testing and numpy.ma and doubles every command's
start-up.  The extension is registered in sys.modules under its own name,
so a later `import scipy.linalg` reuses the same module object.  Where the
file is not found the routines come from `scipy.linalg.lapack`, which
re-exports the same Fortran objects.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInput, NoConvergence, SingularShift

# A fixed iteration budget: exceeding it is an error, not silent degradation.
INVIT_SWEEPS = 5
SCHUR_SEPARATION = 1e-9   # times scale: least distance of lam from the cut block's spectrum
DEFLATE_TOL = 1e-13       # times scale: a cyclic value this close to a bracket end is that end
ROOT_TOL = 1e-14          # times scale: bracket width at which the cyclic locator stops
# Schur evaluations per cyclic value: 2 deflation tests, the midpoint and at
# most 2 per halving of a bracket from 2 * scale down to ROOT_TOL * scale.
LOCATE_EVALS = 100
_SLACK = 64.0 * np.finfo(float).eps   # times scale: rounding of a Rayleigh quotient
_FLAPACK = "scipy.linalg._flapack"


def load_lapack(linalg_dir: Path | None = None):
    """The module holding scipy's LAPACK routines, without scipy.linalg's init.

    linalg_dir is where `_flapack<extension suffix>` is looked for; by
    default scipy's own `linalg` directory, found without importing scipy.
    Where no such file is found, `scipy.linalg.lapack` is returned.
    """
    if linalg_dir is None:
        spec = importlib.util.find_spec("scipy")
        if spec is None or spec.origin is None:
            raise ImportError("scipy is required for its LAPACK routines")
        linalg_dir = Path(spec.origin).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(linalg_dir) / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        from scipy.linalg import lapack
        return lapack
    if _FLAPACK in sys.modules:     # scipy.linalg, or an earlier call, loaded it
        return sys.modules[_FLAPACK]
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_FLAPACK]
        raise
    return module


_lapack = load_lapack()


@dataclass(frozen=True)
class SymTridiag:
    """Real symmetric tridiagonal matrix, optionally with cyclic corner entries."""

    diag: np.ndarray
    offdiag: np.ndarray
    corner: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag, dtype=float))
        if self.n < 2:
            raise DegenerateInput("matrix dimension must be at least 2")
        if self.offdiag.shape != (self.n - 1,):
            raise DegenerateInput("offdiag must have length n-1")
        if self.corner is not None:
            object.__setattr__(self, "corner", float(self.corner))
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.offdiag))
                and (self.corner is None or np.isfinite(self.corner))):
            raise DegenerateInput("matrix entries must be finite")

    @property
    def n(self) -> int:
        return len(self.diag)

    @property
    def scale(self) -> float:
        c = 2.0 * abs(self.corner) if self.corner is not None else 0.0
        return max(1.0, float(np.max(np.abs(self.diag))
                              + 2.0 * np.max(np.abs(self.offdiag)) + c))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        if self.corner is not None:
            out[0] += self.corner * v[-1]
            out[-1] += self.corner * v[0]
        return out

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag) + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        if self.corner is not None:
            a[0, -1] += self.corner       # n = 2: corner adds to the off-diagonal
            a[-1, 0] += self.corner
        return a


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float


# -- Sturm counts -------------------------------------------------------------

def _sturm_window(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> int:
    """Eigenvalues of the acyclic tridiagonal (diag, off) in (lo, hi].

    LAPACK dstebz with an infinite tolerance stops right after the Sturm
    counts at the two ends, so this is two O(n) LDL^T sign counts.
    """
    if len(diag) == 1:
        return int(lo < diag[0] <= hi)
    m, _, _, _, info = _lapack.dstebz(diag, off, 1, lo, hi, 0, 0, np.inf, "B")
    if info != 0:
        raise NoConvergence(f"dstebz Sturm count failed with info={info}")
    return int(m)


def _sturm_below(diag: np.ndarray, off: np.ndarray, lam: float) -> int:
    """Eigenvalues of the acyclic tridiagonal (diag, off) strictly below lam."""
    return _sturm_window(diag, off, -np.inf, float(np.nextafter(lam, -np.inf)))


def _check_shift(lam: float) -> float:
    lam = float(lam)
    if not np.isfinite(lam):
        raise DegenerateInput(f"shift must be finite, got {lam}")
    return lam


# -- shifted solves -----------------------------------------------------------

class _ShiftedTridiagSolve:
    """(T - sigma I)^{-1} for the acyclic tridiagonal (diag, off), factored once.

    Below the spectrum T - sigma I is positive definite, which is exactly
    when LAPACK dpttrf succeeds: its no-pivot LDL^T solve only adds positive
    terms when the off-diagonals are non-positive, so a positive right-hand
    side gives a positive solution (the ground-state positivity guarantee).
    Other shifts use the partially pivoted LU of dgttrf.  An exactly zero
    pivot raises SingularShift.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray, sigma: float):
        self.n = n = len(diag)
        shifted = diag - sigma
        self._pad = pad = max(0, 3 - n)
        if pad:     # scipy's dpttrf rejects n = 1 and dgttrf n < 3: add decoupled rows
            shifted, off = np.append(shifted, np.ones(pad)), np.append(off, np.zeros(pad))
        d, e, info = _lapack.dpttrf(shifted, off)
        if info == 0:
            self._pd, self._factors = True, (d, e)
        else:
            dl, du, du1, du2, ipiv, info = _lapack.dgttrf(off, shifted, off)
            if info > 0:
                raise SingularShift(f"shift {sigma:.6e} is an exact eigenvalue")
            self._pd, self._factors = False, (dl, du, du1, du2, ipiv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._pad:
            rhs = np.concatenate([rhs, np.zeros((self._pad,) + rhs.shape[1:])])
        trs = _lapack.dpttrs if self._pd else _lapack.dgttrs
        return trs(*self._factors, rhs)[0][:self.n]


# -- one cut of the cycle -----------------------------------------------------

class _Cut:
    """T - lam I of a cyclic T with the m consecutive indices up to `index` moved last.

    Rolling the cycle so that index is last writes T - lam I as
    [[A - lam, B], [B^T, C - lam]]: A = (diag, off) is the acyclic (n-m)
    block, the border B couples A's last row to the first cut index and its
    first row to the last one, and C is the m x m block of the cut indices.
    The cut at node n-1 with m = 1 keeps the index order of T.  For m = 1, B
    is a vector b and C a number, so that S(lam) is a scalar: the locator
    evaluates it up to LOCATE_EVALS times per eigenvalue.
    """

    def __init__(self, t: SymTridiag, index: int, m: int):
        k, j = t.n - m, index + 1
        ring = np.append(t.offdiag, t.corner)           # ring[i] couples i and i+1 mod n
        d = np.concatenate((t.diag[j:], t.diag[:j]))    # the cycle rolled to end at index
        e = np.concatenate((ring[j:], ring[:j]))
        self.diag, self.off = d[:k], e[:k - 1]
        b = np.zeros((k, m))
        b[-1, 0] += e[k - 1]
        b[0, -1] += e[-1]
        if m == 1:
            self.b, self.c, self._eye = b[:, 0], float(d[k]), 1.0
        else:
            self.b, self._eye = b, np.eye(m)
            self.c = np.diag(d[k:]) + np.diag(e[k:-1], 1) + np.diag(e[k:-1], -1)

    def schur(self, lam: float):
        """(S(lam), X, F): X = (A - lam)^{-1} B and F the factored A - lam."""
        fac = _ShiftedTridiagSolve(self.diag, self.off, lam)
        x = fac.solve(self.b)
        return (self.c - lam * self._eye) - self.b.T @ x, x, fac


def _cuts(n: int) -> list[int]:
    """Indices at which the cycle is cut, in the order they are tried."""
    return list(dict.fromkeys([n - 1, n // 2, n // 4, 3 * n // 4, 0]))


def _count_below_cyclic(t: SymTridiag, lam: float) -> int:
    """Inertia of T - lam I by Haynsworth additivity over a cut of the cycle.

    In(T - lam I) = In(A - lam) + In(S(lam)) for the block and Schur
    complement of any `_Cut`, so the count below lam is the Sturm count of A
    at lam plus that of S at 0.  A must be safely nonsingular at lam: when A
    has an eigenvalue within SCHUR_SEPARATION * scale of lam the cycle is cut
    at another index, then at two adjacent ones, and SingularShift is raised
    if every cut fails.
    """
    sep = SCHUR_SEPARATION * t.scale
    for m in (1, 2):
        for index in _cuts(t.n):
            cut = _Cut(t, index, m)
            if _sturm_window(cut.diag, cut.off, lam - sep, lam + sep):
                continue
            s = np.reshape(cut.schur(lam)[0], (m, m))
            neg = _sturm_below(np.diag(s), np.diag(s, 1), 0.0)
            return _sturm_below(cut.diag, cut.off, lam) + neg
    raise SingularShift(
        f"every cut of the cycle leaves a block singular at {lam:.6e}")


def count_below(t: SymTridiag, lam: float) -> int:
    """Inertia count below lam, valid for both acyclic and cyclic matrices."""
    lam = _check_shift(lam)
    if t.corner is None:
        return _sturm_below(t.diag, t.offdiag, lam)
    if t.n == 2:        # a 2-cycle's corner adds to its one coupling
        return _sturm_below(t.diag, t.offdiag + t.corner, lam)
    return _count_below_cyclic(t, lam)


def _apply_shifted_inverse_cyclic(t: SymTridiag, sigma: float):
    """O(n) application of (T - sigma I)^{-1} for a cyclic T, factored once.

    Bordered elimination over the cut at node n-1: y = (A - sigma)^{-1} r_A,
    x_n = (r_n - b^T y) / s(sigma), x_A = y - x x_n.  SingularShift is
    raised when s(sigma) is zero or not finite.
    """
    cut = _Cut(t, t.n - 1, 1)
    s, x, fac = cut.schur(sigma)
    if s == 0.0 or not np.isfinite(s):
        raise SingularShift(f"cut node's Schur complement is {s} at shift {sigma:.6e}")

    def apply(rhs):
        y = fac.solve(rhs[:-1])
        xn = (rhs[-1] - np.dot(cut.b, y)) / s
        return np.append(y - x * xn, xn)

    return apply


# -- error-free transformations -------------------------------------------------

def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e == a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e == a * b exactly (Dekker).

    Veltkamp's split multiplies by 2**27 + 1, so |a| and |b| must stay
    below about 1e300.
    """
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a):
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _edge_form(t: SymTridiag) -> tuple[np.ndarray, np.ndarray]:
    """(ring, rho) with v^T T v = sum rho_i v_i^2 - sum ring_i (v_i - v_{i+1})^2.

    ring[i] couples i and i+1 mod n (0 past the end of an acyclic matrix) and
    rho holds the row sums, each rounded once.  The rows of a Laplacian-like
    T cancel to far below its entries, so the quotient written this way keeps
    an error of eps times those row sums, where its plain form v^T (T v)
    keeps eps * |T| |v|: most of the digits of an eigenvalue far below scale.
    """
    ring = np.append(t.offdiag, 0.0 if t.corner is None else t.corner)
    s, e = two_sum(t.diag, ring)
    s, f = two_sum(s, np.roll(ring, 1))
    return ring, s + (e + f)


def _rayleigh_quotient(ring: np.ndarray, rho: np.ndarray, v: np.ndarray) -> float:
    dv = v - np.roll(v, -1)
    return float((np.dot(rho, v * v) - np.dot(ring, dv * dv)) / np.dot(v, v))


# -- deterministic start vectors ----------------------------------------------

def _stencil_vector(n: int, seq: int) -> np.ndarray:
    """All-ones perturbed by an index-dependent hash stencil; no RNG state.

    The splitmix64 finalizer gives the perturbation uniform overlap with all
    eigenvector symmetry classes; entries stay strictly positive, which the
    ground-state positivity guarantee relies on. seq advances restarts.
    """
    # the offset wraps mod 2**64 in Python integers: numpy scalars would overflow
    offset = (seq * 0x9E3779B97F4A7C15 + 0x243F6A8885A308D3) % 2 ** 64
    z = np.arange(n, dtype=np.uint64) + np.uint64(offset)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = z.astype(np.float64) / 2.0 ** 64
    v = 1.0 + 0.9 * (u - 0.5)
    return v / np.linalg.norm(v)


# -- eigenvalue locations -------------------------------------------------------

def _lowest_acyclic(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """k smallest eigenvalues of the acyclic tridiagonal (diag, off), by dstebz."""
    if len(diag) == 1:
        return diag.copy()
    m, w, _, _, info = _lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, k, 0.0, "E")
    if info != 0 or m != k:
        raise NoConvergence(f"dstebz returned {m}/{k} values, info={info}")
    return w[:k].copy()


def _root_in_bracket(schur, lo: float, hi: float, lo_pole: bool, hi_pole: bool,
                     scale: float) -> float:
    """The sign change of the decreasing Schur scalar s in its bracket [lo, hi].

    An end that is a pole of s (an eigenvalue of the cut block) is the root
    when s has not changed sign DEFLATE_TOL * scale inside it.  Otherwise the
    midpoint's sign picks the pole nearer the root, and each step is the
    root of the model c + p / (pole - lam) osculating s at the better of the
    two points that set the bracket ends (Bunch, Nielsen and Sorensen 1978);
    a bisection replaces it when it leaves the bracket or the last step did
    not halve the bracket.  Steps shorter than ROOT_TOL * scale / 2 are
    lengthened to that, so that they cross the root and close the bracket.
    """
    tau, tol = DEFLATE_TOL * scale, ROOT_TOL * scale
    evals = 0

    def at(x):
        nonlocal evals
        if evals == LOCATE_EVALS:
            raise NoConvergence(f"cyclic locator: bracket [{lo:.6e}, {hi:.6e}] wider "
                                f"than {tol:.3e} after {LOCATE_EVALS} Schur evaluations")
        evals += 1
        s, ds = schur(x)
        if not np.isfinite(s):
            raise NoConvergence(f"Schur scalar is not finite at {x:.6e}")
        return s, ds

    if hi - lo <= 2.0 * tau:
        return 0.5 * (lo + hi)
    pole_lo, pole_hi = lo, hi
    if hi_pole:
        if at(hi - tau)[0] > 0.0:
            return hi
        hi -= tau
    if lo_pole:
        if at(lo + tau)[0] < 0.0:
            return lo
        lo += tau
    x, pole, bisect = 0.5 * (lo + hi), None, False
    anchors = {}                        # the evaluations that set lo (True) and hi (False)
    while hi - lo > tol:
        s, ds = at(x)
        if s == 0.0:
            return x
        width = hi - lo
        lo, hi = (x, hi) if s > 0.0 else (lo, x)
        anchors[s > 0.0] = (x, s, ds)
        if pole is None:
            pole = pole_hi if (s > 0.0 and hi_pole) or not lo_pole else pole_lo
        y, step = 0.5 * (lo + hi), np.inf
        for ax, a_s, a_ds in ([] if bisect else anchors.values()):
            c = a_s - a_ds * (pole - ax)
            cand = pole + a_ds * (pole - ax) ** 2 / c if c else np.nan
            if abs(cand - ax) < 0.5 * tol:
                cand = ax + np.copysign(0.5 * tol, a_s)
            if lo < cand < hi and abs(cand - ax) < step:
                y, step = cand, abs(cand - ax)
        bisect = hi - lo > 0.5 * width
        x = y
    return 0.5 * (lo + hi)


def _locate_cyclic(t: SymTridiag, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenvalues of a cyclic matrix and the k + 1 ends of their brackets.

    lambda_j lies in [ends[j], ends[j + 1]]: the eigenvalues of the block A
    left by cutting node n-1, closed by -scale and scale, which bound the
    spectrum.
    """
    n = t.n
    cut = _Cut(t, n - 1, 1)
    mu = _lowest_acyclic(cut.diag, cut.off, min(k, n - 1))
    ends = np.concatenate([[-t.scale], mu, [t.scale]])[:k + 1]

    def schur(lam):
        s, x, _ = cut.schur(lam)
        return float(s), float(-1.0 - np.dot(x, x))

    lam = np.array([_root_in_bracket(schur, ends[j], ends[j + 1], j > 0, j < n - 1, t.scale)
                    for j in range(k)])
    return lam, ends


def _locate(t: SymTridiag, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """k smallest eigenvalues, ascending, and for a cyclic matrix their brackets."""
    _check_k(t, k)
    if t.corner is None:
        return _lowest_acyclic(t.diag, t.offdiag, k), None
    return _locate_cyclic(t, k)


def eigvals_lowest(t: SymTridiag, k: int) -> np.ndarray:
    """k smallest eigenvalues, ascending, without vectors.

    Acyclic matrices use dstebz bisection; cyclic ones dstebz on the block
    left by cutting node n-1 and the sign of the cut node's Schur scalar
    inside each interlacing bracket, O(nk) for both.
    """
    return _locate(t, k)[0]


def _check_k(t: SymTridiag, k: int):
    if not 1 <= k <= t.n:
        raise DegenerateInput(f"need 1 <= k <= n, got k={k}, n={t.n}")


# -- inverse iteration ----------------------------------------------------------

def _inverse_iteration(apply_inv, t: SymTridiag, v: np.ndarray,
                       ortho: list[np.ndarray],
                       tol_abs: float) -> tuple[np.ndarray, float]:
    """Inverse iteration from v with the shifted solve apply_inv, orthogonal to ortho.

    ortho holds the vectors of all lower eigenvalues: projecting them out
    separates equal eigenvalues, and near-equal ones, whose vectors inverse
    iteration alone leaves eps * scale / gap apart from orthogonal.  One
    sweep past the first residual below tol_abs polishes the vector from
    about 1e-13 * scale to rounding level.
    """
    theta, res, met = np.nan, np.inf, False
    for sweep in range(INVIT_SWEEPS):
        w = apply_inv(v)
        for q in ortho:
            w -= np.dot(q, w) * q
        nw = np.linalg.norm(w)
        if nw == 0.0 or not np.isfinite(nw):
            v = _stencil_vector(t.n, sweep + 1)
            continue
        v = w / nw
        tv = t.matvec(v)
        theta = float(np.dot(v, tv))
        res = float(np.linalg.norm(tv - theta * v))
        if res <= tol_abs:
            if met:
                return v, res
            met = True
    raise NoConvergence(
        f"inverse iteration: residual {res:.3e} > {tol_abs:.3e} "
        f"after {INVIT_SWEEPS} sweeps")


def _pairs_near(t: SymTridiag, lam: np.ndarray, tol: float,
                ends: np.ndarray | None = None) -> tuple[list[EigenPair], np.ndarray]:
    """One pair per value of lam, by inverse iteration from a shift just below it.

    Returns the pairs in the order of lam and the shifts they came from.  A
    cyclic pair j must have its Rayleigh quotient in the interlacing bracket
    [ends[j], ends[j + 1]], widened by its residual and by the rounding of the
    quotient and of the bracket ends (64 eps * scale); otherwise inverse
    iteration found a neighbour and NoConvergence is raised.
    """
    k, scale = len(lam), t.scale
    gaps = np.full(k, np.inf)
    if k > 1:
        gaps[:-1] = np.diff(lam)
        gaps[1:] = np.minimum(gaps[1:], gaps[:-1])
    # a shift a small fraction of the gap below the target gives fast
    # convergence; below the spectrum the acyclic factorization is an
    # M-matrix, which keeps the ground vector entrywise positive
    sigma = lam - np.clip(1e-3 * gaps, 1e-12 * scale, 1e-9 * scale)
    start = _stencil_vector(t.n, 0)
    ring, rho = _edge_form(t)
    pairs: list[EigenPair] = []
    for j in range(k):
        if t.corner is None:
            apply_inv = _ShiftedTridiagSolve(t.diag, t.offdiag, float(sigma[j])).solve
        else:
            apply_inv = _apply_shifted_inverse_cyclic(t, float(sigma[j]))
        v, res = _inverse_iteration(apply_inv, t, start, [p.vector for p in pairs],
                                    tol * scale)
        theta = _rayleigh_quotient(ring, rho, v)
        if ends is not None:
            slack = res + _SLACK * scale
            if not ends[j] - slack <= theta <= ends[j + 1] + slack:
                raise NoConvergence(
                    f"eigenpair {j}: Rayleigh quotient {theta:.6e} outside its "
                    f"bracket [{ends[j]:.6e}, {ends[j + 1]:.6e}] widened by {slack:.3e}")
        pairs.append(EigenPair(theta, v, res))
    return pairs, sigma


def _certified_near(t: SymTridiag, near: np.ndarray, tol: float) -> list[EigenPair] | None:
    """The k lowest pairs of t found from shifts below near, or None.

    Each pair's interval [theta_j - r_j, theta_j + r_j], r_j its residual
    plus 64 eps * scale, holds an eigenvalue (the residual bound; Parlett,
    The Symmetric Eigenvalue Problem).  The pairs are accepted only when
    these intervals are ascending and disjoint, every shift lies below its
    interval (so the ground shift was factored below the spectrum), and one
    inertia count (`count_below`: Sturm for an acyclic t, the cut's
    Haynsworth count for a cyclic one) puts exactly k eigenvalues below the
    top one's upper end: then the intervals hold the k lowest eigenvalues,
    one each.  A seeded sweep that does not converge, or a count that
    raises, returns None too, and so do seeds that do not ascend by more
    than eps * scale, without a sweep: they predict a double value (a free
    circle mode's, say), which no two disjoint intervals can hold.
    """
    if np.any(np.diff(near) <= np.finfo(float).eps * t.scale):
        return None
    try:
        pairs, sigma = _pairs_near(t, near, tol)
        theta = np.array([p.value for p in pairs])
        r = np.array([p.residual for p in pairs]) + _SLACK * t.scale
        if (np.all(theta[1:] - r[1:] > theta[:-1] + r[:-1])
                and np.all(sigma < theta - r)
                and count_below(t, theta[-1] + r[-1]) == len(near)):
            return pairs
    except (NoConvergence, SingularShift):
        pass
    return None


def eigs_lowest(t: SymTridiag, k: int, tol: float = 1e-11,
                near: np.ndarray | None = None) -> list[EigenPair]:
    """k smallest eigenpairs, ascending; deterministic, residual <= tol * scale.

    Each value is the Rayleigh quotient of its inverse-iteration vector.  The
    shifts come from near, k predicted values of t (acyclic or cyclic), when
    given: the pairs found from them are returned only with their
    certificate (`_certified_near`), which costs one inertia count
    (`count_below`) instead of locating k values.  Without near, or when the
    certificate fails, its count raises, or the seeded iteration does not
    converge, the shifts come from the bisected values (acyclic) or the
    located ones (cyclic, `_pairs_near` checks each against its bracket), so
    every pair returned is certified.
    """
    if not (tol > 0 and np.isfinite(tol)):
        raise DegenerateInput(f"tol must be a positive finite number, got {tol}")
    if near is not None:
        _check_k(t, k)
        near = np.asarray(near, dtype=float)
        if near.shape != (k,) or not np.all(np.isfinite(near)):
            raise DegenerateInput(f"near must hold {k} finite values, got {near}")
        pairs = _certified_near(t, near, tol)
        if pairs is not None:
            return pairs
    lam, ends = _locate(t, k)
    pairs = _pairs_near(t, lam, tol, ends)[0]
    pairs.sort(key=lambda p: p.value)
    return pairs
