"""Deformed de Rham complex on the circle for generalized Morse functions.

A circle function is a trigonometric-polynomial derivative with classified
critical data (nondegenerate minima/maxima plus birth-death points).  The
conjugated difference d(t) on a staggered grid gives supersymmetric factored
Laplacians Delta0 = D^T D on nodes and Delta1 = D D^T on midpoints; their
low spectra split into the small / per-birth-death large / very large
clusters whose counts, t^{2/3} scaling, and localized bases are probed here.

The difference operator discretizes e^{-tf} d e^{tf} by exact conjugation:
(Du)_{i+1/2} = (e^{t(f_{i+1}-f_{i+1/2})} u_{i+1} - e^{t(f_i-f_{i+1/2})} u_i)/h.
This keeps the discrete kernel equal to the sampled e^{-tf} exactly and makes
summation by parts exact, which the chain-map comparisons depend on.

Everything spectral about one deformation strength is read off one
`CircleSolve`: the matrices of both degrees on one grid and the lowest
eigenpairs of each, built once by `circle_solve(cf, t, n_grid, k_eigs)`, the
only code that assembles or eigensolves a Witten matrix; k_eigs defaults to
the most pairs that a degree reads (`pairs_needed`).  Only the first
eigensolve is unseeded.  Delta1 = D D^T has the spectrum of Delta0 = D^T D
(D is square), so Delta0's values seed it; the Richardson partner on twice
the grid (`doubled`) seeds its Delta0 with grid n's values and its Delta1
with its own Delta0's.  Each seeded solve keeps its pairs only on a
certificate of one inertia count, and otherwise solves unseeded
(`eigensolve.eigs_lowest`).  Callers (the CLI, the
tests) build the solves and pass them down: `spectral_clusters` certifies the
counts on a solve's grid and, given a second solve of the same function and t
on twice the grid, reports Richardson-extrapolated values (4 E_2n - E_n) / 3;
`low_complex` reads the small+large subcomplex Omega_0(M, t) off the solve as
one `LowComplex` (its eigenforms of both degrees and the pairings of d(t) on
them), and the eq. (7) defects are read off that.  The constants come from
the one committed table (`load_constants`).  Nothing is cached between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eigensolve
from .constants import load_constants
from .eigensolve import SymTridiag
from .errors import (AssumptionViolated, ClusterOverlap, DegenerateClassification,
                     DegenerateInput, GridTooCoarse, MeanZeroUnreachable,
                     NotAffinelySelfIndexable, ProjectionDegenerate, WeightOverflow)
from .logspace import LogVector

TWO_PI = 2.0 * math.pi


# -- circle functions ----------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    theta: float
    kind: str                  # "nd" | "bd"
    index: int                 # Morse index for nd; 0 for bd on the circle
    f_value: float
    a: float | None = None     # cubic coefficient, birth-death only


@dataclass(frozen=True)
class CircleFunction:
    """f' as a finite trigonometric polynomial, plus classified critical data.

    cos_coeffs[m], sin_coeffs[m] are the coefficients of cos(m theta) and
    sin(m theta) in f'; index 0 is unused (mean-zero derivative).  f itself
    is the exact antiderivative shifted by `offset`.  critical_points are
    kept in increasing angle.
    """
    cos_coeffs: tuple[float, ...]
    sin_coeffs: tuple[float, ...]
    offset: float
    critical_points: tuple[CriticalPoint, ...]
    self_indexed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "critical_points",
                           tuple(sorted(self.critical_points, key=lambda p: p.theta)))

    def _series(self, theta, c_fn, s_fn, power: int):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for m in range(1, len(self.cos_coeffs)):
            c, s = self.cos_coeffs[m], self.sin_coeffs[m]
            fm = float(m) ** power
            if c:
                out += c * fm * c_fn(m * theta)
            if s:
                out += s * fm * s_fn(m * theta)
        return out

    def fprime(self, theta):
        return self._series(theta, np.cos, np.sin, 0)

    def f(self, theta):
        val = self._series(theta, np.sin, lambda x: -np.cos(x), -1)
        return val + self.offset

    def fpp(self, theta):
        return self._series(theta, lambda x: -np.sin(x), np.cos, 1)

    def fppp(self, theta):
        return self._series(theta, lambda x: -np.cos(x), lambda x: -np.sin(x), 2)

    @property
    def minima(self):
        return [p for p in self.critical_points if p.kind == "nd" and p.index == 0]

    @property
    def maxima(self):
        return [p for p in self.critical_points if p.kind == "nd" and p.index == 1]

    @property
    def bd_points(self):
        return [p for p in self.critical_points if p.kind == "bd"]

    @property
    def labels(self) -> dict[str, CriticalPoint]:
        """min<i>, max<i> and bd<i>, each counted by angle, mapped to the point.

        The one naming of the critical points that every layer shares: the
        clusters, bases and cells of a birth-death point bd<i> carry its label
        (cells bd<i>:0 and bd<i>:1).  Iterates in angle order.
        """
        out, counts = {}, {"min": 0, "max": 0, "bd": 0}
        for p in self.critical_points:
            key = "bd" if p.kind == "bd" else ("min" if p.index == 0 else "max")
            out[f"{key}{counts[key]}"] = p
            counts[key] += 1
        return out

    def m_count(self, degree: int) -> int:
        return sum(1 for p in self.critical_points
                   if p.kind == "nd" and p.index == degree)


def _wrap(theta: float) -> float:
    return theta % TWO_PI


def _raw_product(theta, simple, double):
    theta = np.asarray(theta, dtype=float)
    out = np.ones_like(theta)
    for z in simple:
        out = out * (2.0 * np.sin(0.5 * (theta - z)))
    for z in double:
        out = out * (4.0 * np.sin(0.5 * (theta - z)) ** 2)
    return out


def _fourier_coeffs(samples: np.ndarray, top: int):
    n = len(samples)
    spec = np.fft.rfft(samples) / n
    cos_c = [0.0] * (top + 1)
    sin_c = [0.0] * (top + 1)
    for m in range(1, top + 1):
        cos_c[m] = 2.0 * spec[m].real
        sin_c[m] = -2.0 * spec[m].imag
    return cos_c, sin_c, float(spec[0].real)


def build_circle_function(simple_zeros, double_zeros) -> CircleFunction:
    """Assemble a circle function from prescribed zero sets of f'.

    f' is the product of 2 sin((theta-z)/2) over simple zeros and
    4 sin^2((theta-z)/2) over double zeros, normalized so the top cosine
    harmonic has coefficient +1; the first simple zero is moved, if needed,
    to make f' mean-zero so that f closes up around the circle.
    """
    simple = [_wrap(z) for z in simple_zeros]
    double = [_wrap(z) for z in double_zeros]
    total = len(simple) + 2 * len(double)
    if not simple and not double:
        raise DegenerateInput("at least one critical point is required")
    if total % 2 or total < 2:
        raise DegenerateInput("zero count (doubles twice) must be even and >= 2")
    allz = simple + double
    if len(allz) != len(set(np.round(allz, 12))):
        raise DegenerateInput("zeros must be distinct")

    n_grid = 1024
    th = np.arange(n_grid) * (TWO_PI / n_grid)

    def mean_of(z0: float) -> float:
        return float(np.mean(_raw_product(th, [z0] + simple[1:], double)))

    if not simple:
        # all double zeros: f' has one sign, the mean cannot vanish
        raise MeanZeroUnreachable("no simple zero available to move")
    z0 = simple[0]
    m0 = mean_of(z0)
    others = sorted(_wrap(z - z0) for z in (simple[1:] + double))
    gap = min(others[0], TWO_PI - others[-1]) if others else TWO_PI
    window = 0.45 * gap
    if abs(m0) > 1e-13:
        lo, hi = z0 - window, z0 + window
        flo, fhi = mean_of(lo), mean_of(hi)
        if flo * fhi > 0:
            raise MeanZeroUnreachable(
                f"mean {m0:.3e} does not change sign within +-{window:.3f}")
        # imported here: at module level scipy.optimize adds ~0.25 s to every command's start-up
        import scipy.optimize
        z0 = float(scipy.optimize.brentq(mean_of, lo, hi, xtol=1e-15))
    simple = [z0] + simple[1:]

    top = total // 2
    samples = _raw_product(th, simple, double)
    cos_c, sin_c, c0 = _fourier_coeffs(samples, top)
    if abs(c0) > 1e-10:
        raise MeanZeroUnreachable(f"residual mean {c0:.3e} after root-finding")
    lead = cos_c[top]
    if abs(lead) < 1e-9:
        lead = sin_c[top]
    cos_c = tuple(c / lead for c in cos_c)
    sin_c = tuple(s / lead for s in sin_c)

    proto = CircleFunction(cos_c, sin_c, 0.0, ())
    crits = []
    for z in sorted(simple):
        fpp = float(proto.fpp(z))
        if abs(fpp) < 1e-9:
            raise DegenerateClassification(f"|f''|={abs(fpp):.2e} at simple zero {z:.4f}")
        crits.append(CriticalPoint(z, "nd", 0 if fpp > 0 else 1,
                                   float(proto.f(z))))
    for z in sorted(double):
        fpp = float(proto.fpp(z))
        fppp = float(proto.fppp(z))
        if abs(fppp) < 1e-9:
            raise DegenerateClassification(
                f"|f''|={abs(fpp):.2e}, |f'''|={abs(fppp):.2e} at double zero {z:.4f}")
        crits.append(CriticalPoint(z, "bd", 0, float(proto.f(z)), a=fppp / 6.0))
    cf = CircleFunction(cos_c, sin_c, 0.0, tuple(crits))
    _check_distinct_a(cf)
    return cf


def _check_distinct_a(cf: CircleFunction):
    mags = sorted(abs(p.a) for p in cf.bd_points)
    for x, y in zip(mags, mags[1:]):
        if abs(x - y) < 1e-9 * max(x, y):
            raise DegenerateInput(
                "birth-death cubic coefficients must have distinct magnitudes")


def rescale(cf: CircleFunction, alpha: float, beta: float = 0.0,
            self_indexed: bool = False) -> CircleFunction:
    """alpha * f + beta; cubic coefficients scale by alpha."""
    if alpha == 0:
        raise DegenerateInput("alpha must be nonzero")
    crits = tuple(
        replace(p, f_value=alpha * p.f_value + beta,
                a=(alpha * p.a if p.a is not None else None))
        for p in cf.critical_points)
    return CircleFunction(
        tuple(alpha * c for c in cf.cos_coeffs),
        tuple(alpha * s for s in cf.sin_coeffs),
        alpha * cf.offset + beta, crits, self_indexed=self_indexed)


def affine_self_index(cf: CircleFunction) -> CircleFunction:
    """Affine rescale onto [0, 1]: minima -> 0, maxima -> 1.

    Requires all minima to share one value and all maxima another; every
    birth-death value must land strictly inside (0, 1).
    """
    mins = [p.f_value for p in cf.minima]
    maxs = [p.f_value for p in cf.maxima]
    if not mins or not maxs:
        raise NotAffinelySelfIndexable("need at least one minimum and one maximum")
    spread = max(maxs) - min(mins)
    if max(mins) - min(mins) > 1e-9 * spread:
        raise NotAffinelySelfIndexable("minima values differ; affine map insufficient")
    if max(maxs) - min(maxs) > 1e-9 * spread:
        raise NotAffinelySelfIndexable("maxima values differ; affine map insufficient")
    alpha = 1.0 / (maxs[0] - mins[0])
    beta = -alpha * mins[0]
    out = rescale(cf, alpha, beta, self_indexed=True)
    for p in out.bd_points:
        if not 0.0 < p.f_value < 1.0:
            raise NotAffinelySelfIndexable(
                f"birth-death value {p.f_value} outside (0, 1)")
    return out


_EXAMPLE_B_SIMPLE = (0.55, 1.85, 3.25, 4.35)
_EXAMPLE_B_DOUBLE = (5.45,)
_EXAMPLE_B_RANGE = 0.32


def example_function(name: str) -> CircleFunction:
    """The two stock examples.

    "A": one minimum, one maximum, one birth-death point; affinely
    self-indexed (min 0, max 1, cubic coefficient -sqrt(3)/9).
    "B": two minima, two maxima, one birth-death point, distinct minima
    values (not self-indexable); scaled to a small range so tunneling
    amplitudes stay numerically resolvable over its t schedule.
    """
    if name == "A":
        raw = build_circle_function([np.pi / 3, -np.pi / 3], [np.pi])
        return affine_self_index(raw)
    if name == "B":
        raw = build_circle_function(list(_EXAMPLE_B_SIMPLE), list(_EXAMPLE_B_DOUBLE))
        vals = [p.f_value for p in raw.critical_points]
        alpha = _EXAMPLE_B_RANGE / (max(vals) - min(vals))
        return rescale(raw, alpha, -alpha * min(vals))
    raise DegenerateInput(f"unknown example {name!r}")


def default_t_schedule(name: str) -> list[float]:
    if name == "A":
        return [50.0, 100.0, 200.0, 400.0, 800.0]
    if name == "B":
        return [24.0, 36.0, 54.0, 81.0]
    raise DegenerateInput(f"unknown example {name!r}")


# -- Witten matrices -----------------------------------------------------------

@dataclass(frozen=True)
class WittenMatrices:
    t: float
    n_grid: int
    h: float
    f_nodes: np.ndarray
    f_mids: np.ndarray
    wplus: np.ndarray      # coefficient of u_{i+1} in (Du)_{i+1/2}
    wminus: np.ndarray     # coefficient of u_i
    delta0: SymTridiag
    delta1: SymTridiag

    def apply_d(self, u: np.ndarray) -> np.ndarray:
        return self.wplus * np.roll(u, -1) - self.wminus * u

    def apply_d_log(self, u: LogVector) -> LogVector:
        """d(t) on a signed-log 0-form; exact at any deformation strength."""
        l1 = np.log(self.wplus) + np.roll(u.log, -1)
        s1 = np.roll(u.sign, -1)
        l2 = np.log(self.wminus) + u.log
        s2 = u.sign
        m = np.maximum(l1, l2)
        m = np.where(np.isfinite(m), m, 0.0)
        val = s1 * np.exp(l1 - m) - s2 * np.exp(l2 - m)
        sign = np.sign(val)
        with np.errstate(divide="ignore"):
            log = np.where(sign == 0.0, -np.inf, m + np.log(np.abs(val)))
        return LogVector(sign, log)

    def kernel_node_logvec(self) -> LogVector:
        """The exact discrete kernel e^{-t f} on nodes, unit norm, log form."""
        lv = LogVector(np.ones(self.n_grid), -self.t * self.f_nodes)
        return lv.normalized()

    def kernel_mid_logvec(self) -> LogVector:
        """The exact discrete cokernel e^{+t f} on midpoints, unit norm."""
        lv = LogVector(np.ones(self.n_grid), self.t * self.f_mids)
        return lv.normalized()


def default_n_grid(cf: CircleFunction, t: float) -> int:
    need = 40.0 * math.sqrt(t)
    return max(4096, 64 * math.ceil(need / 64.0))


def _sum_of_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^2 + b^2 rounded once (faithfully), not three times.

    Delta0 and Delta1 share their off-diagonal products but not their
    diagonals; a diagonal rounded once keeps the stored pair closer to
    D^T D and D D^T, whose nonzero spectra coincide.
    """
    p, e = eigensolve.two_product(a, a)
    q, f = eigensolve.two_product(b, b)
    s, g = eigensolve.two_sum(p, q)
    return s + (g + e + f)


# Largest log of a Witten weight e^{t (f_j - f_mid)} / h: its square stays a
# sixteenth of the largest double, room for a diagonal's sum of two squares
# and for the scale |diag| + 2 |off| + 2 |corner|.
LOG_WEIGHT_MAX = 0.5 * (math.log(np.finfo(float).max) - math.log(16.0))


def assemble_witten(cf: CircleFunction, t: float, n_grid: int) -> WittenMatrices:
    if n_grid < 64 or n_grid < 40.0 * math.sqrt(t):
        raise GridTooCoarse(
            f"n_grid={n_grid} below max(64, 40 sqrt(t)={40*math.sqrt(t):.0f})")
    h = TWO_PI / n_grid
    nodes = np.arange(n_grid) * h
    mids = nodes + 0.5 * h
    fn = cf.f(nodes)
    fm = cf.f(mids)
    fn_next = np.roll(fn, -1)
    reach = t * max(float(np.max(np.abs(fn_next - fm))), float(np.max(np.abs(fn - fm))))
    if reach - math.log(h) > LOG_WEIGHT_MAX:
        raise WeightOverflow(
            f"t * max|f(node) - f(mid)| = {reach:.4g} over a half cell of n_grid={n_grid}"
            f" puts a Witten weight past e^{LOG_WEIGHT_MAX:.1f}; refine the grid or lower t")
    wplus = np.exp(t * (fn_next - fm)) / h
    wminus = np.exp(t * (fn - fm)) / h
    d0_diag = _sum_of_squares(wminus, np.roll(wplus, 1))
    d0_off = -(wminus * wplus)[:-1]
    d0_corner = -wminus[-1] * wplus[-1]
    d1_diag = _sum_of_squares(wplus, wminus)
    d1_off = -(wplus[:-1] * wminus[1:])
    d1_corner = -wplus[-1] * wminus[0]
    return WittenMatrices(
        t, n_grid, h, fn, fm, wplus, wminus,
        SymTridiag(d0_diag, d0_off, corner=d0_corner),
        SymTridiag(d1_diag, d1_off, corner=d1_corner))


EIG_TOL = 1e-11     # residual bound of the Witten eigenpairs, times scale


@dataclass(frozen=True)
class CircleSolve:
    """The Witten Laplacians of one circle function at one (t, grid), solved.

    Holds the assembled matrices of both degrees and the k_eigs lowest
    eigenpairs of each degree.  D is square (n nodes to n midpoints), so
    Delta0 = D^T D and Delta1 = D D^T share their whole spectrum: Delta0 is
    solved first and its values seed Delta1.  Built only by `circle_solve`,
    the one place that assembles or eigensolves a Witten matrix; the cluster
    reports, bases, pairings and chain maps are all read off a solve.  A
    Richardson-extrapolated report pairs the solve of grid n with a second
    solve of the same function and t on grid 2n (`doubled`), whose Delta0 is
    seeded with grid n's values.
    """
    cf: CircleFunction
    k_eigs: int
    w: WittenMatrices
    pairs: tuple                  # [degree] -> list[EigenPair], ascending

    @property
    def t(self) -> float:
        return self.w.t

    @property
    def n_grid(self) -> int:
        return self.w.n_grid

    def matrix(self, degree: int) -> SymTridiag:
        return self.w.delta0 if degree == 0 else self.w.delta1

    def values(self, degree: int) -> np.ndarray:
        return np.array([p.value for p in self.pairs[degree]])


def pairs_needed(cf: CircleFunction, degree: int) -> int:
    """Lowest pairs of one degree that its clusters and Omega_0(M, t) read: its
    m_k small ones, one large per birth-death point and one above them."""
    return cf.m_count(degree) + len(cf.bd_points) + 1


def circle_solve(cf: CircleFunction, t: float, n_grid: int | None = None,
                 k_eigs: int | None = None,
                 coarse: CircleSolve | None = None) -> CircleSolve:
    """Assemble Delta0 and Delta1 once and solve each for its k_eigs lowest pairs.

    Delta1 is seeded with Delta0's values, its supersymmetric partner's
    spectrum.  coarse, a solve of the same function, t and k_eigs on a
    coarser grid, seeds Delta0 with its degree-0 values.  A seeded solve
    returns only certified pairs, or else solves as if unseeded
    (`eigensolve.eigs_lowest`).
    """
    if not (t > 0 and math.isfinite(t)):
        raise DegenerateInput(f"t must be a positive finite number, got {t}")
    if n_grid is None:
        n_grid = default_n_grid(cf, t)
    if k_eigs is None:
        k_eigs = max(pairs_needed(cf, degree) for degree in (0, 1))
    if coarse is not None and (coarse.cf != cf or coarse.t != t or coarse.k_eigs != k_eigs):
        raise DegenerateInput("a coarse seed must solve the same function, t and k_eigs")
    w = assemble_witten(cf, t, n_grid)
    near = None if coarse is None else coarse.values(0)
    pairs0 = eigensolve.eigs_lowest(w.delta0, k_eigs, tol=EIG_TOL, near=near)
    pairs1 = eigensolve.eigs_lowest(w.delta1, k_eigs, tol=EIG_TOL,
                                    near=[p.value for p in pairs0])
    return CircleSolve(cf, k_eigs, w, (pairs0, pairs1))


def doubled(solve: CircleSolve) -> CircleSolve:
    """The Richardson partner of a solve: the same function, t and k_eigs on
    twice its grid, seeded from it."""
    return circle_solve(solve.cf, solve.t, 2 * solve.n_grid, solve.k_eigs, coarse=solve)


# -- clusters -------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterReport:
    degree: int
    t: float
    n_grid: int
    epsilon: float
    small: np.ndarray             # eigenvalues (not rescaled)
    large: dict                   # bd label -> eigenvalue
    index: dict                   # bd label -> position of its pair in the solve's pairs
    very_large_floor: float | None
    counts: dict
    extrapolated: bool


def choose_epsilon(cf: CircleFunction) -> float:
    """0.9 times the disjointness bound for the cluster interval family."""
    e1, e2 = load_constants()["e"][:2]
    mags = sorted(abs(p.a) for p in cf.bd_points)
    if not mags:
        return 1.0           # Morse case: any fixed window works
    b = [m ** (2.0 / 3.0) for m in mags]
    if not e2 * b[0] > e1 * b[-1]:
        raise AssumptionViolated(
            f"e2 |a_min|^(2/3) = {e2*b[0]:.4f} must exceed "
            f"e1 |a_max|^(2/3) = {e1*b[-1]:.4f}")
    cands = [0.5 * e1 * b[0], 0.5 * (e2 * b[0] - e1 * b[-1])]
    for x, y in zip(b, b[1:]):
        cands.append(0.5 * e1 * (y - x))
    return 0.9 * min(cands)


def spectral_clusters(solve: CircleSolve, doubled: CircleSolve | None = None,
                      strict_floor: bool = True) -> dict[int, ClusterReport]:
    """Partition the low spectra of both degrees into the interval family.

    Eigenvalue counts in each interval are verified exactly through one
    inertia count per window edge on the solve's grid; each large window must
    also hold exactly one located eigenvalue, whose position in the solve's
    pairs the report keeps in `index`.  Reported values are
    Richardson-extrapolated over (n, 2n) when the solve of the doubled grid is
    given.  strict_floor additionally asserts that nothing sits between the
    top window and the very-large floor, an asymptotic property that moderate
    deformation strengths need not satisfy yet.
    """
    cf, t, n_grid = solve.cf, solve.t, solve.n_grid
    if doubled is not None and (doubled.cf != cf or doubled.t != t
                                or doubled.n_grid != 2 * n_grid
                                or doubled.k_eigs != solve.k_eigs):
        raise DegenerateInput(
            "the Richardson partner must solve the same function, t and k_eigs "
            "on twice the grid")
    e1, e2 = load_constants()["e"][:2]
    eps = choose_epsilon(cf)
    s = t ** (2.0 / 3.0)
    # one window per birth-death point, in increasing |a| and so in increasing
    # position: every window edge below the floor is then counted exactly once
    mags = sorted((abs(p.a), lab) for lab, p in cf.labels.items() if p.kind == "bd")
    windows = {lab: ((e1 * mag ** (2.0 / 3.0) - eps) * s,
                     (e1 * mag ** (2.0 / 3.0) + eps) * s) for mag, lab in mags}
    floor = (e2 * mags[0][0] ** (2.0 / 3.0) - eps) if mags else None

    out = {}
    for degree in (0, 1):
        m_k = cf.m_count(degree)
        need = pairs_needed(cf, degree)
        if solve.k_eigs < need:
            raise DegenerateInput(f"k_eigs={solve.k_eigs} below required {need}")
        vals = solve.values(degree)
        if doubled is not None:
            vals_rep = (4.0 * doubled.values(degree) - vals) / 3.0
        else:
            vals_rep = vals

        mat = solve.matrix(degree)
        below = eigensolve.count_below(mat, eps * s)
        if below != m_k:
            raise ClusterOverlap(
                f"degree {degree}: {below} eigenvalues in [0, eps t^(2/3)], "
                f"expected {m_k} (t too small?)")
        counts = {"small": below}
        large, index = {}, {}
        for label, (lo, hi) in windows.items():
            c_lo = eigensolve.count_below(mat, lo)
            if c_lo != below:
                raise ClusterOverlap(
                    f"degree {degree}: {c_lo - below} stray eigenvalues below the "
                    f"{label} window")
            below = eigensolve.count_below(mat, hi)
            if below - c_lo != 1:
                raise ClusterOverlap(
                    f"degree {degree}: window {label} holds {below - c_lo} "
                    f"eigenvalues, expected 1")
            hit = np.flatnonzero((lo <= vals) & (vals < hi))
            if len(hit) != 1:
                raise ClusterOverlap(
                    f"degree {degree}: window {label} holds {len(hit)} located "
                    f"eigenvalues, expected 1")
            index[label] = int(hit[0])
            large[label] = float(vals_rep[hit[0]])
            counts[label] = below - c_lo
        if floor is not None:
            c_below_floor = eigensolve.count_below(mat, floor * s)
            counts["below_floor"] = c_below_floor
            if strict_floor and c_below_floor != m_k + len(windows):
                raise ClusterOverlap(
                    f"degree {degree}: {c_below_floor} eigenvalues below the "
                    f"very-large floor, expected {m_k + len(windows)}")
        small = vals_rep[:m_k]
        out[degree] = ClusterReport(degree, t, n_grid, eps, small, large, index,
                                    floor, counts, doubled is not None)
    return out


def scaling_fit(reports: list[dict[int, ClusterReport]]) -> dict:
    """Least-squares exponent of the large eigenvalues against t.

    Takes one `spectral_clusters` result per deformation strength and
    returns the fitted slope of log E vs log t per birth-death point and the
    limiting constant estimate E(t_max) / t_max^{2/3}.
    """
    if len(reports) < 4:
        raise DegenerateInput("need at least 4 deformation values, geometrically spaced")
    reports = sorted(reports, key=lambda r: r[0].t)
    labels = list(reports[0][0].large)
    if not labels:
        raise DegenerateInput("scaling fit needs a birth-death point")
    t_list = [r[0].t for r in reports]
    out = {"t_list": t_list, "per_bd": {}}
    for lab in labels:
        values = [r[0].large[lab] for r in reports]
        slope, _inter = np.polyfit(np.log(t_list), np.log(values), 1)
        const = values[-1] / t_list[-1] ** (2.0 / 3.0)
        out["per_bd"][lab] = {"exponent": float(slope), "constant": float(const),
                              "values": values}
    return out


# -- localized bases -------------------------------------------------------------

def _arc_distance(theta: np.ndarray, center: float) -> np.ndarray:
    """Signed arc distance in (-pi, pi]."""
    d = (theta - center) % TWO_PI
    return np.where(d > math.pi, d - TWO_PI, d)


def _bump(s: np.ndarray, radius: float) -> np.ndarray:
    """cos^2 taper: 1 on |s| <= radius/2, 0 beyond radius."""
    x = np.abs(s)
    out = np.zeros_like(x)
    core = x <= 0.5 * radius
    ramp = (~core) & (x < radius)
    out[core] = 1.0
    out[ramp] = np.cos(0.5 * np.pi * (x[ramp] - 0.5 * radius) / (0.5 * radius)) ** 2
    return out


def _chart_radius(cf: CircleFunction, p: CriticalPoint) -> float:
    gaps = []
    for q in cf.critical_points:
        if q is p:
            continue
        d = abs(_arc_distance(np.array([q.theta]), p.theta)[0])
        gaps.append(d)
    return 0.5 * min(gaps) if gaps else math.pi


def quasimode(cf: CircleFunction, w: WittenMatrices, degree: int,
              point: CriticalPoint) -> np.ndarray:
    """Cutoff profile e^{-t |f - f(c)|} of one critical point, unit norm.

    The bump cuts it off inside the point's chart.  There f rises away from
    a minimum and falls away from a maximum, so for a nondegenerate point
    this is the function-adapted model profile of its degree; a birth-death
    point's profile only fixes the sign of its large 0-form.  The exponent
    is never positive, so the profile cannot overflow beyond the chart.
    """
    theta = (np.arange(w.n_grid) + (0.5 if degree == 1 else 0.0)) * w.h
    bump = _bump(_arc_distance(theta, point.theta), _chart_radius(cf, point))
    q = np.exp(-w.t * np.abs(cf.f(theta) - point.f_value)) * bump
    nq = np.linalg.norm(q)
    if nq == 0.0:
        raise ProjectionDegenerate(f"quasimode at theta={point.theta:.4f} vanished")
    return q / nq


def _projected_quasimodes(solve: CircleSolve, degree: int):
    """Small-cluster vectors, labels, quasimodes and the quasimodes' coordinates."""
    cf, w = solve.cf, solve.w
    points = {lab: p for lab, p in cf.labels.items()
              if p.kind == "nd" and p.index == degree}
    if not points:
        raise DegenerateInput(f"empty small cluster in degree {degree}")
    v = np.column_stack([p.vector for p in solve.pairs[degree][:len(points)]])
    q = np.column_stack([quasimode(cf, w, degree, p) for p in points.values()])
    return v, list(points), q, v.T @ q


def localized_basis(solve: CircleSolve, degree: int) -> dict[str, np.ndarray]:
    """Small-cluster basis of one degree aligned with its critical points.

    Model quasimodes are projected onto the small eigenspace and symmetrically
    orthonormalized (Gram matrix inverse square root); signs are fixed by
    positive overlap with the quasimodes.
    """
    v, labels, q, coeff = _projected_quasimodes(solve, degree)
    gram = coeff.T @ coeff
    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= 0 or evals[-1] / evals[0] > 1e6:
        raise ProjectionDegenerate(
            f"Gram condition {evals[-1] / max(evals[0], 1e-300):.2e} too large")
    gram_isqrt = (evecs / np.sqrt(evals)) @ evecs.T
    basis = v @ (coeff @ gram_isqrt)
    out = {}
    for j, lab in enumerate(labels):
        vec = basis[:, j]
        if np.dot(vec, q[:, j]) < 0:
            vec = -vec
        out[lab] = vec
    return out


def localization_gram(solve: CircleSolve, degree: int) -> np.ndarray:
    """Gram matrix of the small cluster's projected quasimodes (diagnostic:
    -> identity in t)."""
    _, _, _, coeff = _projected_quasimodes(solve, degree)
    return coeff.T @ coeff


# -- the small+large subcomplex ---------------------------------------------------

KERNEL_TOL = 1e-8   # times scale: eigenvalues below count as numerical kernel


@dataclass(frozen=True)
class LowComplex:
    """Omega_0(M, t): the small and large eigenforms of one solve, with d(t) on them.

    vectors[degree] maps a label to a unit signed-log eigenform: the small
    eigenforms carry the labels of their critical points (min<i> in degree 0,
    max<i> in degree 1), the large eigenform of birth-death point bd<i> the
    label bd<i>:<degree>, which bd_of maps back to bd<i>.  pairings holds
    <E_b^1, d(t) E_a^0> per (label b, label a), accumulated in signed log
    space so exponentially small tunneling entries keep their scale.
    """
    solve: CircleSolve
    reports: dict                 # degree -> ClusterReport
    vectors: dict                 # degree -> {label: LogVector}
    bd_of: dict                   # "bd<i>:<degree>" -> "bd<i>"
    pairings: dict                # (label1, label0) -> LogValue


def low_complex(solve: CircleSolve, strict_floor: bool = True) -> LowComplex:
    """Certify the clusters of a solve and read Omega_0(M, t) off it.

    Small vectors are the quasimode-aligned `localized_basis`; a
    one-dimensional small cluster whose eigenvalue is numerically zero is
    replaced by the exact discrete (co)kernel in log form, whose exponentially
    small tails carry full relative accuracy, and d(t) of it is exactly zero
    (amplifying the floating-point cancellation residue by e^{t} rescalings
    would manufacture noise).  Each large vector is the pair that
    `spectral_clusters` located in its window, the 0-form with positive
    overlap with its point's cutoff profile (`quasimode`), the 1-form
    oriented so that <E_y^1, d(t) E_y^0> is positive.
    """
    reports = spectral_clusters(solve, strict_floor=strict_floor)
    cf, w = solve.cf, solve.w
    vectors, bd_of, kernel = {0: {}, 1: {}}, {}, set()
    for degree in (0, 1):
        pairs = solve.pairs[degree]
        if cf.m_count(degree):
            loc = localized_basis(solve, degree)
            exact = len(loc) == 1 and abs(pairs[0].value) <= KERNEL_TOL * w.delta0.scale
            for lab, vec in loc.items():
                if exact:
                    lv = w.kernel_node_logvec() if degree == 0 else w.kernel_mid_logvec()
                    if float(np.dot(lv.to_values(), vec)) < 0:
                        lv = lv.scaled(0.0, -1.0)
                    kernel.add(lab)
                else:
                    lv = LogVector.from_values(vec)
                vectors[degree][lab] = lv
        for lab, p in cf.labels.items():
            if p.kind != "bd":
                continue
            vec = pairs[reports[degree].index[lab]].vector
            if degree == 0 and float(np.dot(vec, quasimode(cf, w, 0, p))) < 0:
                vec = -vec
            vectors[degree][f"{lab}:{degree}"] = LogVector.from_values(vec)
            bd_of[f"{lab}:{degree}"] = lab
    zero = LogVector(np.zeros(w.n_grid), np.full(w.n_grid, -np.inf))
    images = {l0: zero if l0 in kernel else w.apply_d_log(v0)
              for l0, v0 in vectors[0].items()}
    for key0, du in images.items():
        if key0 in bd_of:
            key1 = f"{bd_of[key0]}:1"
            if vectors[1][key1].dot(du).sign < 0:
                vectors[1][key1] = vectors[1][key1].scaled(0.0, -1.0)
    pairings = {(l1, l0): v1.dot(du) for l0, du in images.items()
                for l1, v1 in vectors[1].items()}
    return LowComplex(solve, reports, vectors, bd_of, pairings)


def eq7_defect(low: LowComplex) -> dict[str, float]:
    """Relative defect of ||d(t) E_y^0||^2 against the large eigenvalue.

    Exact supersymmetry of the factored pair makes the squared image norm of
    the located 0-form pair equal its eigenvalue on the same grid.
    """
    out = {}
    for lab, i in low.reports[0].index.items():
        pair = low.solve.pairs[0][i]
        image_sq = float(np.sum(low.solve.w.apply_d(pair.vector) ** 2))
        out[lab] = abs(image_sq - pair.value) / pair.value
    return out
