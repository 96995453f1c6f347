"""1D model Schroedinger operators attached to critical-point directions.

Two families on the line:

* ``Harmonic(t, shift_sign)``:  -d^2/dx^2 + 4 t^2 x^2 + shift_sign * 2t,
  with the closed-form ladder {2t(2m+1) + shift_sign * 2t};
* ``Anharmonic(a, t, form_sign)``:  -d^2/dx^2 + 9 a^2 t^2 x^4 + form_sign * 6 a t x,
  the birth-death direction.  Its eigenvalues scale exactly as
  e_m * |a t|^{2/3} where e_m are the levels of the unit operator
  -d^2/dx^2 + 9 x^4 - 6 x.

Discretization is 3-point finite differences with Dirichlet cutoff on a
symmetric interval.  Reported spectra come from a grid ladder n -> 2n+1,
whose mesh widths halve exactly, so the 3-point error expands in h^2, h^4,
h^6, ...: Richardson extrapolation of each grid pair removes the h^2 term,
and a second (Romberg) level over successive pairs removes the h^4 term.
Only the first grid of a ladder bisects its eigenvalues; the second is
seeded with the first grid's values, each later one with the values the two
below it predict, and the seeded pairs are kept only when certified
(`eigensolve.eigs_lowest`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigensolve
from .eigensolve import SymTridiag
from .errors import DegenerateInput, DomainTooSmall, NoConvergence, PositivityViolation

REFINE_CAP = 2 ** 20
# Least tol of a ladder.  Each grid's pairs are asked for a residual of
# min(tol, 1e-11) * scale.  On the ladder grids n = 1024 .. 524799 of
# anharmonic and harmonic models (k = 3 and 5), inverse iteration reached
# 1e-15 * scale on every grid (1.3e-16 * scale at worst) and missed
# 1e-16 * scale on some; the floor keeps a decade of room above that.
TOL_FLOOR = 1e-14
_BOUNDARY_MASS_TOL = 1e-8


@dataclass(frozen=True)
class Harmonic:
    t: float
    shift_sign: int  # +1 or -1

    def __post_init__(self):
        if self.t <= 0:
            raise DegenerateInput("harmonic model needs t > 0")
        if self.shift_sign not in (-1, 1):
            raise DegenerateInput("shift_sign must be +1 or -1")

    def potential(self, x: np.ndarray) -> np.ndarray:
        return 4.0 * self.t ** 2 * x ** 2 + self.shift_sign * 2.0 * self.t

    def analytic_levels(self, k: int) -> np.ndarray:
        m = np.arange(k)
        return 2.0 * self.t * (2 * m + 1) + self.shift_sign * 2.0 * self.t


@dataclass(frozen=True)
class Anharmonic:
    a: float
    t: float
    form_sign: int = -1  # -1 acts on functions, +1 on 1-forms

    def __post_init__(self):
        if self.a == 0:
            raise DegenerateInput("anharmonic model needs a != 0")
        if self.t <= 0:
            raise DegenerateInput("anharmonic model needs t > 0")
        if self.form_sign not in (-1, 1):
            raise DegenerateInput("form_sign must be +1 or -1")

    def potential(self, x: np.ndarray) -> np.ndarray:
        at = self.a * self.t
        return 9.0 * at ** 2 * x ** 4 + self.form_sign * 6.0 * at * x


Model1D = Harmonic | Anharmonic


@dataclass(frozen=True)
class Spectrum1D:
    model: Model1D
    L: float
    n: int
    values: np.ndarray
    vectors: np.ndarray                 # columns, on the final grid

    def __post_init__(self):
        if isinstance(self.model, Anharmonic):
            if self.values[0] <= 0:
                raise PositivityViolation(
                    f"anharmonic ground level must be positive, got {self.values[0]}")
            if len(self.values) > 1 and not self.values[0] < self.values[1]:
                raise PositivityViolation("anharmonic ground level must be simple")


def auto_domain(m: Model1D, k: int = 5) -> float:
    """Half-width with V(L) comfortably above the k-th level sought."""
    if isinstance(m, Harmonic):
        top = 2.0 * m.t * (2 * k + 1) + 2.0 * m.t
        return float(np.sqrt(50.0 * top / (4.0 * m.t ** 2)) + 1.0 / np.sqrt(m.t))
    at = abs(m.a * m.t)
    return float(8.0 * at ** (-1.0 / 3.0) * max(1.0, (k / 2.0) ** (1.0 / 3.0)))


def grid(L: float, n: int) -> tuple[np.ndarray, float]:
    h = 2.0 * L / (n + 1)
    x = -L + (np.arange(n) + 1) * h
    return x, h


def discretize(m: Model1D, L: float, n: int) -> SymTridiag:
    """3-point FD matrix with Dirichlet cutoff at +-L; interior nodes only."""
    if L <= 0:
        raise DegenerateInput("L must be positive")
    if n < 16:
        raise DegenerateInput("n must be at least 16")
    x, h = grid(L, n)
    diag = 2.0 / h ** 2 + m.potential(x)
    off = np.full(n - 1, -1.0 / h ** 2)
    return SymTridiag(diag, off)


def _check_boundary_mass(vectors: np.ndarray, n: int):
    edge = max(1, n // 20)
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        mass = float(np.sum(v[:edge] ** 2) + np.sum(v[-edge:] ** 2))
        if mass > _BOUNDARY_MASS_TOL:
            raise DomainTooSmall(
                f"eigenvector {j} has boundary mass {mass:.2e}; enlarge L")


def _solve_grid(m: Model1D, L: float, n: int, k: int, tol: float,
                near: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    t = discretize(m, L, n)
    pairs = eigensolve.eigs_lowest(t, k, tol=min(tol, 1e-11), near=near)
    vals = np.array([p.value for p in pairs])
    vecs = np.column_stack([p.vector for p in pairs])
    _check_boundary_mass(vecs, n)
    return vals, vecs


def _spectral_unit(m: Model1D) -> float:
    """Natural level spacing, used as the floor for relative comparisons."""
    if isinstance(m, Harmonic):
        return 4.0 * m.t
    return abs(m.a * m.t) ** (2.0 / 3.0)


def spectrum(m: Model1D, k: int, tol: float = 1e-8, L: float | None = None,
             n0: int = 1024) -> Spectrum1D:
    """k lowest levels, grid-refined until successive extrapolations agree.

    The grids n -> 2n+1 halve the mesh width h exactly, and the 3-point error
    expands in h^2, h^4, h^6, ...  Each new grid gives the Richardson value
    E = (4 vals_2n - vals_n) / 3 of its pair, which removes the h^2 term;
    from the third grid on, R = (16 E - E_prev) / 15 removes the h^4 term as
    well (Romberg).  The best value available is reported, and the ladder
    stops when two successive best values agree to tol relative to
    max(|level|, natural spacing) -- the floor keeps exact-zero levels from
    demanding unreachable relative accuracy.  A rung whose agreement is no
    better than the previous rung's has met the rounding floor of the grids,
    which grows like h^-2, so the ladder raises NoConvergence there, naming
    the best agreement reached, instead of refining to REFINE_CAP.

    tol must be at least TOL_FLOOR, and each grid's pairs have a residual of
    at most min(tol, 1e-11) * scale.  Only the first grid bisects: the second
    is seeded with the first grid's values, which lie below its own where the
    3-point error is negative, as on these models; every later one with the
    value the two grids below predict, E + (vals_2n - E) / 4 (the h^2 error
    quarters).  A grid bisects only where the seeded pairs fail their
    certificate (`eigensolve.eigs_lowest`).  The eigenvectors returned are
    those of the final grid, unextrapolated.
    """
    if k < 1:
        raise DegenerateInput("k must be at least 1")
    if not (tol > 0 and np.isfinite(tol)):
        raise DegenerateInput(f"tol must be a positive finite number, got {tol}")
    if tol < TOL_FLOOR:
        raise DegenerateInput(f"tol {tol:.3g} is below the ladder's floor {TOL_FLOOR:g}, "
                              "the least residual bound its eigensolves surely reach")
    if L is None:
        L = auto_domain(m, k)
    n = n0
    vals_n, _ = _solve_grid(m, L, n, k, tol)
    near = vals_n
    prev_extrap = prev_best = None
    prev_rel = np.inf
    floor = _spectral_unit(m)
    while True:
        vals_2n, vecs = _solve_grid(m, L, 2 * n + 1, k, tol, near)
        extrap = (4.0 * vals_2n - vals_n) / 3.0
        best = extrap
        if prev_extrap is not None:
            best = (16.0 * extrap - prev_extrap) / 15.0
            rel = float(np.max(np.abs(best - prev_best)
                               / np.maximum(np.abs(best), floor)))
            if rel <= tol:
                return Spectrum1D(m, L, 2 * n + 1, best, vecs)
            if rel >= prev_rel:
                raise NoConvergence(
                    f"successive extrapolations agree to {prev_rel:.3g} at best, "
                    f"not {tol:.3g}: grid {2 * n + 1} agrees no better than the grid "
                    "below it, so the grids' rounding is reached")
            prev_rel = rel
        prev_extrap, prev_best = extrap, best
        near = extrap + (vals_2n - extrap) / 4.0
        vals_n = vals_2n
        n = 2 * n + 1
        if n > REFINE_CAP:
            raise NoConvergence(f"grid refinement cap {REFINE_CAP} reached")


def verify_reflection(a: float, t: float, k: int, tol: float = 1e-8) -> float:
    """Spectral discrepancy between the two form-sign conjugate operators.

    The x -> -x reflection conjugates one into the other, so both the spectra
    and the reflected eigenvectors must agree; the returned number is the
    relative eigenvalue mismatch, and an eigenvector whose reflection defect
    exceeds 1e-3, or two ladders that stop on different grids, raise
    NoConvergence.
    """
    sp_minus = spectrum(Anharmonic(a, t, -1), k, tol=tol)
    sp_plus = spectrum(Anharmonic(a, t, +1), k, tol=tol, L=sp_minus.L)
    vals_rel = float(np.max(np.abs(sp_plus.values - sp_minus.values)
                            / np.abs(sp_minus.values)))
    if sp_minus.n != sp_plus.n:
        raise NoConvergence(
            f"the two ladders stopped on different grids ({sp_minus.n} and "
            f"{sp_plus.n} nodes), so their eigenvectors cannot be reflected")
    for j in range(k):
        vm = sp_minus.vectors[:, j]
        vp = sp_plus.vectors[::-1, j]
        s = 1.0 if np.dot(vm, vp) >= 0 else -1.0
        defect = float(np.max(np.abs(vm - s * vp)))
        if defect > 1e-3:
            raise NoConvergence(
                f"eigenvector {j} fails the reflection check: defect {defect:.2e}")
    return vals_rel


def ground_state_properties(m: Anharmonic, L: float | None = None,
                            n: int = 4095) -> dict:
    """Gap ratio, entrywise minimum, and the x=0 value of the ground state.

    Uses an odd grid so x = 0 is a node; the reported amplitude is continuum
    normalized (grid vector divided by sqrt(h)).
    """
    if m.form_sign != -1:
        raise DegenerateInput("ground_state_properties expects the 0-form convention")
    if L is None:
        L = auto_domain(m, 2)
    if n % 2 == 0:
        n += 1
    t = discretize(m, L, n)
    pairs = eigensolve.eigs_lowest(t, 2, tol=1e-11)
    v = pairs[0].vector
    peak = int(np.argmax(np.abs(v)))
    if v[peak] < 0:
        v = -v
    min_entry = float(np.min(v))
    if min_entry <= 0.0:
        raise PositivityViolation(
            f"ground vector has non-positive entry {min_entry:.3e}")
    _, h = grid(L, n)
    xi_zero = float(v[(n - 1) // 2] / np.sqrt(h))
    gap_ratio = float((pairs[1].value - pairs[0].value) / pairs[0].value)
    return {"gap_ratio": gap_ratio, "min_entry": min_entry, "xi1_at_zero": xi_zero}


def verify_scaling(t_list: list[float], k: int, a: float = 1.0,
                   tol: float = 1e-10) -> float:
    """Max relative deviation of the spectra from the t^{2/3} scaling law.

    Each spectrum is computed on its own rescaled interval L(t) = L(1) t^{-1/3}
    with the same grid ladder, so the discrete matrices are exact multiples.
    """
    if not t_list:
        raise DegenerateInput("t_list must be nonempty")
    for t in t_list:
        if not (t > 0 and np.isfinite(t)):
            raise DegenerateInput(f"t must be a positive finite number, got {t}")
    L1 = auto_domain(Anharmonic(a, 1.0, -1), k)
    base = spectrum(Anharmonic(a, 1.0, -1), k, tol=tol, L=L1)
    worst = 0.0
    for t in t_list:
        Lt = L1 * float(t) ** (-1.0 / 3.0)
        sp = spectrum(Anharmonic(a, float(t), -1), k, tol=tol, L=Lt)
        target = float(t) ** (2.0 / 3.0) * base.values
        worst = max(worst, float(np.max(np.abs(sp.values - target) / target)))
    return worst
