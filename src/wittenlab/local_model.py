"""Spectra of localized deformed Laplacians at a single critical point.

At a nondegenerate or birth-death critical point the localized operator on
R^n splits as a tensor sum of 1D model operators, one per coordinate axis;
restricted to a fixed set S of form factors (the dx_i present), its spectrum
is the set of sums of per-axis levels.  Harmonic axes use the closed-form
ladder so multiplicity counting is exact; only the birth-death axis is
numerical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import oscillator1d
from .errors import DegenerateInput
from .oscillator1d import Anharmonic, Harmonic, Model1D, discretize


@dataclass(frozen=True)
class NonDegenerate:
    index: int
    dim: int

    def __post_init__(self):
        if not 0 <= self.index <= self.dim:
            raise DegenerateInput("need 0 <= index <= dim")


@dataclass(frozen=True)
class BirthDeath:
    index: int
    dim: int
    a: float

    def __post_init__(self):
        if not 0 <= self.index <= self.dim - 1:
            raise DegenerateInput("need 0 <= index <= dim-1")
        if self.a == 0:
            raise DegenerateInput("cubic coefficient must be nonzero")


CriticalPointModel = NonDegenerate | BirthDeath


@dataclass(frozen=True)
class FormSector:
    axes: frozenset[int]

    @property
    def degree(self) -> int:
        return len(self.axes)


@dataclass(frozen=True)
class SectorSpectrum:
    sector: FormSector
    values: np.ndarray
    quantum_numbers: tuple[tuple[int, ...], ...]


def axis_operator(model: CriticalPointModel, axis: int, in_s: bool, t: float) -> Model1D:
    """The 1D operator contributed by one axis, for a given form factor.

    The commutator term acts as +1 on axes carrying a dx factor and -1
    otherwise; descending axes (axis <= index) flip the sign once more.
    The last axis of a birth-death model is the cubic direction.
    """
    n = model.dim
    if not 1 <= axis <= n:
        raise DegenerateInput(f"axis must be in 1..{n}")
    sigma = 1 if in_s else -1
    if isinstance(model, BirthDeath) and axis == n:
        return Anharmonic(model.a, t, form_sign=sigma)
    shift = -sigma if axis <= model.index else sigma
    return Harmonic(t, shift_sign=shift)


def _axis_levels(op: Model1D, count: int, tol: float) -> np.ndarray:
    if isinstance(op, Harmonic):
        return op.analytic_levels(count)
    return oscillator1d.spectrum(op, count, tol=tol).values


def _k_smallest_sums(ladders: list[np.ndarray], m: int):
    """m smallest sums picking one level per ladder, with their index tuples."""
    if not ladders:
        return np.zeros(1)[:m], (tuple(),)
    start = (0,) * len(ladders)
    base = sum(lad[0] for lad in ladders)
    heap = [(base, start)]
    seen = {start}
    out_vals, out_idx = [], []
    while heap and len(out_vals) < m:
        val, idx = heapq.heappop(heap)
        out_vals.append(val)
        out_idx.append(idx)
        for ax, lad in enumerate(ladders):
            j = idx[ax] + 1
            if j < len(lad):
                nxt = idx[:ax] + (j,) + idx[ax + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (val - lad[j - 1] + lad[j], nxt))
    return np.array(out_vals), tuple(out_idx)


def sector_spectrum(model: CriticalPointModel, sector: FormSector, t: float,
                    m: int, tol: float = 1e-8) -> SectorSpectrum:
    """m lowest levels of the localized operator restricted to one sector."""
    if m < 1:
        raise DegenerateInput("m must be at least 1")
    bad = [ax for ax in sector.axes if not 1 <= ax <= model.dim]
    if bad:
        raise DegenerateInput(f"sector axes {bad} outside 1..{model.dim}")
    ladders = [_axis_levels(axis_operator(model, ax, ax in sector.axes, t), m, tol)
               for ax in range(1, model.dim + 1)]
    vals, idx = _k_smallest_sums(ladders, m)
    return SectorSpectrum(sector, vals, idx)


def degree_spectrum(model: CriticalPointModel, degree: int, t: float, m: int,
                    tol: float = 1e-8) -> list[tuple[float, FormSector]]:
    """m lowest levels on degree-d forms: merge over all sectors |S| = d."""
    if not 0 <= degree <= model.dim:
        raise DegenerateInput("degree out of range")
    streams = []
    for axes in combinations(range(1, model.dim + 1), degree):
        sec = FormSector(frozenset(axes))
        sp = sector_spectrum(model, sec, t, m, tol=tol)
        streams.append((sp.values, sec))
    merged = []
    for vals, sec in streams:
        merged.extend((float(v), sec) for v in vals)
    merged.sort(key=lambda p: p[0])
    return merged[:m]


@dataclass(frozen=True)
class ProductEigenform:
    """Factorized eigenform: one profile per axis, dx factors on form_axes.

    Gaussian axes store ("gauss", t); the cubic axis stores a sampled grid
    profile (x, values) in continuum normalization.
    """
    degree: int
    form_axes: tuple[int, ...]
    profiles: tuple
    level: float

    def norm(self) -> float:
        out = 1.0
        for prof in self.profiles:
            if prof[0] == "gauss":
                out *= 1.0  # (2t/pi)^{1/4} e^{-t x^2} has unit L2 norm
            else:
                x, vals = prof[1], prof[2]
                h = x[1] - x[0]
                out *= float(np.sqrt(np.sum(vals ** 2) * h))
        return out


def lowest_eigenforms(model: BirthDeath, t: float,
                      check_tol: float = 1e-4) -> tuple[ProductEigenform, ProductEigenform]:
    """The two lowest localized eigenforms: a k-form and a (k+1)-form.

    Both share the transverse Gaussian factors and the lowest anharmonic
    level on the cubic axis; the pair differs by the dx factor on that axis
    and by reflection of the cubic profile.  For dim <= 2 the Rayleigh
    quotient of the sampled product is verified on a fresh tensor grid.
    """
    if t <= 0:
        raise DegenerateInput("t must be positive")
    k, n = model.index, model.dim
    gauss = tuple(("gauss", t) for _ in range(n - 1))
    x0, v0, lev0 = oscillator1d.ground_profile(Anharmonic(model.a, t, -1), tol=1e-9)
    x1, v1, lev1 = oscillator1d.ground_profile(Anharmonic(model.a, t, +1), tol=1e-9)
    omega_k = ProductEigenform(
        degree=k, form_axes=tuple(range(1, k + 1)),
        profiles=gauss + (("grid", x0, v0),), level=lev0)
    omega_k1 = ProductEigenform(
        degree=k + 1, form_axes=tuple(range(1, k + 1)) + (n,),
        profiles=gauss + (("grid", x1, v1),), level=lev1)
    if n <= 2:
        for omega in (omega_k, omega_k1):
            rq = _tensor_rayleigh(model, omega, t)
            target = omega.level
            if abs(rq - target) / target > check_tol:
                raise DegenerateInput(
                    f"tensor-grid Rayleigh quotient {rq:.8g} deviates from "
                    f"level {target:.8g} beyond {check_tol}")
    return omega_k, omega_k1


def _apply_tridiag_rows(t_mat, v2d: np.ndarray) -> np.ndarray:
    out = t_mat.diag[:, None] * v2d
    out[:-1] += t_mat.offdiag[:, None] * v2d[1:]
    out[1:] += t_mat.offdiag[:, None] * v2d[:-1]
    return out


def _tensor_rayleigh_once(model: BirthDeath, omega: ProductEigenform, t: float,
                          n_grid: int) -> float:
    """Rayleigh quotient of the sampled product form on a fresh tensor grid."""
    if model.dim == 1:
        op = axis_operator(model, 1, 1 in omega.form_axes, t)
        L = oscillator1d.auto_domain(op, 2)
        tmat = discretize(op, L, n_grid)
        x, _ = oscillator1d.grid(L, n_grid)
        _, xg, vg = omega.profiles[-1]
        u = np.interp(x, xg, vg, left=0.0, right=0.0)
        return float(np.dot(u, tmat.matvec(u)) / np.dot(u, u))
    in_s1 = 1 in omega.form_axes
    in_s2 = 2 in omega.form_axes
    op1 = axis_operator(model, 1, in_s1, t)
    op2 = axis_operator(model, 2, in_s2, t)
    L1 = oscillator1d.auto_domain(op1, 2)
    L2 = oscillator1d.auto_domain(op2, 2)
    t1 = discretize(op1, L1, n_grid)
    t2 = discretize(op2, L2, n_grid)
    x1, h1 = oscillator1d.grid(L1, n_grid)
    x2, h2 = oscillator1d.grid(L2, n_grid)
    g = (2.0 * t / np.pi) ** 0.25 * np.exp(-t * x1 ** 2)
    _, xg, vg = omega.profiles[-1]
    u = np.interp(x2, xg, vg, left=0.0, right=0.0)
    v2d = np.outer(g, u)
    av = _apply_tridiag_rows(t1, v2d) + _apply_tridiag_rows(t2, v2d.T).T
    num = float(np.sum(v2d * av))
    den = float(np.sum(v2d * v2d))
    return num / den


def _tensor_rayleigh(model: BirthDeath, omega: ProductEigenform, t: float) -> float:
    r1 = _tensor_rayleigh_once(model, omega, t, 768)
    r2 = _tensor_rayleigh_once(model, omega, t, 1537)
    return (4.0 * r2 - r1) / 3.0
