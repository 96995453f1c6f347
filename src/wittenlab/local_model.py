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
from .oscillator1d import Anharmonic, Harmonic, Model1D


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
