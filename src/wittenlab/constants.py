"""Cached model-operator constants: the unit anharmonic levels and ground value.

The levels e_1..e_8 of -d^2/dx^2 + 9x^4 - 6x and the x = 0 amplitude of its
normalized ground state are computed once by a documented oracle run and
cached in ``constants.json``.  The oracle route is deliberately independent
of the library's own eigensolver, which locates eigenvalues by dstebz
bisection: the oracle takes the whole spectrum from LAPACK's root-free QR
iteration dsterf, and the ground vector from dstein inverse iteration at
that level, on fixed grids, Richardson-extrapolated in the mesh width.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .eigensolve import _lapack as lapack
from .errors import MissingConstants
from .oscillator1d import Anharmonic, discretize, grid

ENV_VAR = "WITTENLAB_CONSTANTS"
DEFAULT_FILENAME = "constants.json"
N_LEVELS = 8
_ORACLE_L = 8.0


def _dense_levels(n: int, k: int) -> np.ndarray:
    """Lowest k levels of the unit operator on an n-point grid, by dsterf.

    dsterf costs O(n^2) time but O(n) memory; MRRR through scipy's dstemr
    wrapper would allocate a dense n x n array even for values only.
    """
    t = discretize(Anharmonic(1.0, 1.0, -1), _ORACLE_L, n)
    vals, info = lapack.dsterf(t.diag, t.offdiag)
    if info != 0:
        raise MissingConstants(f"oracle dsterf failed with info={info}")
    return vals[:k]


def _dense_ground_at_zero(n: int, level: float) -> float:
    """Continuum-normalized ground amplitude at x = 0 (odd grid: 0 is a node)."""
    assert n % 2 == 1
    t = discretize(Anharmonic(1.0, 1.0, -1), _ORACLE_L, n)
    iblock = np.ones(n, dtype=np.int32)         # a single block ending at n
    isplit = np.full(n, n, dtype=np.int32)
    vecs, info = lapack.dstein(t.diag, t.offdiag, np.array([level]), iblock, isplit)
    if info != 0:
        raise MissingConstants(f"oracle dstein failed with info={info}")
    v = vecs[:, 0]
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    _, h = grid(_ORACLE_L, n)
    return float(v[(n - 1) // 2] / np.sqrt(h))


def compute_constants(base_n: int = 4096, k: int = N_LEVELS) -> dict:
    """Oracle run: Richardson pairs at (base_n/2, base_n) and (base_n, 2*base_n).

    The gap between the two extrapolations is the oracle's self-reported
    accuracy; the finer extrapolation is what gets cached.
    """
    # grids chosen so the mesh width halves exactly: h = 2L/(n+1)
    n_coarse = base_n // 2 - 1        # h = 2L / (base_n / 2)
    n_mid = base_n - 1
    n_fine = 2 * base_n - 1
    v_c = _dense_levels(n_coarse, k)
    v_m = _dense_levels(n_mid, k)
    v_f = _dense_levels(n_fine, k)
    extrap_low = (4.0 * v_m - v_c) / 3.0
    extrap_high = (4.0 * v_f - v_m) / 3.0
    gap = float(np.max(np.abs(extrap_high - extrap_low) / np.abs(extrap_high)))

    xi_m = _dense_ground_at_zero(n_mid, v_m[0])
    xi_f = _dense_ground_at_zero(n_fine, v_f[0])
    xi = (4.0 * xi_f - xi_m) / 3.0

    e = extrap_high
    if e[0] <= 0 or np.any(np.diff(e) <= 0):
        raise MissingConstants("oracle produced a non-increasing level ladder")
    return {
        "e": [float(x) for x in e],
        "xi1_0": float(xi),
        "oracle": {
            "n": int(base_n),
            "L": _ORACLE_L,
            "extrapolation": "richardson-h2, pairs (n/2, n) and (n, 2n)",
            "richardson_gap": gap,
        },
    }


def write_constants(path: str | Path, base_n: int = 4096) -> dict:
    data = compute_constants(base_n=base_n)
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def default_path() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_FILENAME


_memo: dict | None = None


def load_constants(path: str | Path | None = None, compute_if_missing: bool = True) -> dict:
    """Load cached constants; env var overrides, cwd fallback, else recompute."""
    global _memo
    candidates = []
    if path is not None:
        candidates.append(Path(path))
    else:
        env = os.environ.get(ENV_VAR)
        if env:
            candidates.append(Path(env))
        candidates.append(Path.cwd() / DEFAULT_FILENAME)
        candidates.append(Path(__file__).resolve().parents[2] / DEFAULT_FILENAME)
    for cand in candidates:
        if cand.is_file():
            data = json.loads(cand.read_text())
            if "e" not in data or "xi1_0" not in data:
                raise MissingConstants(f"{cand} lacks required fields")
            return data
    if not compute_if_missing:
        raise MissingConstants(
            f"no constants file found (tried {[str(c) for c in candidates]}); "
            f"run `wittenlab constants` first")
    if _memo is None:
        _memo = compute_constants()
    return _memo
