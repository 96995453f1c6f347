"""Cached model-operator constants: the unit anharmonic levels and ground value.

The levels e_1..e_8 of -d^2/dx^2 + 9x^4 - 6x and the x = 0 amplitude of its
normalized ground state are computed once by a documented oracle run and
cached in ``constants.json``.  The oracle is independent of the library's
own finite-difference eigensolver: it is a Galerkin solve in the eigenbasis
phi_n of -d^2/dx^2 + OMEGA^2 x^2, where p^2, x and x^4 have exact matrix
entries, diagonalized densely by numpy.  Repeating the solve on twice the
basis gives its self-reported accuracy.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import MissingConstants

ENV_VAR = "WITTENLAB_CONSTANTS"
DEFAULT_FILENAME = "constants.json"
N_LEVELS = 8
BASIS_SIZE = 128
OMEGA = 4.5
_REPO_COPY = Path(__file__).resolve().parents[2] / DEFAULT_FILENAME


def _galerkin(n: int) -> dict:
    """Levels and ground amplitude at x = 0 from the n lowest oscillator states."""
    # x couples phi_k to phi_{k+-1}, so x^4 built on n + 8 states is exact on
    # the first n of them
    k = np.arange(n + 8, dtype=float)
    x = np.diag(np.sqrt(k[1:] / (2.0 * OMEGA)), 1)
    x += x.T
    p2_off = -0.5 * OMEGA * np.sqrt(k[1:-1] * k[2:])
    p2 = np.diag(0.5 * OMEGA * (2.0 * k + 1.0)) + np.diag(p2_off, 2) + np.diag(p2_off, -2)
    x2 = x @ x
    h = (p2 + 9.0 * (x2 @ x2) - 6.0 * x)[:n, :n]
    vals, vecs = np.linalg.eigh(h)
    phi_at_0 = np.zeros(n)          # phi_n(0); zero for odd n
    phi_at_0[0] = (OMEGA / np.pi) ** 0.25
    for j in range(2, n, 2):
        phi_at_0[j] = -np.sqrt((j - 1) / j) * phi_at_0[j - 2]
    return {"e": [float(v) for v in vals[:N_LEVELS]],
            "xi1_0": float(abs(vecs[:, 0] @ phi_at_0))}


def compute_constants() -> dict:
    """Oracle run on BASIS_SIZE states; the gap is the largest relative change
    of a cached value when the basis is doubled, rounded up to a power of ten.

    The unrounded gap sits at rounding level and moves with the BLAS thread
    count (the doubled basis goes through a blocked tridiagonal reduction);
    the decade bound does not, so the written record is the same everywhere.
    """
    data = _galerkin(BASIS_SIZE)
    e = np.array(data["e"])
    if e[0] <= 0 or np.any(np.diff(e) <= 0):
        raise MissingConstants("oracle produced a non-increasing level ladder")
    doubled = _galerkin(2 * BASIS_SIZE)
    old = np.append(e, data["xi1_0"])
    new = np.append(doubled["e"], doubled["xi1_0"])
    gap = float(np.max(np.abs(new - old) / np.abs(old)))
    data["oracle"] = {
        "method": "hermite-galerkin",
        "basis": BASIS_SIZE,
        "omega": OMEGA,
        "gap": 10.0 ** math.ceil(math.log10(gap)) if gap > 0 else 0.0,
    }
    return data


def write_constants(path: str | Path) -> dict:
    data = compute_constants()
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def default_path() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_FILENAME


def _read(path: Path) -> dict:
    if not path.is_file():
        raise MissingConstants(
            f"no constants file at {path}; run `wittenlab constants --out {path}`")
    data = json.loads(path.read_text())
    if "e" not in data or "xi1_0" not in data:
        raise MissingConstants(f"{path} lacks required fields")
    return data


def load_constants(path: str | Path | None = None) -> dict:
    """Read the constants table at ``path``, else at the file $WITTENLAB_CONSTANTS
    names; either must exist.  Without both, read ``./constants.json`` or else
    the repository copy, and compute the table only when neither exists.
    """
    if path is not None or os.environ.get(ENV_VAR):
        return _read(Path(path or default_path()))
    for cand in (default_path(), _REPO_COPY):
        if cand.is_file():
            return _read(cand)
    return compute_constants()
