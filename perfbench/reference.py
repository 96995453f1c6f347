"""Reference computations made apart from the program's own solvers.

* Witten Laplacians of a circle function, assembled from the conjugated
  difference operator with sparse products and solved with LAPACK's banded
  eigensolver after an interleaving permutation that turns the cyclic
  tridiagonal matrix into a pentadiagonal one.
* Levels of the unit anharmonic model -d^2/dx^2 + 9x^4 - 6x from LAPACK
  tridiagonal bisection on fixed grids, Richardson-extrapolated twice.
* Ranks of integer matrices by exact Gaussian elimination over the rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse


def interleave(n: int) -> np.ndarray:
    """Order 0, n-1, 1, n-2, ...: cyclic neighbours end up at most two apart."""
    perm = np.empty(n, dtype=int)
    perm[0::2] = np.arange((n + 1) // 2)
    perm[1::2] = n - 1 - np.arange(n // 2)
    return perm


def witten_laplacians(f, t: float, n: int):
    """Delta0 = D^T D and Delta1 = D D^T for the conjugated difference D.

    (D u)_{i+1/2} = (e^{t(f_{i+1} - f_{i+1/2})} u_{i+1} - e^{t(f_i - f_{i+1/2})} u_i) / h
    on n nodes of the circle, indices mod n.
    """
    h = 2.0 * math.pi / n
    nodes = np.arange(n) * h
    fn = f(nodes)
    fm = f(nodes + 0.5 * h)
    up = np.exp(t * (np.roll(fn, -1) - fm)) / h
    down = np.exp(t * (fn - fm)) / h
    rows = np.concatenate([np.arange(n), np.arange(n)])
    cols = np.concatenate([(np.arange(n) + 1) % n, np.arange(n)])
    d = scipy.sparse.csr_matrix((np.concatenate([up, -down]), (rows, cols)), shape=(n, n))
    return (d.T @ d).tocsr(), (d @ d.T).tocsr()


def lowest_banded(mat, k: int) -> np.ndarray:
    """k smallest eigenvalues of a sparse symmetric cyclic-tridiagonal matrix."""
    n = mat.shape[0]
    perm = interleave(n)
    p = mat[perm][:, perm]
    coo = p.tocoo()
    if np.any(np.abs(coo.row - coo.col) > 2):
        raise ValueError("interleaved matrix is not pentadiagonal")
    band = np.zeros((3, n))            # upper form: band[2 - j, i + j] = A[i, i + j]
    for j in range(3):
        band[2 - j, j:] = p.diagonal(j)
    return scipy.linalg.eig_banded(band, eigvals_only=True, select="i",
                                   select_range=(0, k - 1), check_finite=False)


def circle_levels(f, t: float, n: int, k: int = 3) -> dict[int, np.ndarray]:
    """Richardson-combined lowest k eigenvalues of both Laplacians over (n, 2n)."""
    out = {}
    coarse = witten_laplacians(f, t, n)
    fine = witten_laplacians(f, t, 2 * n)
    for degree in (0, 1):
        v1 = lowest_banded(coarse[degree], k)
        v2 = lowest_banded(fine[degree], k)
        out[degree] = (4.0 * v2 - v1) / 3.0
    return out


def cubic_coefficient(f, theta: float, step: float = 1e-2) -> float:
    """a in f(theta + x) = f(theta) + a x^3 + ..., by a central difference.

    The five-point third difference has error O(step^2) relative to f'''.
    """
    x = theta + step * np.array([-2.0, -1.0, 1.0, 2.0])
    v = f(x)
    third = (-v[0] + 2.0 * v[1] - 2.0 * v[2] + v[3]) / (2.0 * step ** 3)
    return third / 6.0


_ORACLE_L = 8.0


def _anharmonic_levels_on(n: int, k: int) -> np.ndarray:
    h = 2.0 * _ORACLE_L / (n + 1)
    x = -_ORACLE_L + h * np.arange(1, n + 1)
    diag = 2.0 / h ** 2 + 9.0 * x ** 4 - 6.0 * x
    off = np.full(n - 1, -1.0 / h ** 2)
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                         select_range=(0, k - 1),
                                         lapack_driver="stebz")


def anharmonic_levels(k: int, base: int = 4096) -> tuple[np.ndarray, float]:
    """e_1..e_k of -d^2/dx^2 + 9x^4 - 6x and an accuracy estimate.

    Mesh widths h, h/2, h/4 (n + 1 doubling); two Richardson steps cancel
    the h^2 and h^4 terms.  The accuracy estimate is the relative change
    between the one-step and two-step extrapolations.
    """
    v = [_anharmonic_levels_on(base * m - 1, k) for m in (1, 2, 4)]
    r1 = [(4.0 * b - a) / 3.0 for a, b in zip(v, v[1:])]
    r2 = (16.0 * r1[1] - r1[0]) / 15.0
    gap = float(np.max(np.abs(r2 - r1[1]) / np.abs(r2)))
    return r2, gap


def rational_rank(mat: list[list[int]]) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in mat if row]
    if not m:
        return 0
    rank, cols = 0, len(m[0])
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                fac = m[r][col] / m[rank][col]
                m[r] = [a - fac * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank
