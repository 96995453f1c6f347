"""Cochain complexes of descending cells and birth-death elimination.

All arithmetic here is exact (Python integers): incidence numbers are signed
trajectory counts, ranks and Betti numbers come from fraction-free Gaussian
elimination, and the elimination of a birth-death pair is the integer base
change that removes its two cells while preserving cohomology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (DegenerateInput, DegreeMismatch, NotAComplex,
                     NotMorseSmale, PairEntryNotUnit)

Matrix = list[list[int]]


@dataclass(frozen=True)
class Cell:
    id: str
    degree: int
    kind: str                  # "nd" | "bd0" | "bd1"
    f_value: float
    partner: str | None = None

    def __post_init__(self):
        if self.kind not in ("nd", "bd0", "bd1"):
            raise DegenerateInput(f"unknown cell kind {self.kind!r}")
        if (self.kind != "nd") != (self.partner is not None):
            raise DegenerateInput("exactly the birth-death cells carry partners")


@dataclass
class CochainComplex:
    """Integer cochain complex; delta[k] maps k-cochains to (k+1)-cochains.

    delta[k] has one row per (k+1)-cell and one column per k-cell, in the
    order of cells[k+1] and cells[k].
    """
    cells: dict[int, list[Cell]]
    delta: dict[int, Matrix]
    geometry: dict | None = field(default=None, compare=False, repr=False)

    def degrees(self) -> list[int]:
        return sorted(self.cells)

    def dim(self, k: int) -> int:
        return len(self.cells.get(k, []))

    def cell(self, cell_id: str) -> Cell:
        for cs in self.cells.values():
            for c in cs:
                if c.id == cell_id:
                    return c
        raise DegenerateInput(f"no cell {cell_id!r}")

    def index_of(self, cell_id: str) -> tuple[int, int]:
        for k, cs in self.cells.items():
            for i, c in enumerate(cs):
                if c.id == cell_id:
                    return k, i
        raise DegenerateInput(f"no cell {cell_id!r}")

    def bd_pairs(self) -> list[tuple[Cell, Cell]]:
        out = []
        for cs in self.cells.values():
            for c in cs:
                if c.kind == "bd0":
                    out.append((c, self.cell(c.partner)))
        return out

    def matrix(self, k: int) -> Matrix:
        rows, cols = self.dim(k + 1), self.dim(k)
        m = self.delta.get(k)
        if m is None:
            return [[0] * cols for _ in range(rows)]
        return m


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    rb = len(b)
    cb = len(b[0]) if b else 0
    out = [[0] * cb for _ in range(len(a))]
    for i, row in enumerate(a):
        for kk in range(rb):
            aik = row[kk]
            if aik:
                brow = b[kk]
                orow = out[i]
                for j in range(cb):
                    orow[j] += aik * brow[j]
    return out


def integer_rank(mat: Matrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on exact integers."""
    m = [list(row) for row in mat]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv_row = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                piv_row = r
                break
        if piv_row is None:
            continue
        m[rank], m[piv_row] = m[piv_row], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, n_rows):
            mr = m[r]
            mc = mr[col]
            top = m[rank]
            for c in range(n_cols):
                mr[c] = (p * mr[c] - mc * top[c]) // prev
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def validate(c: CochainComplex) -> ValidationReport:
    """delta o delta = 0, unit birth-death pair entries, partner consistency."""
    problems = []
    for k in c.degrees():
        dk = c.matrix(k)
        dk1 = c.matrix(k + 1)
        if dk and dk1:
            prod = _matmul(dk1, dk)
            for i, row in enumerate(prod):
                for j, v in enumerate(row):
                    if v != 0:
                        problems.append(
                            f"(delta^{k+1} delta^{k})[{i}][{j}] = {v} != 0")
    for bd0, bd1 in c.bd_pairs():
        if bd1.degree != bd0.degree + 1:
            problems.append(f"pair {bd0.id}/{bd1.id}: degrees not consecutive")
            continue
        k, col = c.index_of(bd0.id)
        _, row = c.index_of(bd1.id)
        entry = c.matrix(k)[row][col]
        if entry != 1:
            problems.append(
                f"pair entry delta[{bd1.id},{bd0.id}] = {entry}, expected 1")
    return ValidationReport(not problems, tuple(problems))


def betti(c: CochainComplex) -> list[int]:
    """Rational Betti numbers b_k = dim C^k - rank d^k - rank d^{k-1}.

    The list spans degree 0 through the top occupied degree; empty degrees
    in between contribute 0.
    """
    rep = validate(c)
    if not rep.ok:
        raise NotAComplex("; ".join(rep.problems))
    if not c.cells:
        return []
    top = max(c.degrees())
    ranks = {k: integer_rank(c.matrix(k)) for k in range(top + 1)}
    return [c.dim(k) - ranks.get(k, 0) - ranks.get(k - 1, 0)
            for k in range(top + 1)]


def eliminate_pair(c: CochainComplex, bd0_id: str) -> CochainComplex:
    """Remove one birth-death pair by the unit-entry base change.

    Entries between the remaining cells pick up the correction
    new = old - (column through the pair) * (row through the pair); the
    adjacent differentials are plain restrictions.
    """
    bd0 = c.cell(bd0_id)
    if bd0.kind != "bd0":
        raise DegenerateInput(f"{bd0_id!r} is not a birth-death 0-side cell")
    bd1 = c.cell(bd0.partner)
    k, col_y = c.index_of(bd0.id)
    _, row_y = c.index_of(bd1.id)
    dk = c.matrix(k)
    if dk[row_y][col_y] != 1:
        raise PairEntryNotUnit(
            f"delta[{bd1.id},{bd0.id}] = {dk[row_y][col_y]}, expected 1")

    new_cells = {
        q: [cell for cell in cs if cell.id not in (bd0.id, bd1.id)]
        for q, cs in c.cells.items()
    }
    new_cells = {q: cs for q, cs in new_cells.items() if cs}
    new_delta: dict[int, Matrix] = {}
    for q in c.degrees():
        m = c.matrix(q)
        if not m or not m[0]:
            continue
        if q == k:
            m2 = []
            for r, row in enumerate(m):
                if r == row_y:
                    continue
                m2.append([row[cc] - row[col_y] * m[row_y][cc]
                           for cc in range(len(row)) if cc != col_y])
        elif q == k - 1:
            m2 = [row for r, row in enumerate(m) if r != col_y]
        elif q == k + 1:
            m2 = [[v for cc, v in enumerate(row) if cc != row_y] for row in m]
        else:
            m2 = [list(row) for row in m]
        if m2 and m2[0]:
            new_delta[q] = m2
    out = CochainComplex(new_cells, new_delta, geometry=c.geometry)
    rep = validate(out)
    if not rep.ok:
        raise NotAComplex("elimination corrupted the complex: "
                          + "; ".join(rep.problems))
    return out


def next_pair(c: CochainComplex) -> tuple[Cell, Cell] | None:
    """The birth-death pair eliminated next: lowest degree, then lowest f, then id."""
    return min(c.bd_pairs(), key=lambda p: (p[0].degree, p[0].f_value, p[0].id), default=None)


def eliminate_all(c: CochainComplex) -> CochainComplex:
    """Eliminate every birth-death pair in the order of `next_pair`."""
    rep = validate(c)
    if not rep.ok:
        raise NotAComplex("; ".join(rep.problems))
    current = c
    while (pair := next_pair(current)) is not None:
        current = eliminate_pair(current, pair[0].id)
    return current


# -- gradient flow graphs -----------------------------------------------------

@dataclass(frozen=True)
class FlowVertex:
    id: str
    is_bd: bool
    f_value: float
    index: int = 0


@dataclass
class FlowGraph:
    """Signed trajectories between critical points; f decreases along edges."""
    vertices: dict[str, FlowVertex]
    edges: list[tuple[str, str, int]]

    def __post_init__(self):
        for src, dst, sign in self.edges:
            if sign not in (-1, 1):
                raise DegenerateInput("trajectory signs must be +-1")
            if not self.vertices[src].f_value > self.vertices[dst].f_value:
                raise NotMorseSmale(
                    f"edge {src}->{dst} does not decrease the function value")

    def direct_incidence(self, src: str, dst: str) -> int:
        return sum(s for a, b, s in self.edges if a == src and b == dst)

    def successors(self, src: str):
        return [(b, s) for a, b, s in self.edges if a == src]


def generalized_incidence_pathsum(g: FlowGraph, src: str, dst: str) -> int:
    """Signed count of generalized trajectories from src to dst.

    A generalized trajectory passes through any number of birth-death
    vertices; each passage (including a birth-death start) contributes a
    factor -1 on top of the product of ordinary trajectory signs.
    """
    v_src, v_dst = g.vertices[src], g.vertices[dst]
    if v_dst.is_bd:
        raise DegreeMismatch("generalized incidence targets a nondegenerate point")
    if not v_src.is_bd and v_src.index != v_dst.index + 1:
        raise DegreeMismatch(
            f"nondegenerate pair needs index difference 1, got "
            f"{v_src.index} -> {v_dst.index}")
    if v_src.is_bd and v_src.index != v_dst.index:
        raise DegreeMismatch(
            f"birth-death source needs matching index, got "
            f"{v_src.index} -> {v_dst.index}")

    total = 0

    def walk(vertex: str, sign: int, n_bd: int):
        nonlocal total
        for nxt, esign in g.successors(vertex):
            v = g.vertices[nxt]
            if nxt == dst:
                total += (-1) ** n_bd * sign * esign
            elif v.is_bd:
                walk(nxt, sign * esign, n_bd + 1)

    walk(src, 1, 1 if v_src.is_bd else 0)
    return total


def incidence_recursive(g: FlowGraph) -> dict[tuple[str, str], int]:
    """All generalized incidences by the finite recursion over f-ordered
    birth-death points; must agree with the exhaustive path sum."""
    bds = sorted((v for v in g.vertices.values() if v.is_bd),
                 key=lambda v: (v.f_value, v.id))
    nds = [v for v in g.vertices.values() if not v.is_bd]
    table: dict[tuple[str, str], int] = {}
    for y in bds:                       # increasing f: targets already known
        for x in nds:
            if x.index != y.index or x.f_value >= y.f_value:
                continue
            val = -g.direct_incidence(y.id, x.id)
            for y2 in bds:
                if y2.f_value < y.f_value and (y2.id, x.id) in table:
                    val -= g.direct_incidence(y.id, y2.id) * table[(y2.id, x.id)]
            table[(y.id, x.id)] = val
    for x1 in nds:
        for x0 in nds:
            if x1.index != x0.index + 1:
                continue
            val = g.direct_incidence(x1.id, x0.id)
            for y in bds:
                if y.index == x0.index and (y.id, x0.id) in table:
                    val += table[(y.id, x0.id)] * g.direct_incidence(x1.id, y.id)
            table[(x1.id, x0.id)] = val
    return table


# -- hat basis ---------------------------------------------------------------

def hat_basis(c: CochainComplex, incidence: dict[tuple[str, str], int]) -> dict[str, dict[str, int]]:
    """Base change whose nondegenerate part spans the reduced subcomplex.

    hat(e_x) = e_x + sum_y I(y, x) e_y0 over same-degree birth-death cells;
    hat(e_y0) = e_y0; hat(e_y1) = delta(e_y0).
    """
    out: dict[str, dict[str, int]] = {}
    for k in c.degrees():
        for cell in c.cells[k]:
            if cell.kind == "nd":
                coeffs = {cell.id: 1}
                for other in c.cells[k]:
                    if other.kind == "bd0":
                        i_val = incidence.get((other.id, cell.id), 0)
                        if i_val:
                            coeffs[other.id] = i_val
                out[cell.id] = coeffs
            elif cell.kind == "bd0":
                out[cell.id] = {cell.id: 1}
            else:
                bd0 = c.cell(cell.partner)
                kk, col = c.index_of(bd0.id)
                dk = c.matrix(kk)
                coeffs = {}
                for r, target in enumerate(c.cells[kk + 1]):
                    if dk[r][col]:
                        coeffs[target.id] = dk[r][col]
                out[cell.id] = coeffs
    _verify_hat_closure(c, out)
    return out


def hat_inverse(c: CochainComplex, k: int,
                hats: dict[str, dict[str, int]]) -> list[list[Fraction]]:
    """Exact inverse of the degree-k hat matrix.

    Column j of the hat matrix is hat(cells[k][j]) in cell coordinates, so
    the inverse maps a degree-k cochain (in the order of cells[k]) to its
    coordinates in the hat basis.
    """
    cells = c.cells.get(k, [])
    n = len(cells)
    idx = {cell.id: i for i, cell in enumerate(cells)}
    a = [[Fraction(0)] * n for _ in range(n)]
    for j, cell in enumerate(cells):
        for cid, v in hats[cell.id].items():
            a[idx[cid]][j] = Fraction(v)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    # dense exact Gauss-Jordan elimination (dimensions are tiny)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise NotAComplex("hat vectors do not form a basis")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def hat_coboundary(c: CochainComplex, k: int,
                   hats: dict[str, dict[str, int]]) -> list[list[Fraction]]:
    """delta^k w.r.t. the hat bases (exact): column j holds the degree-(k+1)
    hat coordinates of delta(hat(cells[k][j]))."""
    lower = c.cells.get(k, [])
    upper = c.cells.get(k + 1, [])
    dk = c.matrix(k)
    inv = hat_inverse(c, k + 1, hats)
    col_of = {cell.id: j for j, cell in enumerate(lower)}
    out = [[Fraction(0)] * len(lower) for _ in upper]
    for j, cell in enumerate(lower):
        image = [0] * len(upper)
        for cid, coeff in hats[cell.id].items():
            jj = col_of[cid]
            for r in range(len(upper)):
                image[r] += coeff * dk[r][jj]
        for i, row in enumerate(inv):
            out[i][j] = sum(x * y for x, y in zip(row, image))
    return out


def _verify_hat_closure(c: CochainComplex, hats: dict[str, dict[str, int]]):
    """delta(hat_x) must have no component on hat_y0 or hat_y1 vectors."""
    for k in c.degrees():
        upper = c.cells.get(k + 1, [])
        if not upper:
            continue
        dhat = hat_coboundary(c, k, hats)
        for j, cell in enumerate(c.cells[k]):
            if cell.kind != "nd":
                continue
            for i, target in enumerate(upper):
                if target.kind != "nd" and dhat[i][j] != 0:
                    raise NotAComplex(
                        f"delta(hat {cell.id}) has component {dhat[i][j]} "
                        f"on hat {target.id}")


# -- circle construction -------------------------------------------------------

def circle_complex_from_function(cf) -> tuple[CochainComplex, FlowGraph]:
    """Descending-cell complex and signed flow graph of a circle function.

    Cells: one 0-cell per minimum, one 1-cell (the open arc through the
    maximum) per maximum, and a 0-cell plus a one-sided descending arc per
    birth-death point.  1-cells are oriented with increasing angle; the arc
    of a birth-death pair is reoriented if needed so its pair entry is +1.
    """
    import numpy as np

    points = cf.labels
    if len(points) < 2:
        raise NotMorseSmale("need at least two critical points on the circle")
    two_pi = 2.0 * np.pi
    labs = list(points)
    n = len(labs)

    # arcs between consecutive critical points (by label), with flow direction
    arcs = []
    for i in range(n):
        la, lb = labs[i], labs[(i + 1) % n]
        a, b = points[la], points[lb]
        lo = a.theta
        hi = b.theta if b.theta > a.theta else b.theta + two_pi
        mid = 0.5 * (lo + hi)
        slope = cf.fprime(np.array([mid]))[0]
        if slope == 0.0:
            raise NotMorseSmale(f"f' vanishes inside the arc at {mid:.6f}")
        if abs(a.f_value - b.f_value) < 1e-12:
            raise NotMorseSmale(
                f"adjacent critical values at {a.theta:.4f}, {b.theta:.4f} coincide")
        # slope < 0: f decreases with theta, so flow runs a -> b
        src, dst = (la, lb) if slope < 0 else (lb, la)
        if points[src].f_value <= points[dst].f_value:
            raise NotMorseSmale("flow direction contradicts critical values")
        arcs.append({"lo": lo, "hi": hi, "src": src, "dst": dst,
                     "plus_end": lb, "minus_end": la})

    cells0: list[Cell] = []
    cells1: list[Cell] = []
    geometry: dict[str, dict] = {}
    for lab, p in points.items():
        if p.kind == "nd" and p.index == 0:
            cells0.append(Cell(lab, 0, "nd", p.f_value))
            geometry[lab] = {"theta": p.theta}
        elif p.kind == "bd":
            cells0.append(Cell(lab + ":0", 0, "bd0", p.f_value, partner=lab + ":1"))
            cells1.append(Cell(lab + ":1", 1, "bd1", p.f_value, partner=lab + ":0"))
            geometry[lab + ":0"] = {"theta": p.theta}
            geometry[lab + ":1"] = {}

    # each maximum owns its two adjacent (descending) arcs; each birth-death
    # point owns the single arc it sources
    owned: dict[str, list[dict]] = {}
    ends: dict[str, tuple[str, str]] = {}      # 1-cell id -> (minus end, plus end)
    for arc in arcs:
        owned.setdefault(arc["src"], []).append(arc)
    for lab, p in points.items():
        mine = owned.get(lab, [])
        if p.kind == "nd" and p.index == 1:
            if len(mine) != 2:
                raise NotMorseSmale(f"maximum {lab} sources {len(mine)} arcs")
            cells1.append(Cell(lab, 1, "nd", p.f_value))
            lo_arc = next(a for a in mine if a["plus_end"] == lab)
            hi_arc = next(a for a in mine if a["minus_end"] == lab)
            ends[lab] = (lo_arc["minus_end"], hi_arc["plus_end"])
            geometry[lab] = {"arcs": [(lo_arc["lo"], lo_arc["hi"]),
                                      (hi_arc["lo"], hi_arc["hi"])],
                             "orient": 1,
                             "theta": p.theta,
                             "ends": tuple(points[e] for e in ends[lab])}
        elif p.kind == "bd":
            if len(mine) != 1:
                raise NotMorseSmale(f"birth-death point {lab} sources {len(mine)} arcs")
            arc = mine[0]
            ends[lab + ":1"] = (arc["minus_end"], arc["plus_end"])
            geometry[lab + ":1"].update({
                "arcs": [(arc["lo"], arc["hi"])],
                "orient": 1,
                "theta": p.theta,
                "ends": tuple(points[e] for e in ends[lab + ":1"]),
            })
        elif p.kind == "nd" and p.index == 0 and mine:
            raise NotMorseSmale(f"minimum {lab} sources an arc")

    def zero_cell_id(lab: str) -> str:
        return lab + ":0" if points[lab].kind == "bd" else lab

    col = {c.id: j for j, c in enumerate(cells0)}
    row = {c.id: i for i, c in enumerate(cells1)}
    delta0: Matrix = [[0] * len(cells0) for _ in cells1]
    edges: list[tuple[str, str, int]] = []

    for c1 in cells1:
        geo = geometry[c1.id]
        minus_end, plus_end = ends[c1.id]
        # oriented + theta: boundary = (plus end) - (minus end)
        contes = [(plus_end, 1), (minus_end, -1)]
        if c1.kind == "bd1":
            # the pair entry must be +1: flip orientation if the point sits
            # at the minus end
            pair_sign = next(s for lab, s in contes if zero_cell_id(lab) == c1.partner)
            if pair_sign == -1:
                geo["orient"] = -1
                contes = [(lab, -s) for lab, s in contes]
        for lab, s in contes:
            delta0[row[c1.id]][col[zero_cell_id(lab)]] += s

    # trajectory signs: the contribution of each arc at its sink, under the
    # final orientation of the owning 1-cell
    vertices: dict[str, FlowVertex] = {}
    for lab, p in points.items():
        vertices[lab] = FlowVertex(lab, p.kind == "bd", p.f_value,
                                   index=p.index if p.kind == "nd" else 0)
    for arc in arcs:
        sign = 1 if arc["dst"] == arc["plus_end"] else -1
        if points[arc["src"]].kind == "bd":
            sign *= geometry[arc["src"] + ":1"]["orient"]
        edges.append((arc["src"], arc["dst"], sign))

    cplx = CochainComplex({0: cells0, 1: cells1}, {0: delta0}, geometry=geometry)
    rep = validate(cplx)
    if not rep.ok:
        raise NotAComplex("; ".join(rep.problems))
    graph = FlowGraph(vertices, edges)
    return cplx, graph


# -- random valid complexes (for property tests and the fuzz command) ----------

def insert_bd_pair(c: CochainComplex, degree: int, f_value: float,
                   u_row: list[int], v_col: list[int], tag: str) -> CochainComplex:
    """Inverse of eliminate_pair: graft a pair with prescribed incidences.

    u_row gives the incidences from the new bd0 cell to the existing
    degree-k cells, v_col the incidences from the existing (k+1)-cells to
    the pair; all other entries pick up the product correction, and the
    adjacent differentials gain the forced row/column, keeping d o d = 0.
    """
    k = degree
    n_k = c.dim(k)
    n_k1 = c.dim(k + 1)
    if len(u_row) != n_k or len(v_col) != n_k1:
        raise DegenerateInput("u_row/v_col lengths must match cell counts")
    bd0 = Cell(f"{tag}:0", k, "bd0", f_value, partner=f"{tag}:1")
    bd1 = Cell(f"{tag}:1", k + 1, "bd1", f_value, partner=f"{tag}:0")
    cells = {q: list(cs) for q, cs in c.cells.items()}
    cells.setdefault(k, []).append(bd0)
    cells.setdefault(k + 1, []).append(bd1)
    delta: dict[int, Matrix] = {}
    for q in set(list(c.delta.keys()) + [k - 1, k, k + 1]):
        m = [list(rr) for rr in c.matrix(q)]
        if q == k:
            m = [[m[r][cc] + v_col[r] * u_row[cc] for cc in range(n_k)]
                 for r in range(n_k1)]
            for r in range(n_k1):
                m[r].append(v_col[r])
            m.append(list(u_row) + [1])
        elif q == k - 1:
            dkm1 = c.matrix(k - 1)
            n_km1 = c.dim(k - 1)
            new_row = [-sum(u_row[cc] * dkm1[cc][b] for cc in range(n_k))
                       for b in range(n_km1)]
            m.append(new_row)
        elif q == k + 1:
            dk1 = c.matrix(k + 1)
            n_k2 = c.dim(k + 2)
            for s in range(n_k2):
                m[s].append(-sum(dk1[s][r] * v_col[r] for r in range(n_k1)))
        if m and m[0]:
            delta[q] = m
    out = CochainComplex(cells, delta, geometry=c.geometry)
    rep = validate(out)
    if not rep.ok:
        raise NotAComplex("pair insertion failed: " + "; ".join(rep.problems))
    return out


def random_complex(rng, n_pairs: int = 3, max_entry: int = 3) -> CochainComplex:
    """A random valid complex built by grafting pairs onto a random nd core.

    New pairs carry no direct incidence with earlier pair cells (that would
    change the earlier unit entries); they still interact arbitrarily
    through the nondegenerate cells, which is what elimination must untangle.
    """
    dims = [int(rng.integers(1, 4)) for _ in range(3)]
    cells = {q: [Cell(f"x{q}_{i}", q, "nd", float(q)) for i in range(dims[q])]
             for q in range(3)}
    # zero core differentials keep the seed trivially valid
    c = CochainComplex(cells, {})
    for p in range(n_pairs):
        deg = int(rng.integers(0, 2))
        f_val = deg + 0.1 + 0.8 * float(rng.random())
        u = [0 if cell.kind != "nd" else int(rng.integers(-max_entry, max_entry + 1))
             for cell in c.cells.get(deg, [])]
        v = [0 if cell.kind != "nd" else int(rng.integers(-max_entry, max_entry + 1))
             for cell in c.cells.get(deg + 1, [])]
        c = insert_bd_pair(c, deg, f_val, u, v, tag=f"y{p}")
    return c


# -- interchange format ---------------------------------------------------------

def write_complex(c: CochainComplex) -> str:
    """Serialize to the plain-text interchange format.

    One `cell` line per cell (id, degree, kind, f_value, optional partner)
    and one `delta` line per nonzero entry (degree, row cell id, column cell
    id, integer).
    """
    lines = ["# wittenlab cochain complex"]
    for k in c.degrees():
        for cell in c.cells[k]:
            base = f"cell {cell.id} {cell.degree} {cell.kind} {cell.f_value!r}"
            if cell.partner:
                base += f" {cell.partner}"
            lines.append(base)
    for k in c.degrees():
        m = c.matrix(k)
        uppers = c.cells.get(k + 1, [])
        lowers = c.cells.get(k, [])
        for r, ru in enumerate(uppers):
            for j, cl in enumerate(lowers):
                if m and m[r][j]:
                    lines.append(f"delta {k} {ru.id} {cl.id} {m[r][j]}")
    return "\n".join(lines) + "\n"


def _parse_number(kind, token: str, line: str):
    try:
        return kind(token)
    except ValueError:
        raise DegenerateInput(
            f"expected {kind.__name__}, got {token!r} in {line!r}") from None


def read_complex(text: str) -> CochainComplex:
    cells: dict[int, list[Cell]] = {}
    place: dict[str, tuple[int, int]] = {}       # cell id -> (degree, index)
    entries: dict[tuple[int, str, str], int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "cell":
            if len(parts) not in (5, 6):
                raise DegenerateInput(f"malformed cell line: {line!r}")
            cid, kind = parts[1], parts[3]
            deg = _parse_number(int, parts[2], line)
            fv = _parse_number(float, parts[4], line)
            if not math.isfinite(fv):
                raise DegenerateInput(f"non-finite f value in {line!r}")
            if cid in place:
                raise DegenerateInput(f"duplicate cell id {cid!r}")
            partner = parts[5] if len(parts) == 6 else None
            degree_cells = cells.setdefault(deg, [])
            place[cid] = (deg, len(degree_cells))
            degree_cells.append(Cell(cid, deg, kind, fv, partner))
        elif parts[0] == "delta":
            if len(parts) != 5:
                raise DegenerateInput(f"malformed delta line: {line!r}")
            key = (_parse_number(int, parts[1], line), parts[2], parts[3])
            if key in entries:
                raise DegenerateInput(f"repeated delta entry {key[1]},{key[2]}")
            entries[key] = _parse_number(int, parts[4], line)
        else:
            raise DegenerateInput(f"unknown directive {parts[0]!r}")
    delta: dict[int, Matrix] = {}
    for (k, rid, cid), val in entries.items():
        for ref in (rid, cid):
            if ref not in place:
                raise DegenerateInput(f"no cell {ref!r}")
        (kr, r), (kc, j) = place[rid], place[cid]
        if kr != k + 1 or kc != k:
            raise DegenerateInput(
                f"delta {k} entry {rid},{cid} has mismatched degrees")
        if k not in delta:
            delta[k] = [[0] * len(cells[k]) for _ in cells[k + 1]]
        delta[k][r][j] = val
    return CochainComplex(cells, delta)
