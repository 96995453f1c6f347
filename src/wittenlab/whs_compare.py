"""Integration chain maps between the spectral and geometric complexes.

The low-cluster eigenform bases are pushed to cell cochains through the
weighted integration Int(e^{tf} omega); with the per-column normalizations
(standard small-block prefactors, a chart-curvature factor for functions
whose critical Hessians are not +-2 in arclength, and measured bd-block
normalizations) the resulting matrix converges to the identity w.r.t. the
hat-transformed cell basis. Every weighted sum runs in signed log space so
deformation strengths up to t = 800 neither overflow nor underflow.

The spectral side comes in as a `circle_lab.CircleSolve`, one per
deformation strength, built by the caller with `circle_lab.circle_solve`:
`f_star` and `matrix_element_check` read its small+large subcomplex off it
with `circle_lab.low_complex` and never assemble or solve again.  Hat
coordinates use the exact inverse of the hat matrix from
`morse_complex.hat_inverse`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circle_lab, morse_complex
from .circle_lab import CircleFunction, CircleSolve, WittenMatrices
from .constants import load_constants
from .errors import CellOutsideGrid, DegenerateInput, NotSelfIndexed
from .logspace import LogValue, LogVector, _logsum, logsumexp_signed

TWO_PI = 2.0 * math.pi


# -- the cell complex and its cell/grid mapping ---------------------------------

def circle_complex(cf: CircleFunction):
    """Complex, flow graph, incidence table and hat basis for one function."""
    cplx, graph = morse_complex.circle_complex_from_function(cf)
    table = morse_complex.incidence_recursive(graph)
    cell_table = {}
    for (src, dst), val in table.items():
        src_cell = src + ":0" if graph.vertices[src].is_bd else src
        dst_cell = dst + ":0" if graph.vertices[dst].is_bd else dst
        cell_table[(src_cell, dst_cell)] = val
    hats = morse_complex.hat_basis(cplx, cell_table)
    return cplx, graph, cell_table, hats


def _snap(theta: float, n: int) -> int:
    return int(round(theta / (TWO_PI / n))) % n


@dataclass(frozen=True)
class CellGrid:
    """Node/midpoint index layout of the cells on one staggered grid."""
    n: int
    node_of: dict            # 0-cell id -> node index
    span_of: dict            # 1-cell id -> (start node, end node, orient)

    @classmethod
    def build(cls, cplx: morse_complex.CochainComplex, n: int) -> "CellGrid":
        geo = cplx.geometry
        if geo is None:
            raise CellOutsideGrid("complex carries no circle geometry")
        node_of = {}
        span_of = {}
        for k, cells in cplx.cells.items():
            for cell in cells:
                g = geo[cell.id]
                if k == 0:
                    node_of[cell.id] = _snap(g["theta"], n)
                else:
                    lo_end, hi_end = g["ends"]
                    span_of[cell.id] = (_snap(lo_end.theta, n),
                                        _snap(hi_end.theta, n), g["orient"])
        return cls(n, node_of, span_of)

    def mid_indices(self, cell_id: str) -> np.ndarray:
        start, end, _ = self.span_of[cell_id]
        length = (end - start) % self.n
        if length == 0:
            length = self.n
        return (start + np.arange(length)) % self.n


def integrate_cochain(w: WittenMatrices, degree: int, form,
                      cplx: morse_complex.CochainComplex) -> dict[str, LogValue]:
    """e^{tf}-weighted integrals of a discrete form over the cells.

    0-cells evaluate the (continuum-normalized) form at the snapped node;
    1-cells accumulate the midpoint rule over their node span, oriented by
    the cell.  Input forms may be plain grid vectors or LogVector; returns
    one signed-log value per cell of the matching degree.
    """
    if degree not in (0, 1):
        raise DegenerateInput("degree must be 0 or 1")
    t = w.t
    lv = form if isinstance(form, LogVector) else LogVector.from_values(np.asarray(form, float))
    if len(lv) != w.n_grid:
        raise CellOutsideGrid("form length does not match the grid")
    grid_map = CellGrid.build(cplx, w.n_grid)
    log_h = math.log(w.h)
    out = {}
    for cell in cplx.cells.get(degree, []):
        if degree == 0:
            i = grid_map.node_of[cell.id]
            out[cell.id] = LogValue(lv.sign[i],
                                    t * w.f_nodes[i] + lv.log[i] - 0.5 * log_h)
        else:
            mids = grid_map.mid_indices(cell.id)
            orient = grid_map.span_of[cell.id][2]
            logs = t * w.f_mids[mids] + lv.log[mids] + 0.5 * log_h
            signs = orient * lv.sign[mids]
            s, l = logsumexp_signed(signs, logs)
            out[cell.id] = LogValue(s, l)
    return out


def stokes_defect(cf: CircleFunction, w: WittenMatrices, u: np.ndarray) -> float:
    """Backward-relative defect of delta(Int u) = Int(d(t) u) on a raw 0-form.

    Each 1-cell defect is normalized by the absolute quadrature mass of its
    integrand (the natural backward-error scale: the weighted midpoint sums
    telescope through terms up to e^{t(f_peak - f_end)} larger than their
    value, so an absolute comparison would only measure that cancellation).
    """
    t = w.t
    cplx, _, _, _ = circle_complex(cf)
    ints0 = integrate_cochain(w, 0, u, cplx)
    lv = LogVector.from_values(np.asarray(u, float))
    du = w.apply_d_log(lv)
    ints1 = integrate_cochain(w, 1, du, cplx)
    grid_map = CellGrid.build(cplx, w.n_grid)
    log_h = math.log(w.h)
    delta0 = cplx.matrix(0)
    cells0 = cplx.cells[0]
    cells1 = cplx.cells[1]
    worst = 0.0
    for r, c1 in enumerate(cells1):
        acc = LogValue(0.0, -np.inf)
        for j, c0 in enumerate(cells0):
            if delta0[r][j]:
                acc = acc + ints0[c0.id].scaled(
                    math.log(abs(delta0[r][j])),
                    1.0 if delta0[r][j] > 0 else -1.0)
        diff = acc + ints1[c1.id].scaled(0.0, -1.0)
        if diff.sign == 0.0:
            continue
        mids = grid_map.mid_indices(c1.id)
        mass_log = _logsum(t * w.f_mids[mids] + du.log[mids] + 0.5 * log_h)
        mass_log = max(mass_log, acc.log, ints1[c1.id].log)
        worst = max(worst, math.exp(diff.log - mass_log))
    return worst


# -- normalizations ---------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationSet:
    """Asymptotic per-block normalizations (signed-log where they overflow).

    small_prefactor_log[k]: log of (pi/2t)^{(n-2k)/4} e^{-tk} on the circle;
    m_log[label]: log of the bd-block constant (2t/pi)^{(n-1-2k)/4} Xi1(0)
    |a t|^{1/6} e^{t f(y)}; a_entries[label]: (sqrt(e1) |a t|^{1/3})^{-1};
    curvature[x-label]: the chart factor (|f''(x)|/2)^{(2k-1)/4} extending the
    normal-form prefactors to general Hessians.
    """
    t: float
    small_prefactor_log: dict
    m_log: dict
    a_entries: dict
    curvature: dict


def normalizations(cf: CircleFunction, t: float) -> NormalizationSet:
    consts = load_constants()
    e1 = consts["e"][0]
    xi0 = consts["xi1_0"]
    small = {k: 0.25 * (1 - 2 * k) * math.log(math.pi / (2.0 * t)) - t * k
             for k in (0, 1)}
    m_log = {}
    a_entries = {}
    curvature = {}
    for lab, p in cf.labels.items():
        if p.kind == "bd":
            # n = 1, k = 0: the (2t/pi) power is 0
            m_log[lab] = math.log(xi0) + (1.0 / 6.0) * math.log(abs(p.a) * t) \
                + t * p.f_value
            a_entries[lab] = 1.0 / (math.sqrt(e1) * (abs(p.a) * t) ** (1.0 / 3.0))
        else:
            fpp = abs(float(cf.fpp(p.theta)))
            curvature[lab] = (fpp / 2.0) ** (0.25 * (1 - 2 * p.index))
    return NormalizationSet(t, small, m_log, a_entries, curvature)


# -- the chain map -----------------------------------------------------------------

@dataclass
class ChainMapReport:
    t: float
    n_grid: int
    f_matrices: dict            # degree -> ndarray (rows cells, cols basis)
    row_labels: dict
    col_labels: dict
    deviation: float            # max |F - I|
    defect: float               # max |delta o F - F o d~|
    m_ratio: dict               # bd label -> measured / asymptotic bd-block entry


def _hat_coordinates(cplx, hats, degree, vec: dict[str, LogValue]) -> dict[str, LogValue]:
    """Coordinates of a signed-log cochain w.r.t. the hat basis (exact ints)."""
    ids = [c.id for c in cplx.cells.get(degree, [])]
    inv = morse_complex.hat_inverse(cplx, degree, hats)
    out = {}
    for cid, row in zip(ids, inv):
        acc = LogValue(0.0, -np.inf)
        for src, coeff in zip(ids, row):
            if coeff != 0 and vec[src].sign != 0.0:
                acc = acc + vec[src].scaled(math.log(abs(coeff)),
                                            1.0 if coeff > 0 else -1.0)
        out[cid] = acc
    return out


def f_star(solve: CircleSolve) -> ChainMapReport:
    """The normalized integration chain map and its distance from identity.

    Requires an affinely self-indexed function.  Column conventions:
    nondegenerate columns carry the standard prefactor times the chart
    curvature factor; bd columns are divided by the measured bd-block entry
    (0-side) resp. that entry over the d(t)-image norm (1-side) -- the
    measured counterparts of the displayed asymptotic normalizations, which
    is what makes the block limits exact instead of order t^{-1/3} accurate.
    """
    cf, t = solve.cf, solve.t
    if not cf.self_indexed:
        raise NotSelfIndexed(
            "chain-map comparison needs min -> 0 / max -> 1; "
            "use the Agmon-rate matrix element checks instead")
    cplx, graph, inc_table, hats = circle_complex(cf)
    low = circle_lab.low_complex(solve)
    vecs, bd_of, raw_elems, w = low.vectors, low.bd_of, low.pairings, solve.w
    norms = normalizations(cf, t)

    # measured norm of d(t) E_y^0 per birth-death point (= sqrt of the large
    # eigenvalue); the displayed diagonal normalization is its reciprocal
    d_image_norm = {bd_of[lab]: abs(raw_elems[(f"{bd_of[lab]}:1", lab)].to_float())
                    for lab in vecs[0] if lab in bd_of}

    m_measured: dict[str, LogValue] = {}
    m_ratio: dict[str, float] = {}
    f_matrices = {}
    row_labels = {}
    col_labels = {}
    deviation = 0.0
    delta_hat = np.array(morse_complex.hat_coboundary(cplx, 0, hats), dtype=float)
    bd_cols0: dict[str, np.ndarray] = {}
    for degree in (0, 1):
        cells = cplx.cells[degree]
        ids = [c.id for c in cells]
        labs = list(vecs[degree])
        columns = []
        for lab in labs:
            bdlab = bd_of.get(lab)
            if bdlab is not None and degree == 1:
                # exact intertwining: Int e^{tf} (M A)^{-1} E_y^1 equals
                # delta applied to the normalized 0-side column (Stokes),
                # which needs no tail resolution of the 1-form eigenvector
                columns.append(delta_hat @ bd_cols0[bdlab])
                continue
            ints = integrate_cochain(w, degree, vecs[degree][lab], cplx)
            coords = _hat_coordinates(cplx, hats, degree, ints)
            if bdlab is None:
                pref = norms.small_prefactor_log[degree] \
                    - math.log(norms.curvature[lab])
                col = {cid: v.scaled(pref) for cid, v in coords.items()}
            else:
                m_val = coords[bdlab + ":0"]
                m_measured[bdlab] = m_val
                m_ratio[bdlab] = m_val.sign * math.exp(
                    m_val.log - norms.m_log[bdlab])
                col = {cid: LogValue(v.sign * m_val.sign, v.log - m_val.log)
                       for cid, v in coords.items()}
            colv = np.array([col[cid].to_float() for cid in ids])
            if bdlab is not None:
                bd_cols0[bdlab] = colv
            columns.append(colv)
        f_mat = np.column_stack(columns) if columns else np.zeros((len(ids), 0))
        f_matrices[degree] = f_mat
        row_labels[degree] = ids
        col_labels[degree] = labs
        ident = _identity_pairing(ids, labs)
        deviation = max(deviation, float(np.max(np.abs(f_mat - ident))))
    labs0, labs1 = col_labels[0], col_labels[1]
    d_small_log = t + 0.5 * math.log(math.pi / (2.0 * t))
    dt_mat = np.zeros((len(labs1), len(labs0)))
    for j, l0 in enumerate(labs0):
        for i, l1 in enumerate(labs1):
            val = raw_elems[(l1, l0)]
            if l0 not in bd_of:
                val = val.scaled(d_small_log)
            else:
                m0 = m_measured[bd_of[l0]]
                val = LogValue(val.sign * m0.sign, val.log - m0.log)
            if l1 in bd_of:
                bdlab1 = bd_of[l1]
                m1 = m_measured[bdlab1]
                val = LogValue(val.sign * m1.sign,
                               val.log + m1.log - math.log(d_image_norm[bdlab1]))
            dt_mat[i, j] = val.to_float()
    lhs = delta_hat @ f_matrices[0]
    rhs = f_matrices[1] @ dt_mat
    defect = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
    return ChainMapReport(t, w.n_grid, f_matrices, row_labels, col_labels,
                          deviation, defect, m_ratio)


def _identity_pairing(ids: list[str], labs: list[str]) -> np.ndarray:
    """Identity under the cell-id <-> basis-label correspondence."""
    ident = np.zeros((len(ids), len(labs)))
    for j, lab in enumerate(labs):
        for i, cid in enumerate(ids):
            if cid == lab:
                ident[i, j] = 1.0
    return ident


# -- matrix element limits ---------------------------------------------------------

@dataclass(frozen=True)
class PairingRow:
    t: float
    pair: str
    raw: float
    rescaled: float
    target: float
    abs_err: float
    label: str


def matrix_element_check(solves: list[CircleSolve],
                         strict_floor: bool = True) -> list[PairingRow]:
    """Convergence table of the cluster-basis pairings under d(t).

    Nondegenerate pairs are rescaled by e^{t(f(x1)-f(x0))} sqrt(pi/t) divided
    by the curvature factor (f''(x0) |f''(x1)|)^{1/4} and compared against the
    exact generalized incidence integers; birth-death pairs are divided by
    sqrt(e1) |a t|^{1/3} and compared against 1; all cross pairings are
    compared against 0.  Rows of non-self-indexed functions use the actual
    critical-value differences (the Agmon rates between comparable points)
    and carry the "extension" label.  Takes one solve of the function per
    deformation strength; rows come in increasing t.
    """
    if not solves:
        raise DegenerateInput("need at least one solve")
    cf = solves[0].cf
    if any(s.cf != cf for s in solves):
        raise DegenerateInput("all solves must be of one function")
    e1 = load_constants()["e"][0]
    cplx, graph, inc_table, hats = circle_complex(cf)
    points = cf.labels
    ext = "" if cf.self_indexed else "-extension"
    rows = []
    for solve in sorted(solves, key=lambda s: s.t):
        t = solve.t
        low = circle_lab.low_complex(solve, strict_floor=strict_floor)
        for (l1, l0), lv in sorted(low.pairings.items()):
            raw = lv.to_float()
            b0, b1 = low.bd_of.get(l0), low.bd_of.get(l1)
            if b0 is None and b1 is None:
                pm, pM = points[l0], points[l1]
                curv = (abs(float(cf.fpp(pm.theta)))
                        * abs(float(cf.fpp(pM.theta)))) ** 0.25
                dfv = pM.f_value - pm.f_value
                rescaled = lv.scaled(t * dfv + 0.5 * math.log(math.pi / t)
                                     - math.log(curv)).to_float()
                target = float(inc_table.get((l1, l0), 0))
                rows.append(PairingRow(t, f"{l1}<-{l0}", raw, rescaled, target,
                                       abs(rescaled - target), "nd" + ext))
            elif b0 is not None and b0 == b1:
                bd = points[b0]
                denom = math.sqrt(e1) * (abs(bd.a) * t) ** (1.0 / 3.0)
                rescaled = raw / denom
                rows.append(PairingRow(t, f"{l1}<-{l0}", raw, rescaled, 1.0,
                                       abs(rescaled - 1.0), "bd"))
            else:
                kind = "cross" if b0 is None or b1 is None else "cross-bd"
                rows.append(PairingRow(t, f"{l1}<-{l0}", raw, raw, 0.0,
                                       abs(raw), kind))
    return rows
