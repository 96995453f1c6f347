import math

import numpy as np
import pytest

from wittenlab import circle_lab as cl, morse_complex as mc, whs_compare as wc
from wittenlab.constants import load_constants
from wittenlab.errors import CellOutsideGrid, NotSelfIndexed
from wittenlab.logspace import LogValue, LogVector


def test_integrate_constant_one_form_full_circle():
    # flat function, a single 1-cell winding the whole circle: integral 2 pi
    zero = cl.CircleFunction((0.0,), (0.0,), 0.0, ())
    n = 256
    w = cl.assemble_witten(zero, 4.0, n)
    cells = {0: [mc.Cell("p", 0, "nd", 0.0)], 1: [mc.Cell("c", 1, "nd", 0.0)]}
    cplx = mc.CochainComplex(cells, {0: [[0]]})
    graph = mc.FlowGraph({"p": mc.FlowVertex("p", False, 0.0)}, [])
    cc = wc.CircleComplex(cplx, graph, incidence={}, hats={}, hat_inverse=([[1]], [[1]]),
                          delta_hat=[[0]], theta={"p": 0.0}, arcs={"c": (0.0, 0.0, 1)})
    form = np.full(n, math.sqrt(w.h))     # continuum value 1 at midpoints
    out = wc.integrate_cochain(w, 1, form, cc)
    assert abs(out["c"].to_float() - 2 * math.pi) <= 1e-10


def test_integrate_kernel_at_min_cell(example_a, a_solves):
    # e^{tf} weight cancels e^{-tf} at the cell point: the ground amplitude
    t = 200.0
    w = a_solves[t].w
    lv = w.kernel_node_logvec()
    out = wc.integrate_cochain(w, 0, lv, wc.circle_complex(example_a))
    val = out["min0"].to_float()
    # (t f''(min)/pi)^{1/4} is the continuum ground amplitude at the minimum
    fpp = float(example_a.fpp(example_a.minima[0].theta))
    assert abs(val - (t * fpp / math.pi) ** 0.25) / val <= 1e-2


def test_integrate_rejects_wrong_grid(example_a, a_solves):
    cc = wc.circle_complex(example_a)
    with pytest.raises(CellOutsideGrid):
        wc.integrate_cochain(a_solves[50.0].w, 0, np.ones(100), cc)


def test_stokes_consistency(example_a, example_b):
    rng_free_coeffs = [(0.7, 0.0), (0.3, -0.2), (0.0, 0.15), (-0.1, 0.05)]
    for cf, t in ((example_a, 50.0), (example_a, 400.0), (example_b, 36.0)):
        n = cl.default_n_grid(cf, t)
        th = np.arange(n) * (2 * np.pi / n)
        u = np.zeros(n)
        for m, (a, b) in enumerate(rng_free_coeffs):
            u += a * np.cos(m * th) + b * np.sin(m * th)
        assert wc.stokes_defect(cf, cl.assemble_witten(cf, t, n), u) <= 1e-8


def test_normalizations_formulas(example_a):
    t = 128.0
    consts = load_constants()
    norms = wc.normalizations(example_a, t)
    e1 = consts["e"][0]
    a = abs(example_a.bd_points[0].a)
    assert abs(norms.a_entries["bd0"] - 1.0 / (math.sqrt(e1) * (a * t) ** (1 / 3))) <= 1e-15
    m_expect = math.log(consts["xi1_0"]) + math.log(a * t) / 6.0 + t * 0.5
    assert abs(norms.m_log["bd0"] - m_expect) <= 1e-10
    assert abs(norms.small_prefactor_log[0] - 0.25 * math.log(math.pi / (2 * t))) <= 1e-14
    n2 = wc.normalizations(example_a, 2 * t)
    ratio = n2.a_entries["bd0"] / norms.a_entries["bd0"]
    assert abs(ratio - 2.0 ** (-1.0 / 3.0)) <= 1e-12


def test_f_star_requires_self_indexing(example_b):
    with pytest.raises(NotSelfIndexed):
        wc.f_star(cl.circle_solve(example_b, 50.0))


def test_f_star_diagonal_near_identity(a_solves):
    rep = wc.f_star(a_solves[400.0])
    for degree in (0, 1):
        mat = rep.f_matrices[degree]
        ids = rep.row_labels[degree]
        labs = rep.col_labels[degree]
        for j, lab in enumerate(labs):
            i = ids.index(lab)
            assert abs(mat[i, j] - 1.0) <= 0.05
    assert rep.deviation <= 0.05
    assert rep.defect <= 1e-6


def test_f_star_inverts_each_hat_matrix_once(a_solves, monkeypatch):
    degrees = []
    hat_inverse = mc.hat_inverse

    def counted(c, k, hats):
        degrees.append(k)
        return hat_inverse(c, k, hats)

    monkeypatch.setattr(mc, "hat_inverse", counted)
    wc.f_star(a_solves[100.0])
    assert sorted(degrees) == [0, 1]


def test_f_star_m_ratio_tends_to_one(a_solves):
    r1 = wc.f_star(a_solves[100.0])
    r2 = wc.f_star(a_solves[800.0])
    assert abs(r2.m_ratio["bd0"] - 1.0) < abs(r1.m_ratio["bd0"] - 1.0)
    assert abs(r2.m_ratio["bd0"] - 1.0) <= 0.05


def test_matrix_element_check_example_a(a_solves):
    # |f''| = 1 at both points of A: the nd row is the small-block pairing
    # rescaled by e^{t} sqrt(pi/t), sqrt(2) times the e^{t} sqrt(pi/2t) of the
    # normalized small complex
    ts = (50.0, 400.0, 800.0)
    rows = wc.matrix_element_check([a_solves[t] for t in ts])
    by = {(r.t, r.pair): r for r in rows}
    for t in ts:
        nd = by[(t, "max0<-min0")]
        assert nd.label == "nd"
        assert abs(nd.rescaled) <= 0.1
        bd = by[(t, "bd0:1<-bd0:0")]
        assert bd.label == "bd"
        assert abs(bd.rescaled - 1.0) <= 0.05
    # cross pairings vanish at large t
    for r in rows:
        if r.label.startswith("cross") and r.t == 800.0:
            assert abs(r.raw) <= 1e-8


def test_matrix_element_check_example_b(b_solves, b_sweep):
    rows = wc.matrix_element_check(list(b_solves.values()), strict_floor=False)
    t_max = max(b_sweep)
    seen = 0
    for r in rows:
        if r.t == t_max and r.label == "nd-extension":
            assert r.abs_err <= 0.2, (r.pair, r.rescaled, r.target)
            seen += 1
    assert seen == 4
    # errors shrink toward the largest deformation value for each pair
    pairs = sorted({r.pair for r in rows if r.label == "nd-extension"})
    for pair in pairs:
        errs = [r.abs_err for r in rows if r.pair == pair
                and r.label == "nd-extension"]
        assert errs[-1] <= errs[0]


def test_hat_coordinates_roundtrip(example_b):
    cc = wc.circle_complex(example_b)
    # coordinates of hat(min0) itself must be the unit vector
    vec = {cid: LogValue.from_float(float(v))
           for cid, v in cc.hats["min0"].items()}
    full = {c.id: vec.get(c.id, LogValue(0.0, -np.inf)) for c in cc.cplx.cells[0]}
    coords = wc._hat_coordinates(cc, 0, full)
    for cid, lv in coords.items():
        expect = 1.0 if cid == "min0" else 0.0
        assert abs(lv.to_float() - expect) <= 1e-12


@pytest.mark.parametrize("name, t", [("example_b", 81.0), ("example_two_bd", 200.0)])
def test_reversed_critical_points_name_the_same_points(request, name, t):
    cf = request.getfixturevalue(name)
    rev = cl.CircleFunction(cf.cos_coeffs, cf.sin_coeffs, cf.offset,
                            cf.critical_points[::-1], cf.self_indexed)
    assert rev.labels == cf.labels

    def cell_ids(f):
        cplx = wc.circle_complex(f).cplx
        return {k: [c.id for c in cells] for k, cells in cplx.cells.items()}

    assert cell_ids(rev) == cell_ids(cf)
    rows = [wc.matrix_element_check([cl.circle_solve(f, t)], strict_floor=False)
            for f in (cf, rev)]
    assert rows[0] == rows[1]
    assert {r.pair for r in rows[0] if r.label == "bd"} == \
        {f"{lab}:1<-{lab}:0" for lab, p in cf.labels.items() if p.kind == "bd"}
