import dataclasses
import math
import re

import numpy as np
import pytest

from wittenlab import circle_lab, morse_complex as mc, whs_compare
from wittenlab.errors import (DegenerateInput, DegreeMismatch, NotAComplex,
                              PairEntryNotUnit, WittenLabError)


def simple_pair_complex(entry=1):
    cells = {
        0: [mc.Cell("y:0", 0, "bd0", 0.5, partner="y:1")],
        1: [mc.Cell("y:1", 1, "bd1", 0.5, partner="y:0")],
    }
    return mc.CochainComplex(cells, {0: [[entry]]})


def test_validate_ok_and_pair_entry():
    rep = mc.validate(simple_pair_complex())
    assert rep.ok
    rep = mc.validate(simple_pair_complex(entry=2))
    assert not rep.ok
    assert "expected 1" in rep.problems[0]


def test_validate_example_a(example_a):
    cplx = whs_compare.circle_complex(example_a).cplx
    assert mc.validate(cplx).ok
    assert mc.integer_rank(cplx.matrix(0)) == 1


def test_betti_circle(example_a, example_b):
    for ex in (example_a, example_b):
        assert mc.betti(whs_compare.circle_complex(ex).cplx) == [1, 1]


def test_betti_zero_differential():
    cells = {0: [mc.Cell(f"a{i}", 0, "nd", 0.0) for i in range(3)],
             1: [mc.Cell(f"b{i}", 1, "nd", 1.0) for i in range(2)]}
    c = mc.CochainComplex(cells, {})
    assert mc.betti(c) == [3, 2]


def test_betti_sphere_height_complex():
    cells = {0: [mc.Cell("bottom", 0, "nd", 0.0)],
             2: [mc.Cell("top", 2, "nd", 2.0)]}
    c = mc.CochainComplex(cells, {})
    assert mc.betti(c) == [1, 0, 1]


def test_eliminate_example_a(example_a):
    red = mc.eliminate_pair(whs_compare.circle_complex(example_a).cplx, "bd0:0")
    assert red.dim(0) == 1 and red.dim(1) == 1
    assert red.matrix(0) == [[0]]


def test_eliminate_pair_no_cross_incidences():
    base = mc.CochainComplex(
        {0: [mc.Cell("x0", 0, "nd", 0.0)], 1: [mc.Cell("x1", 1, "nd", 1.0)]}, {})
    c = mc.insert_bd_pair(base, 0, 0.5, [0], [0], tag="y")
    red = mc.eliminate_pair(c, "y:0")
    assert red.dim(0) == 1 and red.dim(1) == 1
    assert red.matrix(0) == [[0]]


def test_eliminate_chain_of_two_pairs():
    base = mc.CochainComplex(
        {0: [mc.Cell("x0", 0, "nd", 0.0)], 1: [mc.Cell("x1", 1, "nd", 1.0)]},
        {0: [[0]]})
    c = mc.insert_bd_pair(base, 0, 0.3, [2], [1], tag="y0")
    c = mc.insert_bd_pair(c, 0, 0.6, [-1, 0], [1, 0], tag="y1")
    b0 = mc.betti(c)
    red = mc.eliminate_all(c)
    assert not red.bd_pairs()
    assert mc.betti(red) == b0
    assert red.dim(0) == 1 and red.dim(1) == 1


def test_eliminate_pair_entry_not_unit():
    c = simple_pair_complex(entry=2)
    with pytest.raises(PairEntryNotUnit):
        mc.eliminate_pair(c, "y:0")


def test_eliminate_all_identity_without_pairs():
    cells = {0: [mc.Cell("x", 0, "nd", 0.0)], 1: [mc.Cell("z", 1, "nd", 1.0)]}
    c = mc.CochainComplex(cells, {0: [[3]]})
    red = mc.eliminate_all(c)
    assert red.matrix(0) == [[3]]


def test_random_complexes_betti_preserved():
    rng = np.random.default_rng(42)
    for _ in range(100):
        c = mc.random_complex(rng, n_pairs=int(rng.integers(1, 7)))
        b0 = mc.betti(c)
        red = mc.eliminate_all(c)
        assert mc.betti(red) == b0
        assert not red.bd_pairs()
        for k in red.degrees():
            nd_count = sum(1 for cell in c.cells.get(k, [])
                           if cell.kind == "nd")
            assert red.dim(k) == nd_count


def _base_change(c, k, i, j, s):
    """The complex in the basis where degree-k cell j stands for e_j + s e_i:
    column j of delta^k gains s * column i, row i of delta^{k-1} loses
    s * row j.  Unimodular, so it keeps delta o delta = 0 and the Betti
    numbers; with j nondegenerate and i not a bd1 cell it keeps every pair
    entry too."""
    delta = {q: [list(row) for row in m] for q, m in c.delta.items()}
    for row in delta.get(k, ()):
        row[j] += s * row[i]
    if k - 1 in delta:
        m = delta[k - 1]
        m[i] = [a - s * b for a, b in zip(m[i], m[j])]
    return mc.CochainComplex(c.cells, delta)


def _shuffled(c, rng, n_ops):
    for _ in range(n_ops):
        k = int(rng.choice(c.degrees()))
        cells = c.cells[k]
        nd = [j for j, cell in enumerate(cells) if cell.kind == "nd"]
        sources = [i for i, cell in enumerate(cells) if cell.kind != "bd1"]
        if len(sources) < 2 or not nd:
            continue
        j = int(rng.choice(nd))
        i = int(rng.choice([i for i in sources if i != j]))
        c = _base_change(c, k, i, j, int(rng.choice([-1, 1])))
        assert mc.validate(c).ok
    return c


def _fold_eliminate_pair(c):
    for bd0, _ in mc.elimination_order(c):
        c = mc.eliminate_pair(c, bd0.id)
    return c


def test_eliminate_all_equals_fold_of_eliminate_pair():
    rng = np.random.default_rng(15)
    shuffled = 0
    for n in range(200):
        c = mc.random_complex(rng, n_pairs=int(rng.integers(1, 7)))
        draws = [c]
        if n % 4 == 0:
            draws.append(_shuffled(c, rng, 4))
            shuffled += draws[-1].delta != c.delta
        for d in draws:
            assert (mc.write_complex(mc.eliminate_all(d))
                    == mc.write_complex(_fold_eliminate_pair(d)))
    assert shuffled >= 40


def test_eliminate_all_leaves_its_input_unchanged():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = _shuffled(mc.random_complex(rng, n_pairs=4), rng, 3)
        cells = {k: list(cs) for k, cs in c.cells.items()}
        delta = {k: [list(row) for row in m] for k, m in c.delta.items()}
        mc.eliminate_all(c)
        assert c.cells == cells and c.delta == delta


def test_eliminate_all_reports_a_corrupted_step():
    cells = {0: [mc.Cell("y0:0", 0, "bd0", 0.3, partner="y0:1"),
                 mc.Cell("y1:0", 0, "bd0", 0.6, partner="y1:1")],
             1: [mc.Cell("y0:1", 1, "bd1", 0.3, partner="y0:0"),
                 mc.Cell("y1:1", 1, "bd1", 0.6, partner="y1:0")]}
    c = mc.CochainComplex(cells, {0: [[1, 1], [1, 1]]})
    assert mc.validate(c).ok
    with pytest.raises(NotAComplex, match=r"elimination corrupted the complex: "
                       r"pair entry delta\[y1:1,y1:0\] = 0"):
        mc.eliminate_all(c)


def test_a_step_that_breaks_two_later_pairs_names_the_first():
    tags = ("y0", "y1", "y2")
    cells = {k: [mc.Cell(f"{y}:{k}", k, f"bd{k}", 0.3 * (i + 1), partner=f"{y}:{1 - k}")
                 for i, y in enumerate(tags)] for k in (0, 1)}
    c = mc.CochainComplex(cells, {0: [[1, 1, 1], [1, 1, 1], [1, 1, 1]]})
    assert mc.validate(c).ok
    with pytest.raises(NotAComplex) as exc:
        mc.eliminate_all(c)
    assert str(exc.value) == ("elimination corrupted the complex: "
                              "pair entry delta[y1:1,y1:0] = 0, expected 1")


def test_the_result_of_an_elimination_is_validated(monkeypatch):
    """A cancellation that leaves delta o delta != 0 is caught by the final
    `validate` of both eliminators."""
    base = mc.CochainComplex(
        {q: [mc.Cell(f"x{q}", q, "nd", float(q))] for q in range(3)},
        {0: [[1]], 1: [[0]]})
    c = mc.insert_bd_pair(base, 0, 0.5, [0], [0], tag="y")
    assert mc.write_complex(mc.eliminate_all(c)) == mc.write_complex(base)
    cancel = mc._cancel

    def corrupting_cancel(cells, delta, k, col, row):
        cancel(cells, delta, k, col, row)
        delta[1][0][0] += 1

    monkeypatch.setattr(mc, "_cancel", corrupting_cancel)
    for eliminate in (mc.eliminate_all, lambda d: mc.eliminate_pair(d, "y:0")):
        with pytest.raises(NotAComplex, match=r"elimination corrupted the complex: "
                           r"\(delta\^1 delta\^0\)\[0\]\[0\] = 1 != 0"):
            eliminate(c)


@pytest.mark.parametrize("text", [
    # bd0 names a nondegenerate cell; the bd1 names that bd0
    "cell a 0 nd 0.0\ncell y:0 0 bd0 0.5 x1\ncell x1 1 nd 1.0\n"
    "cell y:1 1 bd1 0.5 y:0\ndelta 0 x1 y:0 1\ndelta 0 y:1 y:0 1\n",
    # two bd0 cells name the same bd1
    "cell y:0 0 bd0 0.5 y:1\ncell z:0 0 bd0 0.6 y:1\n"
    "cell y:1 1 bd1 0.5 y:0\ndelta 0 y:1 y:0 1\ndelta 0 y:1 z:0 1\n",
    # a partner that does not exist
    "cell y:0 0 bd0 0.5 y:1\n",
], ids=["bd0_names_nd", "shared_bd1", "missing_partner"])
def test_validate_reports_inconsistent_partners(text):
    c = mc.read_complex(text)
    rep = mc.validate(c)
    assert not rep.ok
    assert any("is not a bd" in p for p in rep.problems)
    with pytest.raises(NotAComplex):
        mc.eliminate_all(c)


def test_validate_reports_misfiled_and_duplicate_cells():
    x = mc.Cell("x", 0, "nd", 0.0)
    rep = mc.validate(mc.CochainComplex({0: [x], 1: [x]}, {}))
    assert not rep.ok
    assert any("listed under degree 1" in p for p in rep.problems)
    assert any("duplicate cell id" in p for p in rep.problems)


def _graph(vertices, edges):
    vs = {v[0]: mc.FlowVertex(*v) for v in vertices}
    return mc.FlowGraph(vs, edges)


def test_pathsum_direct_trajectory():
    g = _graph([("x1", False, 1.0, 1), ("x0", False, 0.0, 0)],
               [("x1", "x0", 1)])
    assert mc.generalized_incidence_pathsum(g, "x1", "x0") == 1


def test_pathsum_single_bd_passage_flips_sign():
    g = _graph([("x1", False, 1.0, 1), ("y", True, 0.5, 0),
                ("x0", False, 0.0, 0)],
               [("x1", "y", 1), ("y", "x0", 1)])
    # path through one birth-death point contributes -1
    assert mc.generalized_incidence_pathsum(g, "x1", "x0") == -1
    # a trajectory leaving a birth-death source also flips once
    assert mc.generalized_incidence_pathsum(g, "y", "x0") == -1


def test_pathsum_example_a(example_a):
    cc = whs_compare.circle_complex(example_a)
    assert mc.generalized_incidence_pathsum(cc.graph, "max0", "min0") == 0
    assert cc.incidence[("max0", "min0")] == 0
    assert cc.incidence[("bd0:0", "min0")] == 1


def test_degree_mismatch():
    g = _graph([("x2", False, 2.0, 2), ("x0", False, 0.0, 0)],
               [("x2", "x0", 1)])
    with pytest.raises(DegreeMismatch):
        mc.generalized_incidence_pathsum(g, "x2", "x0")


def test_recursion_no_bd_equals_direct():
    g = _graph([("x1", False, 1.0, 1), ("x1b", False, 1.0, 1),
                ("x0", False, 0.0, 0)],
               [("x1", "x0", 1), ("x1", "x0", -1), ("x1b", "x0", 1)])
    table = mc.incidence_recursive(g)
    assert table[("x1", "x0")] == 0
    assert table[("x1b", "x0")] == 1


def random_dag(rng):
    """Random flow graph: index-1 tops, birth-death middles, index-0 sinks."""
    n_top = int(rng.integers(1, 3))
    n_bd = int(rng.integers(0, 4))
    n_bot = int(rng.integers(1, 3))
    vertices = []
    for i in range(n_top):
        vertices.append((f"T{i}", False, 2.0 + i * 0.01, 1))
    for i in range(n_bd):
        vertices.append((f"Y{i}", True, 1.0 + i * 0.1, 0))
    for i in range(n_bot):
        vertices.append((f"B{i}", False, 0.0 + i * 0.01, 0))
    edges = []
    for i in range(n_top):
        for j in range(n_bd):
            for _ in range(int(rng.integers(0, 3))):
                edges.append((f"T{i}", f"Y{j}", int(rng.choice([-1, 1]))))
        for j in range(n_bot):
            for _ in range(int(rng.integers(0, 3))):
                edges.append((f"T{i}", f"B{j}", int(rng.choice([-1, 1]))))
    for j in range(n_bd):
        for j2 in range(j):
            for _ in range(int(rng.integers(0, 2))):
                edges.append((f"Y{j}", f"Y{j2}", int(rng.choice([-1, 1]))))
        for k in range(n_bot):
            for _ in range(int(rng.integers(0, 3))):
                edges.append((f"Y{j}", f"B{k}", int(rng.choice([-1, 1]))))
    return _graph(vertices, edges)


def test_recursion_equals_pathsum_on_random_dags():
    rng = np.random.default_rng(123)
    for _ in range(200):
        g = random_dag(rng)
        table = mc.incidence_recursive(g)
        for (src, dst), val in table.items():
            assert mc.generalized_incidence_pathsum(g, src, dst) == val


def test_hat_basis_no_bd_is_identity():
    cells = {0: [mc.Cell("x", 0, "nd", 0.0)], 1: [mc.Cell("z", 1, "nd", 1.0)]}
    c = mc.CochainComplex(cells, {0: [[2]]})
    hats = mc.hat_basis(c, {})
    assert hats["x"] == {"x": 1}
    assert hats["z"] == {"z": 1}


def test_hat_basis_example_a(example_a):
    cc = whs_compare.circle_complex(example_a)
    assert cc.hats["min0"] == {"min0": 1, "bd0:0": cc.incidence[("bd0:0", "min0")]}
    assert cc.hats["bd0:0"] == {"bd0:0": 1}
    # hat closure is verified where circle_complex forms delta^0 in the hat
    # bases; reaching here means it held


def test_hat_basis_example_b_closure(example_b):
    red = mc.eliminate_all(whs_compare.circle_complex(example_b).cplx)
    # reduced dims match the nondegenerate counts
    assert red.dim(0) == 2 and red.dim(1) == 2


def test_hat_closure_detects_corruption(example_a):
    cc = whs_compare.circle_complex(example_a)
    cplx, bad = cc.cplx, dict(cc.incidence)
    bad[("bd0:0", "min0")] = -5
    hats = mc.hat_basis(cplx, bad)
    with pytest.raises(NotAComplex, match=r"delta\(hat min0\) has component"):
        mc.hat_coboundary(cplx, 0, hats, mc.hat_inverse(cplx, 1, hats))


def test_circle_complex_morse(example_morse):
    cc = whs_compare.circle_complex(example_morse)
    cplx, graph = cc.cplx, cc.graph
    assert cplx.dim(0) == 1 and cplx.dim(1) == 1
    assert cplx.matrix(0) == [[0]]
    signs = sorted(s for _, _, s in graph.edges)
    assert signs == [-1, 1]


def test_circle_complex_example_b(example_b):
    cplx = whs_compare.circle_complex(example_b).cplx
    assert cplx.dim(0) == 3 and cplx.dim(1) == 3
    assert mc.betti(cplx) == [1, 1]


def test_interchange_roundtrip(example_b):
    cplx = whs_compare.circle_complex(example_b).cplx
    text = mc.write_complex(cplx)
    back = mc.read_complex(text)
    assert mc.betti(back) == mc.betti(cplx)
    assert back.matrix(0) == cplx.matrix(0)
    assert [c.id for c in back.cells[0]] == [c.id for c in cplx.cells[0]]


def test_interchange_malformed():
    with pytest.raises(DegenerateInput):
        mc.read_complex("cell onlythree 0\n")
    with pytest.raises(DegenerateInput):
        mc.read_complex("bogus directive\n")


@pytest.mark.parametrize("text, match", [
    ("cell x zero nd 0.0\n", "expected int"),                    # degree
    ("cell x 0 nd 0.0\ncell z 1 nd 1.0\ndelta 0 z x one\n", "expected int"),
    ("cell x 0 nd low\n", "expected float"),
    ("cell x 0 nd 0.0\ncell x 1 nd 1.0\n", "duplicate cell id"),
    ("cell x 0 nd 0.0\ncell z 1 nd 1.0\ndelta 0 z x 1\ndelta 0 z x 2\n",
     "repeated delta entry"),
    ("cell x 0 nd nan\n", "non-finite"),
], ids=["degree", "entry", "f_value", "duplicate_id", "repeated_delta", "nan_f"])
def test_read_complex_rejects_bad_input(text, match):
    with pytest.raises(DegenerateInput, match=match):
        mc.read_complex(text)


def test_read_complex_unknown_cell_in_delta():
    with pytest.raises(DegenerateInput, match="no cell"):
        mc.read_complex("cell x 0 nd 0.0\ndelta 0 z x 1\n")


@pytest.mark.parametrize("name", ["example_a", "example_b", "example_two_bd"])
def test_hat_inverse_is_exact(name, request):
    from fractions import Fraction
    cc = whs_compare.circle_complex(request.getfixturevalue(name))
    cplx, hats = cc.cplx, cc.hats
    for k in cplx.degrees():
        ids = [c.id for c in cplx.cells[k]]
        hat = [[Fraction(hats[col].get(row, 0)) for col in ids] for row in ids]
        inv = mc.hat_inverse(cplx, k, hats)
        n = len(ids)
        for left, right in ((hat, inv), (inv, hat)):
            prod = [[sum(left[i][m] * right[m][j] for m in range(n))
                     for j in range(n)] for i in range(n)]
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_hat_inverse_rejects_a_matrix_that_is_not_unitriangular():
    # [[2, 1], [1, 1]] is invertible over the integers, but I - H is not
    # nilpotent, so it is not a hat matrix
    cells = {0: [mc.Cell("a", 0, "nd", 0.0), mc.Cell("b", 0, "nd", 1.0)]}
    c = mc.CochainComplex(cells, {})
    with pytest.raises(NotAComplex, match="not unitriangular"):
        mc.hat_inverse(c, 0, {"a": {"a": 2, "b": 1}, "b": {"a": 1, "b": 1}})


def _generated_zeros(seed):
    """Two or four simple zeros and up to three double ones near the corners
    of a regular polygon."""
    rng = np.random.default_rng(seed)
    n_simple = int(rng.choice([2, 4]))
    k = n_simple + int(rng.integers(0, 4))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    thetas = [phase + (i + rng.uniform(-0.2, 0.2)) * 2.0 * math.pi / k
              for i in rng.permutation(k)]
    return thetas[:n_simple], thetas[n_simple:]


def _hat_coboundary_holds(cf):
    """delta^0 in the hat bases: the generalized incidences on the
    nondegenerate block, hat(y0) -> hat(y1), and 0 everywhere else.  The
    stored hat inverses and delta^0 equal fresh ones."""
    cc = whs_compare.circle_complex(cf)
    cplx, hats = cc.cplx, cc.hats
    expected = [[cc.incidence[(z.id, x.id)] if x.kind == z.kind == "nd"
                 else int(x.kind == "bd0" and x.partner == z.id)
                 for x in cplx.cells[0]] for z in cplx.cells[1]]
    fresh = tuple(mc.hat_inverse(cplx, k, hats) for k in (0, 1))
    assert cc.hat_inverse == fresh
    assert cc.delta_hat == mc.hat_coboundary(cplx, 0, hats, fresh[1]) == expected


@pytest.mark.parametrize("name", ["example_a", "example_b", "example_two_bd"])
def test_hat_coboundary_is_the_generalized_incidence(name, request):
    _hat_coboundary_holds(request.getfixturevalue(name))


def test_hat_coboundary_on_generated_functions():
    built = 0
    for seed in range(48):
        try:
            cf = circle_lab.build_circle_function(*_generated_zeros(seed))
        except WittenLabError:
            continue
        _hat_coboundary_holds(cf)
        built += 1
    assert built >= 30


# -- pinned outputs of the exact-integer layer ---------------------------------

def _cells(*specs):
    out: dict[int, list[mc.Cell]] = {}
    for spec in specs:
        cell = mc.Cell(*spec)
        out.setdefault(cell.degree, []).append(cell)
    return out


@pytest.mark.parametrize("cells, delta, problems", [
    (_cells(("a", 0, "nd", 0.0), ("y:0", 0, "bd0", 0.5, "y:1"),
            ("y:1", 1, "bd1", 0.5, "y:0"), ("b", 1, "nd", 1.0), ("z", 2, "nd", 2.0)),
     {0: [[0, 2], [1, 0]], 1: [[1, 1]]},
     ("(delta^1 delta^0)[0][0] = 1 != 0", "(delta^1 delta^0)[0][1] = 2 != 0",
      "pair entry delta[y:1,y:0] = 2, expected 1")),
    ({0: [mc.Cell("x", 0, "nd", 0.0)],
      1: [mc.Cell("x", 0, "nd", 0.0), mc.Cell("w", 2, "nd", 1.0)]}, {},
     ("cell x of degree 0 is listed under degree 1", "duplicate cell id 'x'",
      "cell w of degree 2 is listed under degree 1")),
    (_cells(("y:0", 0, "bd0", 0.5, "y:2"), ("y:2", 2, "bd1", 0.5, "y:0")), {},
     ("pair y:0/y:2: degrees not consecutive",)),
    # the second y:0 is still checked as a bd0 cell: its entry is 3
    (_cells(("y:0", 0, "bd0", 0.5, "y:1"), ("y:0", 0, "bd0", 0.7, "y:1"),
            ("y:1", 1, "bd1", 0.5, "y:0")), {0: [[1, 3]]},
     ("duplicate cell id 'y:0'", "pair entry delta[y:1,y:0] = 3, expected 1")),
    (_cells(("a", 0, "nd", 0.0), ("y:0", 0, "bd0", 0.5, "x1"), ("x1", 1, "nd", 1.0),
            ("y:1", 1, "bd1", 0.5, "y:0")), {0: [[0, 1], [0, 1]]},
     ("bd0 cell y:0: partner 'x1' is not a bd1 cell naming it",
      "bd1 cell y:1: partner 'y:0' is not a bd0 cell naming it")),
], ids=["square_and_entry", "misfiled_and_duplicate", "not_consecutive",
        "duplicate_bd0", "bd0_names_nd"])
def test_validate_reports_exactly_these_problems(cells, delta, problems):
    assert mc.validate(mc.CochainComplex(cells, delta)) == mc.ValidationReport(False, problems)


@pytest.mark.parametrize("cells, delta, problem", [
    # delta^0 has one row and three columns over two cells in each degree
    (_cells(("a", 0, "nd", 0.0), ("b", 0, "nd", 0.5), ("x", 1, "nd", 1.0),
            ("y", 1, "nd", 1.5)), {0: [[1, -1, 5]]},
     "delta^0 is 1 x 3, expected 2 x 2"),
    # inner dimensions disagree: delta^1 delta^0 cannot be formed
    (_cells(("a", 0, "nd", 0.0), ("x", 1, "nd", 1.0), ("z", 2, "nd", 2.0)),
     {0: [[1], [2]], 1: [[1]]},
     "delta^0 is 2 x 1, expected 1 x 1"),
], ids=["too_wide", "inner_mismatch"])
def test_a_matrix_of_the_wrong_shape_is_reported(cells, delta, problem):
    c = mc.CochainComplex(cells, delta)
    assert mc.validate(c) == mc.ValidationReport(False, (problem,))
    for call in (mc.betti, mc.eliminate_all):
        with pytest.raises(NotAComplex, match=re.escape(problem)):
            call(c)


_CELL_LINES = "cell x 0 nd 0.0\ncell z 1 nd 1.0\n"


@pytest.mark.parametrize("text, message", [
    ("cell onlythree 0\n", "malformed cell line: 'cell onlythree 0'"),
    ("  delta 0 a b\t\n", "malformed delta line: 'delta 0 a b'"),
    ("cell x zero nd 0.0\n", "expected int, got 'zero' in 'cell x zero nd 0.0'"),
    ("cell x 1.5 nd 0.0\n", "expected int, got '1.5' in 'cell x 1.5 nd 0.0'"),
    ("cell x 0 nd low\n", "expected float, got 'low' in 'cell x 0 nd low'"),
    (_CELL_LINES + "delta zero z x 1\n", "expected int, got 'zero' in 'delta zero z x 1'"),
    (_CELL_LINES + "delta 0 z x one\n", "expected int, got 'one' in 'delta 0 z x one'"),
    ("\tcell x 0 nd nan  \n", "non-finite f value in 'cell x 0 nd nan'"),
    ("cell x 0 nd inf\n", "non-finite f value in 'cell x 0 nd inf'"),
    ("cell x 0 nd 0.0\ncell x 1 nd 1.0\n", "duplicate cell id 'x'"),
    (_CELL_LINES + "delta 0 z x 1\ndelta 0 z x 2\n", "repeated delta entry z,x"),
    (_CELL_LINES + "delta 0 z x 1\ndelta 00 z x 1\n", "repeated delta entry z,x"),
    ("bogus directive\n", "unknown directive 'bogus'"),
    ("cell x 0 nd 0.0\ndelta 0 z x 1\n", "no cell 'z'"),
    ("cell z 1 nd 0.0\ndelta 0 z x 1\n", "no cell 'x'"),
    ("cell x 0 nd 0.0\ncell z 2 nd 1.0\ndelta 0 z x 1\n",
     "delta 0 entry z,x has mismatched degrees"),
    ("cell x 0 xx 0.0\n", "unknown cell kind 'xx'"),
    ("cell x 0 bd0 0.0\n", "exactly the birth-death cells carry partners"),
    ("cell x 0 nd 0.0 y\n", "exactly the birth-death cells carry partners"),
])
def test_read_complex_error_messages(text, message):
    with pytest.raises(DegenerateInput) as exc:
        mc.read_complex(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("cell x zero nd 0.0\ncell y 0 nd low\n",
     "expected int, got 'zero' in 'cell x zero nd 0.0'"),
    ("cell x 0 nd 0.0\ncell x 0 nd 0.0\ncell y 0 xx 0.0\n", "duplicate cell id 'x'"),
    ("cell y 0 xx 0.0\ndelta 0 a b c\n", "unknown cell kind 'xx'"),
    ("delta 0 a b c\ncell y 0 xx 0.0\n", "expected int, got 'c' in 'delta 0 a b c'"),
    # an entry's missing cells are looked up only once every line is read
    ("delta 0 a b 1\nbogus line\n", "unknown directive 'bogus'"),
])
def test_read_complex_reports_the_first_bad_line(text, message):
    with pytest.raises(DegenerateInput) as exc:
        mc.read_complex(text)
    assert str(exc.value) == message


def test_cell_is_frozen_hashable_and_equal_by_value():
    cell = mc.Cell("y:0", 0, "bd0", 0.5, partner="y:1")
    twin = mc.Cell("y:0", 0, "bd0", 0.5, "y:1")
    assert cell == twin and cell is not twin
    assert hash(cell) == hash(twin) and len({cell, twin}) == 1
    assert cell != mc.Cell("y:0", 0, "bd0", 0.25, "y:1")
    assert repr(cell) == "Cell(id='y:0', degree=0, kind='bd0', f_value=0.5, partner='y:1')"
    assert repr(mc.Cell("x", 1, "nd", 1.0)) == \
        "Cell(id='x', degree=1, kind='nd', f_value=1.0, partner=None)"
    for name in ("id", "degree", "kind", "f_value", "partner"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cell, name, None)
    assert cell == twin


def test_write_read_write_is_a_fixed_point():
    rng = np.random.default_rng(22)
    for _ in range(50):
        c = mc.random_complex(rng, n_pairs=int(rng.integers(1, 7)))
        text = mc.write_complex(c)
        back = mc.read_complex(text)
        assert mc.write_complex(back) == text
        assert mc.betti(back) == mc.betti(c)
        assert (mc.write_complex(mc.eliminate_all(back))
                == mc.write_complex(mc.eliminate_all(c)))
