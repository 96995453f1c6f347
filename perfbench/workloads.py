"""The four workloads: inputs, one pass of work, and the correctness checks.

A unit of one or more passes runs in a fresh child process (unit.py)
through the CLI entry point `wittenlab.cli.main` or the public functions of
`wittenlab.morse_complex`.
Inputs are made and outputs are checked in the parent (run.py), outside the
timed interval, against references computed apart from the program
(reference.py) or against properties the method must have.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

# -- fixed problem parameters ---------------------------------------------------

CLUSTERS_T = 200.0
CLUSTERS_N = 4096            # the CLI's grid for example A at t = 200 (and 2n)
CHAIN_TS = (100.0, 400.0)
LADDER_A, LADDER_T, LADDER_K, LADDER_TOL = 1.0, 8.0, 5, 1e-9

# complex generator, sized like the program's own random complexes
# (morse_complex.random_complex, which `complex fuzz` runs): a core of 1-3
# cells in each of degrees 0-2 and 1-6 birth-death pairs, each on (0, 1) or
# (1, 2), with incidences in [-MAX_ENTRY, MAX_ENTRY].  Every pass runs each
# SHAPE (core sizes, pair count) SHAPE_REPEATS times; the seed draws the
# core's coboundary ranks, the pairs' degrees, incidences and f values, and
# BASIS_OPS elementary unimodular base changes before and after grafting.
CORE_SIZES = tuple(itertools.product((1, 2, 3), repeat=3))
PAIR_COUNTS = tuple(range(1, 7))
SHAPES = tuple(itertools.product(CORE_SIZES, PAIR_COUNTS))
SHAPE_REPEATS = 4
BASIS_OPS = 2
MAX_ENTRY = 3
COMPLEXES_PER_PASS = len(SHAPES) * SHAPE_REPEATS
# morse_complex keeps no cache, so one process can repeat the pass; a unit's
# mean pass then covers about 2.5 s of work
PASSES_PER_UNIT = 8


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(cli, args: list[str]) -> int:
    """One CLI call as one operation: its exit code, 1 if it raises."""
    try:
        return cli.main(args)
    except Exception:
        return 1


# -- clusters ---------------------------------------------------------------------

def clusters_unit(cli, workdir: Path, inputs) -> dict:
    out = workdir / "clusters"
    code = run_cli(cli, ["circle", "clusters", "--example", "A", "--t", repr(CLUSTERS_T),
                         "--assert", "--outdir", str(out)])
    return {"codes": [code], "dirs": [str(out)]}


def clusters_reference() -> dict:
    from wittenlab import circle_lab
    cf = circle_lab.example_function("A")          # the input function f
    levels = reference.circle_levels(cf.f, CLUSTERS_T, CLUSTERS_N)
    e1 = reference.anharmonic_levels(1)[0][0]
    a = reference.cubic_coefficient(cf.f, math.pi)  # A's birth-death point
    return {"levels": {d: [float(x) for x in v] for d, v in levels.items()},
            "large_limit": e1 * abs(a) ** (2.0 / 3.0)}


def clusters_check(rows: list[dict], ref: dict) -> list[str]:
    """rows: clusters.csv; returns the failures found."""
    bad = []
    t23 = CLUSTERS_T ** (2.0 / 3.0)
    large = {}
    for degree in (0, 1):
        mine = [r for r in rows if int(r["degree"]) == degree]
        small = [float(r["eigenvalue"]) for r in mine if r["cluster"] == "small"]
        big = [float(r["eigenvalue"]) for r in mine if r["cluster"] == "large"]
        ref_vals = ref["levels"][degree]
        if len(small) != 1:                      # b_0 = b_1 = 1 on the circle
            bad.append(f"degree {degree}: {len(small)} small eigenvalues, Betti number 1")
        if len(big) != 1:
            bad.append(f"degree {degree}: {len(big)} large eigenvalues, expected 1")
            continue
        large[degree] = big[0]
        if sum(v < 0.5 * ref_vals[1] for v in ref_vals) != 1:
            bad.append(f"degree {degree}: reference has no single small eigenvalue")
        if any(abs(v) > 1e-6 * ref_vals[1] for v in small):
            bad.append(f"degree {degree}: small eigenvalue {small} not near 0")
        rel = abs(big[0] - ref_vals[1]) / ref_vals[1]
        if rel > 1e-7:
            bad.append(f"degree {degree}: large {big[0]!r} vs reference "
                       f"{ref_vals[1]!r} (rel {rel:.1e})")
        scaled = big[0] / t23
        if abs(scaled / ref["large_limit"] - 1.0) > 0.05:
            bad.append(f"degree {degree}: large / t^(2/3) = {scaled:.5f}, "
                       f"limit e1 |a|^(2/3) = {ref['large_limit']:.5f}")
    if len(large) == 2 and abs(large[0] - large[1]) > 1e-8 * large[0]:
        bad.append(f"supersymmetry: large values {large[0]!r} and {large[1]!r} differ")
    return bad


# -- chain map ----------------------------------------------------------------------

def chain_map_unit(cli, workdir: Path, inputs) -> dict:
    codes, dirs = [], []
    for t in CHAIN_TS:
        out = workdir / f"fstar-{t:g}"
        codes.append(run_cli(cli, ["compare", "fstar", "--example", "A", "--t", repr(t),
                                   "--assert", "--outdir", str(out)]))
        dirs.append(str(out))
    return {"codes": codes, "dirs": dirs}


def fstar_deviation(rows: list[dict]) -> float:
    """max |F - I| with I pairing each cell with the basis vector of its label."""
    if not rows:
        return math.inf
    return max(abs(float(r["F_entry"]) - (1.0 if r["row"] == r["col"] else 0.0))
               for r in rows)


def chain_map_check(tables: list[list[dict] | None]) -> list[str]:
    """tables: fstar.csv of each t in CHAIN_TS, in order; None where the
    call failed, which skips its checks and the slope."""
    bad = []
    devs = []
    for t, rows in zip(CHAIN_TS, tables):
        if rows is None:
            continue
        for degree in ("0", "1"):
            mine = [r for r in rows if r["degree"] == degree]
            cells = {r["row"] for r in mine}
            if len(mine) != 4 or cells != {r["col"] for r in mine}:
                bad.append(f"t={t:g} degree {degree}: F is not the 2x2 cell/basis matrix")
        dev = fstar_deviation(rows)
        devs.append(dev)
        for r in rows:
            if not math.isclose(float(r["deviation"]), dev, rel_tol=1e-12):
                bad.append(f"t={t:g}: reported deviation {r['deviation']} != {dev!r}")
                break
    if len(devs) < len(CHAIN_TS):
        return bad
    if all(0.0 < d < math.inf for d in devs):
        slope = math.log(devs[1] / devs[0]) / math.log(CHAIN_TS[1] / CHAIN_TS[0])
        if not slope <= -0.8:
            bad.append(f"max|F - I| slope {slope:.3f} over t={CHAIN_TS}, need <= -0.8")
    else:
        bad.append(f"max|F - I| = {devs} is not finite and positive")
    return bad


# -- model ladder ------------------------------------------------------------------

def model_ladder_unit(cli, workdir: Path, inputs) -> dict:
    out = workdir / "osc1d"
    code = run_cli(cli, ["osc1d", "--a", repr(LADDER_A), "--t", repr(LADDER_T),
                         "--k", str(LADDER_K), "--tol", repr(LADDER_TOL),
                         "--assert", "--outdir", str(out)])
    return {"codes": [code], "dirs": [str(out)]}


def model_ladder_reference() -> dict:
    levels, gap = reference.anharmonic_levels(LADDER_K)
    return {"e": [float(x) for x in levels], "gap": gap}


def model_ladder_check(rows: list[dict], ref: dict) -> list[str]:
    bad = []
    vals = [float(r["value"]) for r in sorted(rows, key=lambda r: int(r["m"]))]
    if len(vals) != LADDER_K:
        return [f"{len(vals)} levels, expected {LADDER_K}"]
    scale = abs(LADDER_A * LADDER_T) ** (2.0 / 3.0)
    tol = max(20.0 * LADDER_TOL, 10.0 * ref["gap"])
    for m, (v, e) in enumerate(zip(vals, ref["e"]), start=1):
        rel = abs(v / scale - e) / e
        if rel > tol:
            bad.append(f"level {m}: {v / scale!r} vs reference e_{m} = {e!r} (rel {rel:.1e})")
    if not vals[0] > 0.0:
        bad.append(f"ground level {vals[0]!r} not positive")
    if not vals[1] - vals[0] > 0.5 * scale:
        bad.append(f"ground level not simple: gap {vals[1] - vals[0]!r}")
    return bad


# -- complex elimination ------------------------------------------------------------

class _Complex:
    """Integer cochain complex as id lists and sparse coboundary dicts."""

    def __init__(self):
        self.cells: dict[int, list[str]] = {}
        self.info: dict[str, tuple] = {}       # id -> (degree, kind, f, partner)
        self.delta: dict[int, dict[tuple[str, str], int]] = {}

    def add(self, cid, degree, kind, f, partner=None):
        self.cells.setdefault(degree, []).append(cid)
        self.info[cid] = (degree, kind, f, partner)

    def entry(self, k, row, col) -> int:
        return self.delta.get(k, {}).get((row, col), 0)

    def set(self, k, row, col, value):
        d = self.delta.setdefault(k, {})
        if value:
            d[(row, col)] = value
        else:
            d.pop((row, col), None)

    def nd(self, k) -> list[str]:
        return [c for c in self.cells.get(k, []) if self.info[c][1] == "nd"]

    def base_change(self, k, i, j, c):
        """Cochain coordinates x_i += c x_j on degree k: rows of delta^{k-1}
        (row_i += c row_j), columns of delta^k (col_j -= c col_i)."""
        for low in self.cells.get(k - 1, []):
            self.set(k - 1, i, low, self.entry(k - 1, i, low) + c * self.entry(k - 1, j, low))
        for up in self.cells.get(k + 1, []):
            self.set(k, up, j, self.entry(k, up, j) - c * self.entry(k, up, i))

    def graft(self, k, tag, f, u: dict, v: dict):
        """Insert a birth-death pair (tag:0 in degree k, tag:1 in k+1) with
        incidences u (bd0 -> k-cells) and v ((k+1)-cells -> pair)."""
        y0, y1 = f"{tag}:0", f"{tag}:1"
        old_k, old_k1 = list(self.cells.get(k, [])), list(self.cells.get(k + 1, []))
        for r in old_k1:
            for c in old_k:
                self.set(k, r, c, self.entry(k, r, c) + v.get(r, 0) * u.get(c, 0))
            self.set(k, r, y0, v.get(r, 0))
        for c in old_k:
            self.set(k, y1, c, u.get(c, 0))
        self.set(k, y1, y0, 1)
        for low in self.cells.get(k - 1, []):
            self.set(k - 1, y0, low, -sum(u.get(c, 0) * self.entry(k - 1, c, low) for c in old_k))
        for top in self.cells.get(k + 2, []):
            self.set(k + 1, top, y1, -sum(self.entry(k + 1, top, r) * v.get(r, 0) for r in old_k1))
        self.add(y0, k, "bd0", f, y1)
        self.add(y1, k + 1, "bd1", f, y0)

    def text(self) -> str:
        lines = ["# generated cochain complex"]
        for k in sorted(self.cells):
            for cid in self.cells[k]:
                _, kind, f, partner = self.info[cid]
                lines.append(f"cell {cid} {k} {kind} {f!r}" + (f" {partner}" if partner else ""))
        for k in sorted(self.delta):
            for (row, col), val in sorted(self.delta[k].items()):
                lines.append(f"delta {k} {row} {col} {val}")
        return "\n".join(lines) + "\n"


def generate_complex(rng: random.Random, sizes: tuple[int, ...], n_pairs: int
                     ) -> tuple[str, dict[int, list[str]], list[int]]:
    """One complex in the plain-text format, its core cells per degree and
    its Betti numbers.

    Degree k of the core holds, in order, the targets of delta^{k-1}, the
    harmonic cells and the sources of delta^k, with delta^k the identity
    from sources onto the targets in degree k+1; so its Betti numbers are
    sizes[k] minus the ranks on either side.  Base changes and grafted pairs
    keep the cohomology.
    """
    top = len(sizes) - 1
    ranks = []
    for k in range(top):
        ranks.append(rng.randint(0, min(sizes[k] - (ranks[k - 1] if k else 0), sizes[k + 1])))
    cx = _Complex()
    for k in range(top + 1):
        n_targets = ranks[k - 1] if k > 0 else 0
        n_sources = ranks[k] if k < top else 0
        for i in range(sizes[k]):
            cx.add(f"x{k}_{i}", k, "nd", k + 0.05 * i)
        for i in range(n_sources):
            cx.set(k, f"x{k + 1}_{i}", f"x{k}_{sizes[k] - n_sources + i}", 1)
    core = {k: list(ids) for k, ids in cx.cells.items()}
    betti = [sizes[k] - (ranks[k] if k < top else 0) - (ranks[k - 1] if k else 0)
             for k in range(top + 1)]

    def shuffle_basis():
        for _ in range(BASIS_OPS):
            degrees = [k for k in range(top + 1) if len(cx.nd(k)) > 1]
            if degrees:
                i, j = rng.sample(cx.nd(rng.choice(degrees)), 2)
                cx.base_change(cx.info[i][0], i, j, rng.choice((-1, 1)))

    shuffle_basis()
    for tag in range(n_pairs):
        k = rng.randrange(top)
        u = {c: rng.randint(-MAX_ENTRY, MAX_ENTRY) for c in cx.nd(k)}
        v = {r: rng.randint(-MAX_ENTRY, MAX_ENTRY) for r in cx.nd(k + 1)}
        cx.graft(k, f"y{tag}", k + 0.1 + 0.8 * rng.random(), u, v)
    shuffle_basis()
    return cx.text(), core, betti


def complex_prepare(seed: int, workdir: Path) -> list[tuple[dict[int, list[str]], list[int]]]:
    """Writes the pass's input complexes; returns their core cells and Betti numbers."""
    rng = random.Random(seed)
    texts, expected = [], []
    for sizes, n_pairs in SHAPES * SHAPE_REPEATS:
        text, core, betti = generate_complex(rng, sizes, n_pairs)
        texts.append(text)
        expected.append((core, betti))
    (workdir / "inputs.json").write_text(json.dumps(texts))
    return expected


def complex_unit(cli, workdir: Path, inputs: list[str]) -> dict:
    """Each complex is one operation; one that raises is counted as failed."""
    from wittenlab import morse_complex as mc
    codes, results = [], []
    for text in inputs:
        try:
            cplx = mc.read_complex(text)
            report = mc.validate(cplx)
            reduced = mc.eliminate_all(cplx)
            results.append({"valid": report.ok, "betti": mc.betti(reduced),
                            "text": mc.write_complex(reduced)})
            codes.append(0)
        except Exception as exc:
            results.append({"error": repr(exc)})
            codes.append(1)
    return {"codes": codes, "complexes": results}


def parse_complex(text: str) -> tuple[dict[int, list[tuple[str, str]]], dict[int, list[list[int]]]]:
    """Cells (id, kind) per degree and dense coboundary matrices, read apart
    from the program's own reader."""
    cells: dict[int, list[tuple[str, str]]] = {}
    entries = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "cell":
            cells.setdefault(int(parts[2]), []).append((parts[1], parts[3]))
        elif parts[0] == "delta":
            entries.append((int(parts[1]), parts[2], parts[3], int(parts[4])))
        else:
            raise ValueError(f"unknown line {line!r}")
    pos = {cid: i for cs in cells.values() for i, (cid, _) in enumerate(cs)}
    mats = {k: [[0] * len(cells.get(k, [])) for _ in cells.get(k + 1, [])] for k in cells}
    for k, row, col, val in entries:
        mats[k][pos[row]][pos[col]] = val
    return cells, mats


def complex_check(outputs: list[dict], codes: list[int],
                  expected: list[tuple[dict[int, list[str]], list[int]]]) -> list[str]:
    """Checks every complex whose operation did not fail."""
    bad = []
    if not len(outputs) == len(codes) == len(expected):
        return [f"{len(outputs)} outputs, {len(codes)} codes for {len(expected)} complexes"]
    for i, (out, code, (core, betti)) in enumerate(zip(outputs, codes, expected)):
        if code != 0:
            continue
        if not out["valid"]:
            bad.append(f"complex {i}: input reported invalid")
        if out["betti"] != betti:
            bad.append(f"complex {i}: program Betti {out['betti']} != {betti}")
        cells, mats = parse_complex(out["text"])
        left = {k: [cid for cid, _ in cs] for k, cs in cells.items()}
        if any(kind != "nd" for cs in cells.values() for _, kind in cs):
            bad.append(f"complex {i}: birth-death cells remain")
        if {k: sorted(v) for k, v in left.items() if v} != {k: sorted(v) for k, v in core.items()}:
            bad.append(f"complex {i}: reduced cells are not the core cells")
        top = max(cells) if cells else -1
        for k in range(top - 1):
            upper, lower = mats[k + 1], mats[k]
            if any(sum(a * lower[j][c] for j, a in enumerate(row)) for row in upper
                   for c in range(len(lower[0]) if lower else 0)):
                bad.append(f"complex {i}: delta^{k + 1} delta^{k} != 0")
        ranks = {k: reference.rational_rank(mats[k]) for k in range(top + 1)}
        mine = [len(cells.get(k, [])) - ranks[k] - ranks.get(k - 1, 0) for k in range(top + 1)]
        if mine != betti:
            bad.append(f"complex {i}: reference Betti {mine} != {betti}")
    return bad


# -- registry --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    prepare: Callable     # (seed, workdir) -> check context, in the parent
    unit: Callable        # (cli, workdir, inputs) -> output, in the child
    verify: Callable      # (output, context) -> failures, in the parent
    ops: int              # operations attempted per pass
    # timed passes per unit process; 1 where the program's module caches
    # would make a repeat in the same process nearly free
    passes: int = 1


# The verify functions check only the operations that did not fail.

def _clusters_verify(out, ref):
    if out["codes"][0] != 0:
        return []
    return clusters_check(_read_csv(Path(out["dirs"][0]) / "clusters.csv"), ref)


def _chain_map_verify(out, _):
    return chain_map_check([_read_csv(Path(d) / "fstar.csv") if code == 0 else None
                            for code, d in zip(out["codes"], out["dirs"])])


def _model_ladder_verify(out, ref):
    if out["codes"][0] != 0:
        return []
    return model_ladder_check(_read_csv(Path(out["dirs"][0]) / "osc1d.csv"), ref)


def _complex_verify(out, expected):
    return complex_check(out["complexes"], out["codes"], expected)


WORKLOADS = {
    "clusters": Workload(lambda seed, d: clusters_reference(), clusters_unit,
                         _clusters_verify, 1),
    "chain_map": Workload(lambda seed, d: None, chain_map_unit, _chain_map_verify,
                          len(CHAIN_TS)),
    "model_ladder": Workload(lambda seed, d: model_ladder_reference(), model_ladder_unit,
                             _model_ladder_verify, 1),
    "complex_elimination": Workload(complex_prepare, complex_unit, _complex_verify,
                                    COMPLEXES_PER_PASS, PASSES_PER_UNIT),
}
