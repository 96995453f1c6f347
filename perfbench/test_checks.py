"""Tests of the benchmark itself: each correctness check accepts a correct
output and rejects deliberately corrupted ones.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import unit  # noqa: E402
import workloads as wl  # noqa: E402


# -- clusters ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def clusters_ref():
    return wl.clusters_reference()


def _cluster_rows(ref, small=(0.0, 0.0), large=None):
    large = large or (ref["levels"][0][1], ref["levels"][1][1])
    rows = []
    for d in (0, 1):
        rows.append({"degree": str(d), "cluster": "small", "eigenvalue": repr(small[d])})
        rows.append({"degree": str(d), "cluster": "large", "eigenvalue": repr(large[d])})
    return rows


def test_clusters_reference_matches_known_values(clusters_ref):
    # degree-0 and degree-1 large values agree, and both sit near e1 |a t|^(2/3)
    l0, l1 = clusters_ref["levels"][0][1], clusters_ref["levels"][1][1]
    assert abs(l0 - l1) < 1e-8 * l0
    assert abs(l0 / wl.CLUSTERS_T ** (2 / 3) / clusters_ref["large_limit"] - 1) < 0.05


def test_clusters_check_accepts_reference(clusters_ref):
    assert wl.clusters_check(_cluster_rows(clusters_ref), clusters_ref) == []


def test_clusters_check_rejects_shifted_large_value(clusters_ref):
    big = clusters_ref["levels"][0][1] * (1 + 1e-5)
    bad = wl.clusters_check(_cluster_rows(clusters_ref, large=(big, big)), clusters_ref)
    assert any("vs reference" in m for m in bad)


def test_clusters_check_rejects_broken_supersymmetry(clusters_ref):
    ref = clusters_ref["levels"][0][1]
    rows = _cluster_rows(clusters_ref, large=(ref * (1 + 5e-8), ref * (1 - 5e-8)))
    bad = wl.clusters_check(rows, clusters_ref)
    assert bad and all("supersymmetry" in m for m in bad)


def test_clusters_check_rejects_wrong_small_count(clusters_ref):
    rows = _cluster_rows(clusters_ref)
    rows.append({"degree": "1", "cluster": "small", "eigenvalue": "0.0"})
    assert any("2 small" in m for m in wl.clusters_check(rows, clusters_ref))


def test_clusters_check_rejects_nonzero_small_value(clusters_ref):
    rows = _cluster_rows(clusters_ref, small=(1e-3, 0.0))
    assert any("not near 0" in m for m in wl.clusters_check(rows, clusters_ref))


def test_clusters_check_rejects_wrong_scaling(clusters_ref):
    big = clusters_ref["levels"][0][1] * 1.1
    bad = wl.clusters_check(_cluster_rows(clusters_ref, large=(big, big)), clusters_ref)
    assert any("t^(2/3)" in m for m in bad)


# -- chain map --------------------------------------------------------------------

def _fstar_rows(t, dev, corrupt_entry=False):
    rows = []
    cells = {"0": ["bd0:0", "min0"], "1": ["bd0:1", "max0"]}
    for degree, ids in cells.items():
        for r in ids:
            for c in ids:
                value = (1.0 if r == c else 0.0) + (dev if (r, c) == ("max0", "max0") else 0.0)
                if corrupt_entry and (r, c) == ("min0", "min0"):
                    value = 1.5
                rows.append({"t": repr(t), "degree": degree, "row": r, "col": c,
                             "F_entry": repr(value), "deviation": repr(dev)})
    return rows


def test_chain_map_check_accepts_one_over_t():
    assert wl.chain_map_check([_fstar_rows(100.0, 1.12e-3), _fstar_rows(400.0, 2.78e-4)]) == []


def test_chain_map_check_rejects_slow_decay():
    bad = wl.chain_map_check([_fstar_rows(100.0, 1.12e-3), _fstar_rows(400.0, 8e-4)])
    assert any("slope" in m for m in bad)


def test_chain_map_check_rejects_entry_off_identity():
    bad = wl.chain_map_check([_fstar_rows(100.0, 1.12e-3, corrupt_entry=True),
                              _fstar_rows(400.0, 2.78e-4)])
    assert any("reported deviation" in m for m in bad)


def test_chain_map_check_rejects_missing_entry():
    rows = _fstar_rows(400.0, 2.78e-4)[:-1]
    bad = wl.chain_map_check([_fstar_rows(100.0, 1.12e-3), rows])
    assert any("2x2" in m for m in bad)


# -- model ladder -----------------------------------------------------------------

@pytest.fixture(scope="module")
def ladder_ref():
    return wl.model_ladder_reference()


def _ladder_rows(ref, change=None):
    scale = abs(wl.LADDER_A * wl.LADDER_T) ** (2 / 3)
    vals = [e * scale for e in ref["e"]]
    if change:
        change(vals)
    return [{"m": str(m), "value": repr(v)} for m, v in enumerate(vals, start=1)]


def test_ladder_reference_is_accurate(ladder_ref):
    assert ladder_ref["gap"] < 1e-10
    assert abs(ladder_ref["e"][0] - 1.16928919) < 1e-8


def test_ladder_check_accepts_reference(ladder_ref):
    assert wl.model_ladder_check(_ladder_rows(ladder_ref), ladder_ref) == []


def test_ladder_check_rejects_shifted_level(ladder_ref):
    def shift(v):
        v[2] *= 1 + 1e-6
    assert any("level 3" in m for m in wl.model_ladder_check(_ladder_rows(ladder_ref, shift),
                                                             ladder_ref))


def test_ladder_check_rejects_negative_ground(ladder_ref):
    def negate(v):
        v[0] = -v[0]
    assert any("not positive" in m for m in wl.model_ladder_check(_ladder_rows(ladder_ref, negate),
                                                                  ladder_ref))


def test_ladder_check_rejects_degenerate_ground(ladder_ref):
    def merge(v):
        v[1] = v[0]
    assert any("not simple" in m for m in wl.model_ladder_check(_ladder_rows(ladder_ref, merge),
                                                                ladder_ref))


# -- complex elimination ----------------------------------------------------------

def _betti_of(text):
    cells, mats = wl.parse_complex(text)
    top = max(cells)
    ranks = {k: reference.rational_rank(mats[k]) for k in range(top + 1)}
    return [len(cells[k]) - ranks[k] - ranks.get(k - 1, 0) for k in range(top + 1)]


@pytest.fixture(scope="module")
def eliminated():
    """The first seeded complex of the largest shape whose reduced form has
    entries in both coboundaries."""
    for seed in range(100):
        text, core, betti = wl.generate_complex(random.Random(seed), (3, 3, 3), 6)
        out = wl.complex_unit(None, None, [text])["complexes"][0]
        if "\ndelta 0 " in out["text"] and "\ndelta 1 " in out["text"]:
            return text, (core, betti), out
    raise AssertionError("no complex with both coboundaries nonzero")


def _check(out, expected):
    return wl.complex_check([out], [0], [expected])


def test_generator_keeps_core_betti_numbers():
    rng = random.Random(5)
    for sizes, n_pairs in wl.SHAPES:
        text, core, betti = wl.generate_complex(rng, sizes, n_pairs)
        assert _betti_of(text) == betti
        assert [len(core[k]) for k in range(3)] == list(sizes)
        assert sum(" bd0 " in line for line in text.splitlines()) == n_pairs


def test_complex_inputs_depend_only_on_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert wl.complex_prepare(7, tmp_path / "a") == wl.complex_prepare(7, tmp_path / "b")
    assert (tmp_path / "a" / "inputs.json").read_text() == \
        (tmp_path / "b" / "inputs.json").read_text()


def test_complex_check_accepts_program_output(eliminated):
    _, expected, out = eliminated
    assert _check(out, expected) == []


def test_complex_check_rejects_wrong_betti(eliminated):
    _, expected, out = eliminated
    bad = dict(out, betti=[out["betti"][0] + 1] + out["betti"][1:])
    assert any("program Betti" in m for m in _check(bad, expected))


def test_complex_check_rejects_lost_coboundary(eliminated):
    _, expected, out = eliminated
    lines = [line for line in out["text"].splitlines() if not line.startswith("delta 0 ")]
    bad = dict(out, text="\n".join(lines) + "\n")
    assert any("reference Betti" in m for m in _check(bad, expected))


def test_complex_check_rejects_broken_complex(eliminated):
    _, expected, out = eliminated
    # raising delta^0[col, x0_0] by one, where col has a delta^1 entry, breaks d o d = 0
    _, _, _, col, _ = next(line for line in out["text"].splitlines()
                           if line.startswith("delta 1 ")).split()
    key = f"delta 0 {col} x0_0 "
    old = next((int(line.split()[-1]) for line in out["text"].splitlines()
                if line.startswith(key)), 0)
    lines = [line for line in out["text"].splitlines() if not line.startswith(key)]
    bad = dict(out, text="\n".join(lines + [f"{key}{old + 1}"]) + "\n")
    assert any("!= 0" in m for m in _check(bad, expected))


def test_complex_check_rejects_remaining_pair(eliminated):
    _, expected, out = eliminated
    extra = "cell z:0 0 bd0 0.5 z:1\ncell z:1 1 bd1 0.5 z:0\ndelta 0 z:1 z:0 1\n"
    bad = dict(out, text=out["text"] + extra)
    assert any("birth-death cells remain" in m for m in _check(bad, expected))


def test_complex_check_rejects_lost_cell(eliminated):
    _, expected, out = eliminated
    lines = [line for line in out["text"].splitlines() if "x2_0" not in line]
    bad = dict(out, text="\n".join(lines) + "\n")
    assert any("not the core cells" in m for m in _check(bad, expected))


# -- failed operations -------------------------------------------------------------

def test_complex_that_raises_is_a_failed_operation(eliminated):
    text, expected, _ = eliminated
    out = wl.complex_unit(None, None, [text, "cell broken\n"])
    assert out["codes"] == [0, 1]
    assert wl.complex_check(out["complexes"], out["codes"], [expected, expected]) == []


def test_cli_call_that_raises_is_a_failed_operation():
    class Raising:
        @staticmethod
        def main(args):
            raise RuntimeError("boom")

    assert wl.run_cli(Raising, []) == 1


def test_chain_map_check_skips_a_failed_call():
    assert wl.chain_map_check([None, _fstar_rows(400.0, 2.78e-4)]) == []
    bad = wl.chain_map_check([None, _fstar_rows(400.0, 2.78e-4, corrupt_entry=True)])
    assert any("reported deviation" in m for m in bad)


# -- tracing and the benchmark file ------------------------------------------------

def test_unit_metrics_self_time_and_ratios():
    spans = [
        ["circle_lab.lowest_eigs", 0.0, 3.0, -1, None],
        ["circle_lab.assemble_witten", 0.0, 1.0, 0, (100.0, 4096)],
        ["eigensolve.eigs_lowest.cyclic", 1.0, 3.0, 0, 4096],
        ["circle_lab.lowest_eigs", 3.0, 3.5, -1, None],
        ["circle_lab.assemble_witten", 3.0, 3.5, 3, (100.0, 4096)],
    ]
    m = layers.unit_metrics(spans)
    assert m["circle_lab.lowest_eigs.calls"] == 2
    assert m["circle_lab.lowest_eigs.hit_ratio"] == 0.5
    assert m["circle_lab.assemble_witten.unique_ratio"] == 0.5
    assert m["circle_lab.assemble_witten.s"] == 1.5
    assert m["eigensolve.eigs_lowest.cyclic.rows"] == 4096
    assert m["eigensolve.eigs_lowest.cyclic.self_s"] == 2.0


def test_tracer_catches_calls_inside_a_module():
    from wittenlab import circle_lab, eigensolve, oscillator1d
    tracer = layers.Tracer()
    tracer.install()
    try:
        oscillator1d.spectrum(oscillator1d.Harmonic(1.0, 1), 2, tol=1e-6, n0=256)
        w = circle_lab.assemble_witten(circle_lab.example_function("A"), 30.0, 256)
        eigensolve.eigs_lowest(w.delta0, 2)
    finally:
        tracer.uninstall()
    m = layers.unit_metrics(tracer.spans)
    assert m["eigensolve.eigs_lowest.cyclic.calls"] == 1
    assert m["eigensolve.eigs_lowest.cyclic.rows"] == 256
    assert m["circle_lab.assemble_witten.unique_ratio"] == 1.0
    assert m["oscillator1d.spectrum.calls"] == 1
    assert m["oscillator1d.discretize.calls"] >= 2
    assert m["eigensolve.eigs_lowest.acyclic.calls"] == m["oscillator1d.discretize.calls"]
    assert m["oscillator1d.discretize.rows"] == m["eigensolve.eigs_lowest.acyclic.rows"]
    assert not hasattr(oscillator1d.discretize, "__wrapped__")


def test_benchmark_file_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.metric_names()


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clusters",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_unit_process_that_fails_or_times_out_is_timed_from_outside(tmp_path):
    res = run.run_child("no-such-workload", tmp_path, tmp_path / "u0", False, 60.0)
    assert res["error"].startswith("exited with 1")
    assert res["passes"][0]["run_s"] > 0 and res["peak_rss_mb"] > 0
    res = run.run_child(run.SETUP_ONLY, tmp_path, tmp_path / "u1", False, 0.05)
    assert res["error"].startswith("timed out")


# -- reference speed ---------------------------------------------------------------

def test_reference_time_subtracts_probe_and_scales():
    u = {"passes": [{"run_s": 2.1, "probe_s": 0.1, "cpu_s": 1.9, "probe_cpu_s": 0.1},
                    {"run_s": 4.1, "probe_s": 0.1, "cpu_s": 3.9, "probe_cpu_s": 0.1}],
         "speed": {"wall": 0.5, "cpu": 0.25}}
    assert run.reference_time(u, "run_s", "wall") == pytest.approx(1.5)
    assert run.reference_time(u, "cpu_s", "cpu") == pytest.approx(0.7)


def test_unit_without_probe_is_taken_as_measured():
    u = {"passes": [{"run_s": 3.0, "cpu_s": 2.0}]}
    assert run.reference_time(u, "run_s", "wall") == 3.0
    assert run.reference_time(u, "cpu_s", "cpu") == 2.0


def test_speed_is_reference_over_probe_time():
    probe = unit.SpeedProbe()
    probe.wall = [unit.PROBE_REF_S, unit.PROBE_REF_S / 2]
    probe.cpu = [unit.PROBE_REF_S * 2, unit.PROBE_REF_S * 2]
    speed = probe.speed()
    assert speed["wall"] == pytest.approx(1.5)
    assert speed["cpu"] == pytest.approx(0.5)
    assert speed["samples"] == 2


def test_speed_probe_samples_while_work_runs():
    probe = unit.SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.wall) >= 3 and all(x > 0 for x in probe.wall)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
