import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from wittenlab import circle_lab, cli, constants, morse_complex as mc, whs_compare
from wittenlab.circle_lab import example_function


REPO = Path(__file__).resolve().parents[1]


def run(args):
    return cli.main(args)


def test_cold_start_loads_no_optional_scipy():
    """Start-up imports only what every command runs: LAPACK without the scipy
    package, no thread pool (only a --workers sweep starts one) and no
    local_model (only `local` reads it); a moved zero loads brentq itself, and
    the scipy.linalg it brings reuses the LAPACK module already loaded."""
    code = (
        "import sys\n"
        "import wittenlab.cli\n"
        "from wittenlab import circle_lab, constants, eigensolve\n"
        "constants.load_constants()\n"
        "print([m for m in ('scipy', 'scipy.linalg', 'scipy.optimize', 'scipy.sparse',"
        " 'scipy.special', 'concurrent.futures', 'logging', 'wittenlab.local_model')"
        " if m in sys.modules])\n"
        "circle_lab.example_function('B')\n"
        "import scipy.linalg.lapack\n"
        "print('scipy.optimize' in sys.modules,"
        " scipy.linalg.lapack.dstebz is eigensolve._lapack.dstebz)\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "True True"]


def test_parse_config():
    cfg = cli.parse_config(
        "simple_zeros = [1.0471975512, -1.0471975512]\n"
        "double_zeros = [3.14159265359]\n"
        "self_index = true\n"
        "n_factor = 2\n"
        "# comment\n"
        "label = demo\n")
    assert cfg["self_index"] is True
    assert cfg["n_factor"] == 2
    assert len(cfg["simple_zeros"]) == 2
    assert cfg["label"] == "demo"


_A_ZEROS = "simple_zeros = [1.0471975511965976, -1.0471975511965976]\n" \
    "double_zeros = [3.141592653589793]\n"


@pytest.mark.parametrize("key, text", [
    ("simple_zeros", "simple_zeros = 1.0\n"),
    ("simple_zeros", "simple_zeros = [0.5, x]\n"),
    ("simple_zeros", "simple_zeros = [0.5, inf]\n"),
    ("double_zeros", "simple_zeros = [1.0, 2.0]\ndouble_zeros = [true]\n"),
    ("self_index", _A_ZEROS + "self_index = yes\n"),
    ("self_index", _A_ZEROS + "self_index = 1\n"),
    ("scale_range", _A_ZEROS + "scale_range = -0.3\n"),
    ("scale_range", _A_ZEROS + "scale_range = nan\n"),
    ("scale_range", _A_ZEROS + "scale_range = [0.3]\n"),
    ("'scale_rang'", "simple_zeros = [0.55, 1.85, 3.25, 4.35]\ndouble_zeros = [5.45]\n"
     "scale_rang = 0.32\n"),
    ("scale_range", _A_ZEROS + "self_index = true\nscale_range = 0.5\n"),
], ids=["zeros-scalar", "zeros-word", "zeros-inf", "zeros-bool", "index-word",
        "index-int", "range-negative", "range-nan", "range-list", "unknown-key",
        "index-and-range"])
def test_bad_config_is_an_input_error(tmp_path, capsys, key, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code = run(["circle", "clusters", "--config", str(path), "--t", "50",
                "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith("error:") and key in err


def test_constants_command(tmp_path, consts):
    out = tmp_path / "constants.json"
    assert run(["constants", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["e"]) == 8
    assert data["oracle"]["gap"] <= 1e-8
    assert data["oracle"]["basis"] == constants.BASIS_SIZE
    assert data["oracle"]["omega"] == constants.OMEGA
    assert data == consts


def test_constants_record_is_thread_independent(tmp_path):
    """The written record reads the same under one and two BLAS threads."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"constants_{threads}.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "wittenlab", "constants", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_osc1d_command(tmp_path):
    code = run(["osc1d", "--a", "1", "--t", "8", "--k", "3",
                "--outdir", str(tmp_path), "--assert"])
    assert code == 0
    with (tmp_path / "osc1d.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "value", "value_scaled", "e_ref", "rel_err"]
    assert len(rows) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_osc1d_rejects_a_tol_that_is_not_positive_and_finite(tmp_path, capsys, tol):
    assert run(["osc1d", "--a", "1", "--t", "8", f"--tol={tol}",
                "--outdir", str(tmp_path)]) == cli.EXIT_INPUT
    assert "tol must be a positive finite number" in capsys.readouterr().err


def test_osc1d_fails_on_levels_the_table_does_not_hold(tmp_path, capsys):
    held = len(constants.load_constants()["e"])
    code = run(["osc1d", "--a", "1", "--t", "8", "--k", str(held + 2),
                "--outdir", str(tmp_path), "--assert"])
    assert code == cli.EXIT_ASSERT
    (check,) = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert not check["ok"]
    assert f"levels {held + 1}, {held + 2} unchecked" in check["detail"]
    assert "[FAIL] levels match cached table" in capsys.readouterr().out


def test_osc1d_rejects_a_tol_below_the_ladder_floor(tmp_path, capsys):
    assert run(["osc1d", "--a", "1", "--t", "8", "--k", "3", "--tol", "1e-20",
                "--outdir", str(tmp_path)]) == cli.EXIT_INPUT
    assert "below the ladder's floor" in capsys.readouterr().err


def test_scaling_command(tmp_path):
    assert run(["scaling", "--t-list", "8,27", "--k", "3",
                "--outdir", str(tmp_path), "--assert"]) == 0


@pytest.mark.parametrize("argv", [
    ["circle", "clusters", "--example", "A", "--t", "inf"],
    ["circle", "clusters", "--example", "A", "--t", "-5"],
    ["circle", "clusters", "--example", "A", "--t", "nan"],
    ["circle", "clusters", "--example", "A", "--t", "0"],
    ["compare", "fstar", "--example", "A", "--t-list", "100,-1"],
    ["scaling", "--t-list", "0"],
    ["scaling", "--t-list", "8,-1"],
], ids=["circle-inf", "circle-negative", "circle-nan", "circle-zero",
        "compare-negative", "scaling-zero", "scaling-negative"])
def test_a_t_that_is_not_positive_and_finite_is_an_input_error(tmp_path, capsys, argv):
    assert run(argv + ["--outdir", str(tmp_path)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: t must be a positive finite number")
    assert "Traceback" not in err


def test_local_command(tmp_path):
    assert run(["local", "--index", "0", "--dim", "2", "--a", "1.0",
                "--degree", "0", "--t", "16", "--m", "2",
                "--outdir", str(tmp_path)]) == 0


def test_circle_clusters_command(tmp_path):
    code = run(["circle", "clusters", "--example", "A", "--t", "200",
                "--outdir", str(tmp_path), "--assert"])
    assert code == 0
    with (tmp_path / "clusters.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["degree", "t", "cluster", "label", "eigenvalue",
                       "eigenvalue_over_t23"]
    # re-parsing and re-asserting yields the same verdict (round-trip)
    small = [r for r in rows[1:] if r[2] == "small"]
    assert len(small) == 2
    for r in small:
        assert abs(float(r[4])) <= 1e-3


def test_circle_elements_command(tmp_path):
    code = run(["circle", "elements", "--example", "B", "--lenient-floor",
                "--t-list", "54,81", "--outdir", str(tmp_path), "--assert"])
    assert code == 0
    with (tmp_path / "matrix_elements.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "pair", "raw", "rescaled", "target", "abs_err",
                       "label"]


@pytest.mark.parametrize("lenient", [False, True])
def test_circle_fit_honours_lenient_floor(tmp_path, monkeypatch, lenient):
    # stub the solves: only the floor flag handed to spectral_clusters matters
    floors = []
    monkeypatch.setattr(circle_lab, "circle_solve",
                        lambda cf, t, n_grid=None, k_eigs=None, coarse=None:
                        SimpleNamespace(cf=cf, t=t, n_grid=64, k_eigs=k_eigs))
    monkeypatch.setattr(circle_lab, "spectral_clusters",
                        lambda *a, strict_floor=True, **kw: floors.append(strict_floor))
    monkeypatch.setattr(circle_lab, "scaling_fit", lambda reports: {"per_bd": {}})
    argv = ["circle", "fit", "--example", "B", "--outdir", str(tmp_path), "--assert"]
    assert run(argv + ["--lenient-floor"] * lenient) == 0
    assert floors and set(floors) == {not lenient}
    assert (tmp_path / "fit.csv").exists()


def test_complex_file_roundtrip_commands(tmp_path):
    cplx = whs_compare.circle_complex(example_function("A")).cplx
    path = tmp_path / "a.cplx"
    path.write_text(mc.write_complex(cplx))
    assert run(["complex", "validate", "--file", str(path),
                "--outdir", str(tmp_path / "v"), "--assert"]) == 0
    assert run(["complex", "eliminate", "--file", str(path),
                "--outdir", str(tmp_path / "e"), "--assert"]) == 0
    reduced = mc.read_complex((tmp_path / "e" / "reduced.cplx").read_text())
    assert reduced.dim(0) == 1 and reduced.dim(1) == 1


def test_complex_eliminate_prints_the_elimination_order(tmp_path, capsys):
    text = ("cell x0 0 nd 0.0\ncell y0:0 0 bd0 0.3 y0:1\ncell y1:0 0 bd0 0.6 y1:1\n"
            "cell y2:0 1 bd0 1.2 y2:1\ncell x1 1 nd 1.0\ncell y0:1 1 bd1 0.3 y0:0\n"
            "cell y1:1 1 bd1 0.6 y1:0\ncell y2:1 2 bd1 1.2 y2:0\ncell x2 2 nd 2.0\n"
            "delta 0 y0:1 y0:0 1\ndelta 0 y1:1 y1:0 1\ndelta 1 y2:1 y2:0 1\n")
    path = tmp_path / "pairs.cplx"
    path.write_text(text)
    assert run(["complex", "eliminate", "--file", str(path),
                "--outdir", str(tmp_path / "e"), "--assert"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith(("eliminating", "reduced"))]
    assert lines == ["eliminating y0:0/y0:1 (degree 0, f=0.3)",
                     "eliminating y1:0/y1:1 (degree 0, f=0.6)",
                     "eliminating y2:0/y2:1 (degree 1, f=1.2)",
                     "reduced dims: [1, 1, 1]"]


def test_complex_eliminate_ignores_an_emptied_top_degree(tmp_path, capsys):
    # the only degree-2 cell is the bd1 of a degree-1 pair: betti [1, 0, 0]
    # before elimination and [1] after, the same homology
    path = tmp_path / "top.cplx"
    path.write_text("cell a 0 nd 0.0\ncell y:1 1 bd0 0.5 y:2\n"
                    "cell y:2 2 bd1 0.5 y:1\ndelta 1 y:2 y:1 1\n")
    assert run(["complex", "eliminate", "--file", str(path),
                "--outdir", str(tmp_path / "e"), "--assert"]) == 0
    assert "[PASS] betti preserved ([1])" in capsys.readouterr().out


def test_complex_incidence_command(tmp_path):
    assert run(["complex", "incidence", "--example", "B",
                "--outdir", str(tmp_path), "--assert"]) == 0
    with (tmp_path / "incidence.csv").open() as fh:
        rows = {(r[0], r[1]): int(r[2]) for r in list(csv.reader(fh))[1:]}
    assert rows[("max0", "min0")] == 1


def test_complex_fuzz_command(tmp_path):
    assert run(["complex", "fuzz", "--seed", "3", "--count", "25",
                "--outdir", str(tmp_path), "--assert"]) == 0


@pytest.mark.parametrize("count", ["0", "-1"])
def test_complex_fuzz_needs_at_least_one_complex(tmp_path, capsys, count):
    assert run(["complex", "fuzz", f"--count={count}",
                "--outdir", str(tmp_path)]) == cli.EXIT_INPUT
    assert f"--count must be at least 1, got {count}" in capsys.readouterr().err


def test_input_error_exit_code(tmp_path):
    assert run(["complex", "validate", "--file", str(tmp_path / "missing.cplx"),
                "--outdir", str(tmp_path)]) == cli.EXIT_INPUT
    assert run(["circle", "clusters", "--outdir", str(tmp_path)]) == cli.EXIT_INPUT


def test_assert_exit_code(tmp_path):
    rep = cli.Reporter(str(tmp_path), "demo", hard=True)
    rep.check("doomed", False, "detail")
    assert rep.finish() == cli.EXIT_ASSERT
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert not summary["passed"]
    soft = cli.Reporter(str(tmp_path), "demo", hard=False)
    soft.check("doomed", False)
    assert soft.finish() == cli.EXIT_OK


def test_validate_detects_corruption(tmp_path):
    cplx = whs_compare.circle_complex(example_function("A")).cplx
    text = mc.write_complex(cplx).replace("delta 0 bd0:1 bd0:0 1",
                                          "delta 0 bd0:1 bd0:0 2")
    path = tmp_path / "bad.cplx"
    path.write_text(text)
    assert run(["complex", "validate", "--file", str(path),
                "--outdir", str(tmp_path), "--assert"]) == cli.EXIT_ASSERT


def test_workers_default_is_a_sequential_sweep():
    for argv in (["compare", "fstar", "--example", "A"],
                 ["circle", "clusters", "--example", "A"]):
        assert cli.build_parser().parse_args(argv).workers == 1


@pytest.mark.parametrize("argv", [["circle", "clusters", "--example", "A"],
                                  ["compare", "fstar", "--example", "A"]])
def test_k_eigs_is_not_an_option(argv, capsys):
    # every solve computes the pairs its function needs; there is no override
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + ["--k-eigs", "13"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k-eigs 13" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, name", [
    (["osc1d", "--t", "nan"], "t"),
    (["osc1d", "--t", "inf"], "t"),
    (["osc1d", "--a", "nan"], "a"),
    (["osc1d", "--a=-inf"], "a"),
    (["local", "--index", "0", "--dim", "2", "--a", "1.0", "--degree", "0",
      "--t", "inf", "--m", "2"], "t"),
    (["local", "--index", "0", "--dim", "2", "--a", "nan", "--degree", "0",
      "--t", "16", "--m", "2"], "a"),
], ids=["osc1d-t-nan", "osc1d-t-inf", "osc1d-a-nan", "osc1d-a-inf", "local-t-inf",
        "local-a-nan"])
def test_a_model_parameter_that_is_not_finite_is_named(tmp_path, capsys, argv, name):
    assert run(argv + ["--outdir", str(tmp_path)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"model needs a finite {name} " in err


@pytest.mark.parametrize("cells, delta, problem", [
    ({0: [mc.Cell("a", 0, "nd", 0.0), mc.Cell("b", 0, "nd", 0.5)],
      1: [mc.Cell("x", 1, "nd", 1.0), mc.Cell("y", 1, "nd", 1.5)]},
     {0: [[1, -1, 5]]}, "delta^0 is 1 x 3, expected 2 x 2"),
    ({q: [mc.Cell(f"c{q}", q, "nd", float(q))] for q in range(3)},
     {0: [[1], [2]], 1: [[1]]}, "delta^0 is 2 x 1, expected 1 x 1"),
], ids=["too_wide", "inner_mismatch"])
def test_complex_validate_reports_a_misshapen_matrix(tmp_path, monkeypatch, cells, delta,
                                                     problem):
    # the reader sizes every matrix by its cells, so the file's parse is replaced
    path = tmp_path / "c.cplx"
    path.write_text("# read through the patched reader\n")
    monkeypatch.setattr(mc, "read_complex",
                        lambda text: mc.CochainComplex(cells, delta))
    assert run(["complex", "validate", "--file", str(path),
                "--outdir", str(tmp_path), "--assert"]) == cli.EXIT_ASSERT
    (check,) = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert check["detail"] == problem
