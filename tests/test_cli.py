import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from wittenlab import circle_lab, cli, morse_complex as mc, whs_compare
from wittenlab.circle_lab import example_function


REPO = Path(__file__).resolve().parents[1]


def run(args):
    return cli.main(args)


def test_cold_start_loads_no_optional_scipy():
    """Start-up imports only what every command runs: LAPACK without the scipy
    package; a moved zero loads brentq itself, and the scipy.linalg it brings
    reuses the LAPACK module already loaded."""
    code = (
        "import sys\n"
        "import wittenlab.cli\n"
        "from wittenlab import circle_lab, constants, eigensolve\n"
        "constants.load_constants()\n"
        "print([m for m in ('scipy', 'scipy.linalg', 'scipy.optimize', 'scipy.sparse',"
        " 'scipy.special') if m in sys.modules])\n"
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
    assert data["oracle"]["richardson_gap"] <= 1e-8
    assert data == consts


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


def test_scaling_command(tmp_path):
    assert run(["scaling", "--t-list", "8,27", "--k", "3",
                "--outdir", str(tmp_path), "--assert"]) == 0


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
                        lambda cf, t, n_grid=None, k_eigs=13: SimpleNamespace(n_grid=64))
    monkeypatch.setattr(circle_lab, "spectral_clusters",
                        lambda *a, strict_floor=True, **kw: floors.append(strict_floor))
    monkeypatch.setattr(circle_lab, "scaling_fit", lambda reports: {"per_bd": {}})
    argv = ["circle", "fit", "--example", "B", "--outdir", str(tmp_path), "--assert"]
    assert run(argv + ["--lenient-floor"] * lenient) == 0
    assert floors and set(floors) == {not lenient}
    assert (tmp_path / "fit.csv").exists()


def test_complex_file_roundtrip_commands(tmp_path):
    cplx, _, _, _ = whs_compare.circle_complex(example_function("A"))
    path = tmp_path / "a.cplx"
    path.write_text(mc.write_complex(cplx))
    assert run(["complex", "validate", "--file", str(path),
                "--outdir", str(tmp_path / "v"), "--assert"]) == 0
    assert run(["complex", "eliminate", "--file", str(path),
                "--outdir", str(tmp_path / "e"), "--assert"]) == 0
    reduced = mc.read_complex((tmp_path / "e" / "reduced.cplx").read_text())
    assert reduced.dim(0) == 1 and reduced.dim(1) == 1


def test_complex_incidence_command(tmp_path):
    assert run(["complex", "incidence", "--example", "B",
                "--outdir", str(tmp_path), "--assert"]) == 0
    with (tmp_path / "incidence.csv").open() as fh:
        rows = {(r[0], r[1]): int(r[2]) for r in list(csv.reader(fh))[1:]}
    assert rows[("max0", "min0")] == 1


def test_complex_fuzz_command(tmp_path):
    assert run(["complex", "fuzz", "--seed", "3", "--count", "25",
                "--outdir", str(tmp_path), "--assert"]) == 0


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
    cplx, _, _, _ = whs_compare.circle_complex(example_function("A"))
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
