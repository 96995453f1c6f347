"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each unit of work runs in a fresh single-threaded child process (unit.py);
units follow one another while the next one, if it takes as long as the
last, still ends within --seconds; there is at least one.  With --trace 0
the result holds the end-to-end metrics, each scaled to the machine's
reference speed by the speed probe of unit.py: run_s and cpu_s are the
median over the units of each unit's mean pass time less the probe's own
time (one pass per unit, except where a workload repeats its pass in one
process), setup_s the median over the units and SETUP_PROBES set-up-only
processes, and peak_rss_mb the median over the units, unscaled.  With
--trace 1 it holds the per-layer metrics from wrapped layer functions
(layers.py), unscaled.  Outputs are checked after each unit, outside its
timed interval.  A unit whose process fails or times out counts all its
operations as failed.  The full record, with the raw times and the spans
of a traced run, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads
from unit import SETUP_ONLY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_DEADLINE_S = 175          # a run, all units included, ends within this
SETUP_PROBES = 4              # set-up-only processes per untraced run, besides the units
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def run_child(name: str, run_dir: Path, unit_dir: Path, trace: bool, timeout: float) -> dict:
    """Runs unit.py in a fresh process; set-up is timed from its start and
    scaled to the machine's reference speed.

    A process that exits non-zero or times out gives {"error": ...} with
    its wall time, CPU time and peak memory as read from outside."""
    unit_dir.mkdir()
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [sys.executable, str(HERE / "unit.py"), name, str(run_dir),
           str(unit_dir), "1" if trace else "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with (unit_dir / "unit.log").open("w") as log:
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
            error = f"exited with {proc.returncode}" if proc.returncode else None
        except subprocess.TimeoutExpired:
            error = f"timed out after {timeout:.0f} s"
        ended = time.monotonic()
    if error is None:
        res = json.loads((unit_dir / "result.json").read_text())
        res["setup_raw_s"] = res.pop("setup_done") - started
        res["setup_s"] = res["setup_raw_s"] * res["setup_speed"]
        return res
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    tail = (unit_dir / "unit.log").read_text()[-2000:]
    cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return {"error": f"{error}:\n{tail}", "peak_rss_mb": after.ru_maxrss / 1024.0,
            "passes": [{"run_s": ended - started, "cpu_s": cpu_s}]}


def reference_time(unit: dict, key: str, clock: str) -> float:
    """The unit's mean pass time less the speed probe's, at reference speed.

    A unit whose process failed has no probe and is taken as measured."""
    probe = "probe_s" if key == "run_s" else "probe_cpu_s"
    own = statistics.mean(p[key] - p.get(probe, 0.0) for p in unit["passes"])
    return own * unit.get("speed", {}).get(clock, 1.0)


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "numba": importlib.util.find_spec("numba") is not None,
            "threads": SINGLE_THREAD}


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wittenlab" / "cli.py").is_file():
        print(f"error: no wittenlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    units, setups, failures, errors, failed_ops = [], [], [], [], 0
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        run_dir = Path(tmp)
        context = wl.prepare(args.seed, run_dir)
        for i in range(0 if args.trace else SETUP_PROBES):
            res = run_child(SETUP_ONLY, run_dir, run_dir / f"setup{i}", False, 60.0)
            if "error" in res:
                raise RuntimeError(f"set-up failed: {res['error']}")
            setups.append(res["setup_s"])
        start = time.monotonic()
        unit_s = 0.0            # how long the last unit's process took
        while not units or time.monotonic() - start + unit_s <= args.seconds:
            began = time.monotonic()
            res = run_child(args.workload, run_dir, run_dir / f"unit{len(units)}",
                            bool(args.trace), max(1.0, deadline - time.monotonic()))
            unit_s = time.monotonic() - began
            if "error" in res:
                failed_ops += wl.ops * wl.passes
                errors.append(f"unit {len(units)}: {res['error']}")
                print(f"unit {len(units)}: failed, {res['error']}", file=sys.stderr, flush=True)
                units.append(res)
                continue
            setups.append(res["setup_s"])
            found = []
            for p in res["passes"]:
                failed_ops += sum(code != 0 for code in p["output"]["codes"])
                try:
                    found += wl.verify(p.pop("output"), context)
                except (OSError, KeyError, ValueError) as exc:
                    found.append(f"output unreadable: {exc!r}")
            failures += [f"unit {len(units)}: {msg}" for msg in found]
            speed = res.get("speed", {}).get("wall", 1.0)
            print(f"unit {len(units)}: setup {res['setup_s']:.3f} s, run "
                  + ", ".join(f"{p['run_s']:.3f}" for p in res["passes"])
                  + f" s, cpu {sum(p['cpu_s'] for p in res['passes']):.3f} s, "
                  f"speed {speed:.3f}, at reference speed {reference_time(res, 'run_s', 'wall'):.3f} s, "
                  f"rss {res['peak_rss_mb']:.1f} MB, {len(found)} check failures", flush=True)
            units.append(res)

    if args.trace:
        per_unit = [layers.unit_metrics(u.get("spans", [])) for u in units]
        metrics = layers.median_metrics(per_unit)
    else:
        values = {"setup_s": setups, "run_s": [reference_time(u, "run_s", "wall") for u in units],
                  "cpu_s": [reference_time(u, "cpu_s", "cpu") for u in units],
                  "peak_rss_mb": [u["peak_rss_mb"] for u in units]}
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": not failures, "attempted": len(units) * wl.passes * wl.ops,
              "failed": failed_ops, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(), failures=failures,
                  errors=errors, setups=setups, units=units)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
