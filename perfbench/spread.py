"""Steadiness of the end-to-end metrics over seeds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload <name> --seeds 1-10

Runs run.py once per seed of the range, one after the other, for
BENCHMARK.json's run_seconds, and prints per metric the
median and the quartile spread (Q3 - Q1) / median of the values, with the
quartiles of statistics.quantiles(values, n=4), and the metric's bound from
BENCHMARK.json.  The records go to perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a range a-b")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()), flush=True)

    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: "
          f"{sorted({r['failed'] / r['attempted'] for r in results})}")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        print(f"  {m['name']:<12} median {statistics.median(vals):.4f} {m['unit']:<3} "
              f"spread {spread(vals):.4f} (bound {m['bound']})")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}.json").write_text(json.dumps(results) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
