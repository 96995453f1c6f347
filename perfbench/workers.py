"""Times the CLI's --workers thread pool on a two-t fstar sweep.

Usage (from the root of a checkout):

    python3 perfbench/workers.py

Each of ROUNDS rounds runs `compare fstar --example A --t-list 100,200`
once per pool setting (the default, 1 and 2 workers), each in a fresh
process with BLAS pinned to one thread, and prints its wall and CPU (user +
system) time.
The benchmark's workloads never start the pool; this probe is separate.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import OUT, ROOT, SINGLE_THREAD

ROUNDS = 2
SETTINGS = {"default": [], "1": ["--workers", "1"], "2": ["--workers", "2"]}


def child_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def main() -> int:
    env = dict(os.environ, **SINGLE_THREAD, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    for rnd in range(ROUNDS):
        order = list(SETTINGS) if rnd % 2 == 0 else list(reversed(SETTINGS))
        for name in order:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                cmd = [sys.executable, "-m", "wittenlab", "compare", "fstar", "--example", "A",
                       "--t-list", "100,200", "--outdir", tmp] + SETTINGS[name]
                cpu0, wall0 = child_cpu(), time.monotonic()
                subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
                wall, cpu = time.monotonic() - wall0, child_cpu() - cpu0
            print(f"round {rnd} workers={name}: wall {wall:.2f} s, cpu {cpu:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
