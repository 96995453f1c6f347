"""One unit of a workload in a fresh process; started by run.py.

Usage: python3 perfbench/unit.py <workload> <run_dir> <unit_dir> <trace 0|1>

Inputs are read from <run_dir>/inputs.json when present; outputs and
<unit_dir>/result.json are written to <unit_dir>.  The workload name
`setup` stops after set-up: run.py times extra cold set-ups with it.

Set-up (importing the package and loading the constants table) ends at a
CLOCK_MONOTONIC reading written to the result, so the parent can time it
from the moment it started this process.  The unit makes the workload's
passes one after the other; the wall and CPU time of each cover that
pass's calls only.  run.py reports both, and the set-up time, at the
machine's reference speed.

The machine's speed drifts by a fifth and more over minutes, so an
untraced unit also runs a speed probe: a fixed pure-Python loop, timed on
the same CPU every PROBE_EVERY_S of wall time from a SIGALRM handler while
the passes run, and PROBE_BURST times just before and after them.  Each
pass records the probe's own time within it, and the unit records the
ratio by which the machine ran faster than its reference speed,
PROBE_REF_S * mean(1 / probe time), for wall and for CPU time.  A burst
right after set-up gives the same ratio for the set-up.  A traced unit
runs only the bursts, so that its spans hold no probe time.
"""

import json
import resource
from array import array
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
SETUP_ONLY = "setup"
PROBE_EVERY_S = 0.05
PROBE_BURST = 20
PROBE_TABLE = 1 << 19    # doubles (4 MB), more than a core's own caches hold
PROBE_STEPS = 2500
PROBE_REF_S = 1.05e-3    # the loop's typical time amid the workloads' own work


class SpeedProbe:
    """Times a fixed loop on demand and, once started, from SIGALRM.

    Each step does integer arithmetic and reads one double at a
    pseudo-random place in a 4-MB table, so that the loop slows both when
    the CPU is shared and when the caches and memory it shares are busy."""

    def __init__(self):
        self.table = array("d", [0.0]) * PROBE_TABLE
        self.at = 1
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def loop(self) -> float:
        table, mask, at, total = self.table, PROBE_TABLE - 1, self.at, 0.0
        for i in range(PROBE_STEPS):
            at = (at * 1103515245 + 12345) & mask    # full-period walk over the table
            total += table[at] + i * i % 7
        self.at = at
        return total

    def sample(self, *_):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.loop()
        self.wall.append(time.perf_counter() - wall0)
        self.cpu.append(time.process_time() - cpu0)

    def burst(self):
        for _ in range(PROBE_BURST):
            self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> dict:
        return {"wall": PROBE_REF_S * statistics.mean(1.0 / x for x in self.wall),
                "cpu": PROBE_REF_S * statistics.mean(1.0 / max(x, 1e-9) for x in self.cpu),
                "samples": len(self.wall)}


def main(argv):
    name, run_dir, unit_dir, trace = argv[0], Path(argv[1]), Path(argv[2]), argv[3] == "1"
    import wittenlab.cli as cli
    from wittenlab import constants

    tracer = None
    if trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    constants.load_constants()
    setup_done = time.monotonic()
    probe = SpeedProbe()
    probe.burst()
    result = {"setup_done": setup_done, "setup_speed": probe.speed()["wall"]}
    if name == SETUP_ONLY:
        (unit_dir / "result.json").write_text(json.dumps(result))
        return 0

    import workloads
    wl = workloads.WORKLOADS[name]
    in_file = run_dir / "inputs.json"
    inputs = json.loads(in_file.read_text()) if in_file.is_file() else None

    probe.wall.clear()
    probe.cpu.clear()
    probe.burst()
    if not trace:
        probe.start()
    passes = []
    for _ in range(wl.passes):
        seen = len(probe.wall)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        output = wl.unit(cli, unit_dir, inputs)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        passes.append({"run_s": wall1 - wall0, "cpu_s": cpu1 - cpu0, "output": output,
                       "probe_s": sum(probe.wall[seen:]),
                       "probe_cpu_s": sum(probe.cpu[seen:])})
    probe.stop()
    probe.burst()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["passes"] = passes
    result["speed"] = probe.speed()
    if tracer is not None:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        result["spans"] = [[n, s - t0, e - t0, p, i] for n, s, e, p, i in tracer.spans]
    (unit_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
