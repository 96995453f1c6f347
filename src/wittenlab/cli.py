"""Command-line driver: experiment orchestration and report emission.

Every command is deterministic given its configuration (the only RNG lives
behind the explicit --seed of `complex fuzz`).  Reports are plain CSV plus a
summary.json with one pass/fail entry per enabled assertion; exit code 0
means all assertions passed, 2 an assertion failed, 1 an input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import circle_lab, constants, morse_complex, oscillator1d, whs_compare
from .errors import DegenerateInput, WittenLabError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSERT = 2


# -- config files ---------------------------------------------------------------

def parse_config(text: str) -> dict:
    """Flat key = value format; lists in brackets, booleans true/false."""
    out: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key = value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = _parse_value(val)
    return out


def _parse_value(val: str):
    if val.startswith("[") and val.endswith("]"):
        inner = val[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(v.strip()) for v in inner.split(",")]
    if val.lower() in ("true", "false"):
        return val.lower() == "true"
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        return val


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


CONFIG_KEYS = ("simple_zeros", "double_zeros", "self_index", "scale_range")


def load_function(args) -> circle_lab.CircleFunction:
    if getattr(args, "example", None):
        return circle_lab.example_function(args.example)
    if getattr(args, "config", None):
        cfg = parse_config(Path(args.config).read_text())
        for key in cfg:
            if key not in CONFIG_KEYS:
                raise DegenerateInput(
                    f"unknown config key {key!r}; expected one of {', '.join(CONFIG_KEYS)}")
        for key in ("simple_zeros", "double_zeros"):
            val = cfg.get(key, [])
            if not isinstance(val, list) or not all(map(_finite_number, val)):
                raise DegenerateInput(
                    f"{key} must be a list of finite numbers, got {val!r}")
        if not isinstance(cfg.get("self_index", False), bool):
            raise DegenerateInput(
                f"self_index must be true or false, got {cfg['self_index']!r}")
        if cfg.get("self_index", False) and "scale_range" in cfg:
            raise DegenerateInput(
                "scale_range cannot be combined with self_index = true, "
                "which maps the critical values onto [0, 1]")
        scale = cfg.get("scale_range", 1.0)
        if not (_finite_number(scale) and scale > 0):
            raise DegenerateInput(
                f"scale_range must be a positive finite number, got {scale!r}")
        cf = circle_lab.build_circle_function(cfg.get("simple_zeros", []),
                                              cfg.get("double_zeros", []))
        if cfg.get("self_index", False):
            cf = circle_lab.affine_self_index(cf)
        elif "scale_range" in cfg:
            vals = [p.f_value for p in cf.critical_points]
            alpha = float(cfg["scale_range"]) / (max(vals) - min(vals))
            cf = circle_lab.rescale(cf, alpha, -alpha * min(vals))
        return cf
    raise ValueError("need --example or --config")


def t_schedule(args) -> list[float]:
    if getattr(args, "t_list", None):
        return [float(x) for x in args.t_list.split(",")]
    if getattr(args, "t", None) is not None:
        return [float(args.t)]
    if getattr(args, "example", None):
        return circle_lab.default_t_schedule(args.example)
    raise ValueError("need --t or --t-list")


def _sweep(fn, ts, workers: int):
    """Run fn over the schedule, in a thread pool if workers > 1; results ordered by t."""
    if workers == 1 or len(ts) == 1:
        return [fn(t) for t in ts]
    from concurrent.futures import ThreadPoolExecutor   # off the cold start: it loads logging
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, ts))


# -- report plumbing --------------------------------------------------------------

class Reporter:
    def __init__(self, outdir: str, command: str, hard: bool):
        self.dir = Path(outdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.hard = hard
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    def csv(self, name: str, header: list[str], rows: list):
        path = self.dir / name
        with path.open("w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            wr.writerows(rows)
        print(f"wrote {path}")

    def finish(self) -> int:
        passed = all(c["ok"] for c in self.checks)
        summary = {"command": self.command, "passed": passed, "checks": self.checks}
        (self.dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        if self.hard and not passed:
            return EXIT_ASSERT
        return EXIT_OK


# -- commands ----------------------------------------------------------------------

def cmd_constants(args) -> int:
    path = Path(args.out)
    data = constants.write_constants(path)
    print(f"wrote {path}")
    print("e:", " ".join(f"{x:.10f}" for x in data["e"]))
    print("xi1_0:", data["xi1_0"], " oracle gap:", data["oracle"]["gap"])
    return EXIT_OK


def cmd_osc1d(args) -> int:
    rep = Reporter(args.outdir, "osc1d", args.do_assert)
    consts = constants.load_constants()
    model = oscillator1d.Anharmonic(args.a, args.t, -1)
    sp = oscillator1d.spectrum(model, args.k, tol=args.tol)
    scale = (abs(args.a) * args.t) ** (2.0 / 3.0)
    table = consts["e"]
    rows, unchecked = [], []
    worst = 0.0
    for m, val in enumerate(sp.values):
        if m < len(table):
            ref = table[m]
            rel = abs(val / scale - ref) / ref
            worst = max(worst, rel)
        else:
            ref = rel = math.nan
            unchecked.append(str(m + 1))
        rows.append([m + 1, val, val / scale, ref, rel])
    rep.csv("osc1d.csv", ["m", "value", "value_scaled", "e_ref", "rel_err"], rows)
    detail = f"max rel err {worst:.2e}"
    if unchecked:
        detail += f"; levels {', '.join(unchecked)} unchecked: the table holds {len(table)}"
    rep.check("levels match cached table", worst <= 10 * args.tol and not unchecked, detail)
    return rep.finish()


def cmd_scaling(args) -> int:
    rep = Reporter(args.outdir, "scaling", args.do_assert)
    ts = [float(x) for x in args.t_list.split(",")]
    dev = oscillator1d.verify_scaling(ts, args.k)
    rep.csv("scaling.csv", ["t_list", "k", "max_rel_dev"],
            [[";".join(str(t) for t in ts), args.k, dev]])
    rep.check("t^(2/3) scaling law", dev <= 1e-6, f"max deviation {dev:.2e}")
    return rep.finish()


def cmd_local(args) -> int:
    from . import local_model     # its one reader: start-up of every other command skips it
    rep = Reporter(args.outdir, "local", args.do_assert)
    if args.a is not None:
        model = local_model.BirthDeath(args.index, args.dim, args.a)
    else:
        model = local_model.NonDegenerate(args.index, args.dim)
    rows = []
    for d in (range(0, args.dim + 1) if args.degree is None else [args.degree]):
        for val, sec in local_model.degree_spectrum(model, d, args.t, args.m):
            rows.append([d, sorted(sec.axes), val])
    rep.csv("local.csv", ["degree", "sector", "value"], rows)
    rep.check("spectrum computed", True, f"{len(rows)} rows")
    return rep.finish()


def cmd_circle(args) -> int:
    rep = Reporter(args.outdir, f"circle-{args.sub}", args.do_assert)
    cf = load_function(args)
    ts = t_schedule(args)
    strict = not args.lenient_floor

    def clusters(t):
        # Richardson pair: the solve of the default grid n and one of 2n
        solve = circle_lab.circle_solve(cf, t)
        return circle_lab.spectral_clusters(solve, circle_lab.doubled(solve),
                                            strict_floor=strict)

    if args.sub == "clusters":
        results = _sweep(lambda t: (t, clusters(t)), ts, args.workers)
        rows = []
        for t, reports in results:
            s = t ** (2.0 / 3.0)
            for degree, r in reports.items():
                for i, v in enumerate(r.small):
                    rows.append([degree, t, "small", f"s{i}", v, v / s])
                for lab, v in r.large.items():
                    rows.append([degree, t, "large", lab, v, v / s])
                rep.check(f"counts degree {degree} t={t:g}",
                          r.counts["small"] == cf.m_count(degree)
                          and all(r.counts[lab] == 1 for lab, _ in r.large.items()),
                          str(r.counts))
        rep.csv("clusters.csv",
                ["degree", "t", "cluster", "label", "eigenvalue",
                 "eigenvalue_over_t23"], rows)
    elif args.sub == "fit":
        fit = circle_lab.scaling_fit([clusters(t) for t in ts])
        rows = []
        e1 = constants.load_constants()["e"][0]
        for lab, data in fit["per_bd"].items():
            rows.append([lab, data["exponent"], data["constant"]])
            target = e1 * abs(cf.labels[lab].a) ** (2.0 / 3.0)
            rep.check(f"exponent {lab} in [0.66, 0.68]",
                      0.66 <= data["exponent"] <= 0.68,
                      f"{data['exponent']:.4f}")
            rep.check(f"constant {lab} within 5%",
                      abs(data["constant"] - target) / target <= 0.05,
                      f"{data['constant']:.5f} vs {target:.5f}")
        rep.csv("fit.csv", ["label", "exponent", "constant"], rows)
    elif args.sub == "elements":
        rows = whs_compare.matrix_element_check(
            [circle_lab.circle_solve(cf, t) for t in ts], strict_floor=strict)
        rep.csv("matrix_elements.csv",
                ["t", "pair", "raw", "rescaled", "target", "abs_err", "label"],
                [[r.t, r.pair, r.raw, r.rescaled, r.target, r.abs_err, r.label]
                 for r in rows])
        t_max = max(ts)
        for r in rows:
            if r.t == t_max and r.label == "bd":
                # the leading correction scales like |a t|^{-1/3}; anchor the
                # 5% window at |a t| = 154 and widen it below that
                mag = abs(cf.labels[r.pair.split(":")[0]].a)
                width = 0.05 * max(1.0, (154.0 / (mag * r.t)) ** (1.0 / 3.0))
                rep.check(f"bd ratio {r.pair}",
                          abs(r.rescaled - 1.0) <= width,
                          f"{r.rescaled:.4f} (tol {width:.3f})")
            if r.t == t_max and r.label.startswith("nd"):
                rep.check(f"integer limit {r.pair}", r.abs_err <= 0.2,
                          f"{r.rescaled:+.4f} vs {r.target:+g}")
    else:
        raise ValueError(f"unknown circle subcommand {args.sub}")
    return rep.finish()


def _betti(c) -> list[int]:
    """Betti numbers without trailing zeros: elimination may empty the top degree."""
    b = morse_complex.betti(c)
    while b and b[-1] == 0:
        b.pop()
    return b


def cmd_complex(args) -> int:
    rep = Reporter(args.outdir, f"complex-{args.sub}", args.do_assert)
    if args.sub == "fuzz":
        if args.count < 1:
            raise DegenerateInput(f"--count must be at least 1, got {args.count}")
        rng = np.random.default_rng(args.seed)
        bad = 0
        for i in range(args.count):
            c = morse_complex.random_complex(rng, n_pairs=int(rng.integers(1, 7)))
            b0 = _betti(c)
            red = morse_complex.eliminate_all(c)
            ok = _betti(red) == b0 and not red.bd_pairs()
            bad += not ok
        rep.check(f"betti preserved on {args.count} random complexes", bad == 0,
                  f"{bad} failures")
        return rep.finish()

    if args.example:
        cplx, graph, table, hats = whs_compare.circle_complex(
            circle_lab.example_function(args.example))
    else:
        cplx = morse_complex.read_complex(Path(args.file).read_text())
        graph = table = None
    if args.sub == "validate":
        res = morse_complex.validate(cplx)
        rep.check("delta^2 = 0 and unit pair entries", res.ok,
                  "; ".join(res.problems))
    elif args.sub == "eliminate":
        res = morse_complex.validate(cplx)
        rep.check("input valid", res.ok, "; ".join(res.problems))
        if res.ok:
            b0 = _betti(cplx)
            for bd0, bd1 in morse_complex.elimination_order(cplx):
                print(f"eliminating {bd0.id}/{bd1.id} "
                      f"(degree {bd0.degree}, f={bd0.f_value:g})")
            current = morse_complex.eliminate_all(cplx)
            dims = [current.dim(k) for k in sorted(current.cells)]
            print("reduced dims:", dims)
            rep.check("betti preserved", _betti(current) == b0, f"{b0}")
            out = Path(args.outdir) / "reduced.cplx"
            out.write_text(morse_complex.write_complex(current))
            print(f"wrote {out}")
    elif args.sub == "incidence":
        if graph is None:
            raise ValueError("incidence requires --example (needs trajectory data)")
        rows = [[src, dst, val] for (src, dst), val in sorted(table.items())]
        rep.csv("incidence.csv", ["from", "to", "I"], rows)
        ok = True
        for (src, dst), val in table.items():
            vsrc = src.split(":")[0]
            ps = morse_complex.generalized_incidence_pathsum(graph, vsrc, dst)
            ok = ok and ps == val
        rep.check("recursion equals path sum", ok)
    else:
        raise ValueError(f"unknown complex subcommand {args.sub}")
    return rep.finish()


def cmd_compare(args) -> int:
    rep = Reporter(args.outdir, f"compare-{args.sub}", args.do_assert)
    cf = load_function(args)
    ts = t_schedule(args)
    reports = _sweep(lambda t: whs_compare.f_star(circle_lab.circle_solve(cf, t)),
                     ts, args.workers)
    rows = []
    for r in reports:
        for degree, mat in r.f_matrices.items():
            for i, rid in enumerate(r.row_labels[degree]):
                for j, cid in enumerate(r.col_labels[degree]):
                    rows.append([r.t, degree, rid, cid, mat[i, j],
                                 r.deviation, r.defect])
    rep.csv("fstar.csv",
            ["t", "degree", "row", "col", "F_entry", "deviation", "defect"],
            rows)
    devs = [r.deviation for r in reports]
    rep.check("deviation monotone decreasing",
              all(b < a for a, b in zip(devs, devs[1:])),
              " ".join(f"{d:.2e}" for d in devs))
    if len(ts) >= 2:
        slope = np.polyfit(np.log(ts), np.log(devs), 1)[0]
        rep.check("deviation log-log slope <= -0.8", slope <= -0.8,
                  f"{slope:.3f}")
    rep.check("defect small", max(r.defect for r in reports) <= 1e-3,
              f"max {max(r.defect for r in reports):.2e}")
    return rep.finish()


# -- entry point --------------------------------------------------------------------

def _add_common(p, t_flags=True):
    p.add_argument("--outdir", default="reports")
    p.add_argument("--assert", dest="do_assert", action="store_true",
                   help="exit 2 when a check fails")
    p.add_argument("--workers", type=int, default=1,
                   help="thread pool size for t sweeps (default: 1, a sequential sweep)")
    if t_flags:
        p.add_argument("--example", choices=["A", "B"])
        p.add_argument("--config")
        p.add_argument("--t", type=float)
        p.add_argument("--t-list")
        p.add_argument("--lenient-floor", action="store_true",
                       help="do not assert emptiness below the very-large floor")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wittenlab",
        description="spectral and combinatorial checks for deformed "
                    "de Rham complexes on the circle")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("constants", help="compute and cache the model levels")
    p.add_argument("--out", default=str(constants.default_path()))

    p = sub.add_parser("osc1d", help="anharmonic levels vs the cached table")
    _add_common(p, t_flags=False)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("scaling", help="t^(2/3) scaling of the model levels")
    _add_common(p, t_flags=False)
    p.add_argument("--t-list", default="8,27,1000")
    p.add_argument("--k", type=int, default=5)

    p = sub.add_parser("local", help="localized spectra at a critical point")
    _add_common(p, t_flags=False)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--a", type=float)
    p.add_argument("--degree", type=int)
    p.add_argument("--t", type=float, default=16.0)
    p.add_argument("--m", type=int, default=3)

    p = sub.add_parser("circle", help="cluster structure on the circle")
    p.add_argument("sub", choices=["clusters", "fit", "elements"])
    _add_common(p)

    p = sub.add_parser("complex", help="cochain complex operations")
    p.add_argument("sub", choices=["validate", "eliminate", "incidence", "fuzz"])
    p.add_argument("--file")
    p.add_argument("--example", choices=["A", "B"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=100)
    _add_common(p, t_flags=False)

    p = sub.add_parser("compare", help="chain-map comparisons")
    p.add_argument("sub", choices=["fstar"])
    _add_common(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "constants": cmd_constants,
        "osc1d": cmd_osc1d,
        "scaling": cmd_scaling,
        "local": cmd_local,
        "circle": cmd_circle,
        "complex": cmd_complex,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.cmd](args)
    except (WittenLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
