"""Per-layer tracing from outside the program.

The public functions of each wittenlab layer are replaced, in every
wittenlab module that holds a reference to them, by wrappers that record one
span per call: name, start, end and the index of the enclosing span.  Module
code looks its callees up in the module namespace, so calls made inside a
module are caught as well.  The program itself is not changed.

Nothing here starts threads; the benchmark runs the program single-threaded,
so one span stack suffices.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

# layer module -> public functions wrapped by the traced run
TARGETS = {
    "eigensolve": ["eigs_lowest", "count_below"],
    "circle_lab": ["assemble_witten", "lowest_eigs", "spectral_clusters",
                   "cluster_bases", "basis_logvectors", "quasimode"],
    "oscillator1d": ["spectrum", "discretize"],
    "whs_compare": ["f_star", "integrate_cochain", "circle_complex"],
    "logspace": ["logsumexp_signed"],
    "morse_complex": ["read_complex", "validate", "eliminate_all", "betti",
                      "write_complex"],
    "constants": ["load_constants"],
}

# (span name, quantities); "s" implies a matching "self_s"
_REPORTED = [
    ("eigensolve.eigs_lowest.cyclic", ["calls", "s", "rows"]),
    ("eigensolve.eigs_lowest.acyclic", ["calls", "s", "rows"]),
    ("eigensolve.count_below", ["calls", "s"]),
    ("circle_lab.assemble_witten", ["calls", "s", "unique_ratio"]),
    ("circle_lab.lowest_eigs", ["calls", "hit_ratio"]),
    ("circle_lab.spectral_clusters", ["s"]),
    ("circle_lab.cluster_bases", ["s"]),
    ("circle_lab.basis_logvectors", ["s"]),
    ("circle_lab.quasimode", ["calls", "s"]),
    ("oscillator1d.spectrum", ["calls", "s"]),
    ("oscillator1d.discretize", ["calls", "rows"]),
    ("whs_compare.f_star", ["s"]),
    ("whs_compare.integrate_cochain", ["calls", "s"]),
    ("whs_compare.circle_complex", ["calls", "s"]),
    ("logspace.logsumexp_signed", ["calls", "s"]),
    ("morse_complex.read_complex", ["calls", "s"]),
    ("morse_complex.validate", ["calls", "s"]),
    ("morse_complex.eliminate_all", ["calls", "s"]),
    ("morse_complex.betti", ["calls", "s"]),
    ("morse_complex.write_complex", ["calls", "s"]),
    ("constants.load_constants", ["s"]),
]

# wrapped calls whose arguments give a variant or a work count
_INFO_OF = ("eigensolve.eigs_lowest", "oscillator1d.discretize", "circle_lab.assemble_witten")

_UNITS = {"calls": "count", "rows": "count", "s": "s", "self_s": "s",
          "unique_ratio": "ratio", "hit_ratio": "ratio"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for span, quantities in _REPORTED:
        for q in quantities:
            out.append((f"{span}.{q}", _UNITS[q]))
            if q == "s":
                out.append((f"{span}.self_s", _UNITS["self_s"]))
    return out


class Tracer:
    """Records spans of the wrapped calls; spans[i] = [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._replaced: list[tuple] = []        # (module, attribute, original)

    def _wrap(self, qualname: str, fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, info = qualname, None
            if qualname in _INFO_OF:
                arg = sig.bind_partial(*args, **kwargs).arguments
                if qualname == "eigensolve.eigs_lowest":
                    mat = arg["t"]
                    name += ".cyclic" if mat.corner is not None else ".acyclic"
                    info = int(mat.n)
                elif qualname == "oscillator1d.discretize":
                    info = int(arg["n"])
                else:
                    info = (float(arg["t"]), int(arg["n_grid"]))
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every target found in the loaded wittenlab modules."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "wittenlab" or name.startswith("wittenlab.")}
        for modname, funcs in TARGETS.items():
            home = modules.get(f"wittenlab.{modname}")
            if home is None:
                continue
            for fname in funcs:
                original = getattr(home, fname, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._replaced.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._replaced):
            setattr(mod, attr, original)
        self._replaced.clear()


def unit_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one unit of work from its spans."""
    n = len(spans)
    child_time = [0.0] * n
    has_eig_below = [False] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
    # a lowest_eigs call "hits" when no eigensolve happens beneath it
    for i in range(n - 1, -1, -1):
        name, _, _, parent, _ = spans[i]
        if parent >= 0 and (has_eig_below[i] or name.startswith("eigensolve.eigs_lowest")):
            has_eig_below[parent] = True

    def outermost(i: int) -> bool:
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    agg: dict[str, dict] = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0,
                                  "keys": set(), "hits": 0})
        a["calls"] += 1
        a["self_s"] += (end - start) - child_time[i]
        if outermost(i):
            a["s"] += end - start
        if isinstance(info, int):
            a["rows"] += info
        elif info is not None:
            a["keys"].add(tuple(info))
        if not has_eig_below[i]:
            a["hits"] += 1

    out = {}
    for span, quantities in _REPORTED:
        a = agg.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0,
                           "keys": set(), "hits": 0})
        for q in quantities:
            if q == "unique_ratio":
                out[f"{span}.{q}"] = len(a["keys"]) / a["calls"] if a["calls"] else 0.0
            elif q == "hit_ratio":
                out[f"{span}.{q}"] = a["hits"] / a["calls"] if a["calls"] else 0.0
            else:
                out[f"{span}.{q}"] = a[q]
            if q == "s":
                out[f"{span}.self_s"] = a["self_s"]
    return out


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, dict]:
    """Median over units of each per-layer metric, in the result format."""
    return {name: {"value": statistics.median(m[name] for m in per_unit), "unit": unit}
            for name, unit in metric_names()}
