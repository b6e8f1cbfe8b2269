"""Span tracer installed around ergolab's module boundaries.

The wrapped names are the public functions and the handle and observable
methods listed in ``LAYERS``.  Private helpers (``_pairwise_hamming``,
``_greedy_cover``, ...) are left alone, so their time is self time of the
public function that calls them.  A function is patched in every ergolab
module namespace that binds it, so ``cover.name_symbols`` and
``partitions.name_symbols`` record the same span name.

Each span is ``(name, start, end, parent, work)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``work`` a size computed from
the call's arguments (see ``WORK``).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import os
import statistics
import sys
import time

# layer -> (public functions, methods on the layer's handle/observable classes)
LAYERS = {
    "systems": (["sample_measure"], ["sample_measure", "value_orbit"]),
    "partitions": (["name_symbols", "name_word"], []),
    "observables": (["eval_many"], ["orbit_values"]),
    "metrics": (["limit_estimate", "fbar_n", "fhat_n", "hamming_avg", "dbar_n"], []),
    "cover": (["pairwise_distances", "estimate_cover_number", "complexity_curve",
               "classify_boundedness", "curve_csv_rows"], []),
    "equicont": (["find_equipartition", "hamming_equipartition",
                  "verify_equipartition", "mean_expansivity_estimate"], []),
    "spectral": (["classify_almost_periodic", "orbit_covering_number",
                  "eigen_residual", "l2_distance"], []),
    "report": (["config_from_json", "run_experiment", "write_bundle"], []),
    "plotting": (["curve_svg", "geometry_svg"], []),
    "cli": (["main"], []),
}

# base class whose subclasses carry a layer's methods
_METHOD_BASES = {"systems": "SystemHandle", "observables": "Observable"}


def _bytes_written(paths) -> int:
    return sum(os.path.getsize(p) for p in paths or ())


# span name -> work size from the bound call arguments (and result)
WORK = {
    "cover.pairwise_distances": lambda a, r: len(a["samples"]) ** 2 * a["n"],
    "cover.complexity_curve":
        lambda a, r: a["sample_count"] ** 2 * sum(int(h) for h in a["horizons"]),
    "partitions.name_symbols": lambda a, r: a["n"],
    "observables.orbit_values": lambda a, r: a["n"],
    "spectral.orbit_covering_number": lambda a, r: a["horizon"],
    "spectral.classify_almost_periodic":
        lambda a, r: max(int(h) for h in a["horizons"]),
    "report.write_bundle": lambda a, r: _bytes_written(r),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.absent: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                size = 0
                if work is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    size = work(bound.arguments, result)
                spans[idx] = (name, t0, t1, parent, size)

        return traced

    def install(self) -> None:
        """Patch every listed name; names that no longer exist are recorded."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "ergolab" or k.startswith("ergolab.")) and m is not None]
        for layer, (funcs, methods) in LAYERS.items():
            mod = sys.modules.get(f"ergolab.{layer}")
            if mod is None:
                self.absent += [f"{layer}.{f}" for f in funcs + methods]
                continue
            for fname in funcs:
                orig = getattr(mod, fname, None)
                if orig is None:
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
            base = getattr(mod, _METHOD_BASES.get(layer, ""), None)
            for meth in methods:
                found = False
                for cls in vars(mod).values():
                    if isinstance(cls, type) and base is not None \
                            and issubclass(cls, base) and meth in vars(cls):
                        setattr(cls, meth,
                                self._wrap(f"{layer}.{meth}", vars(cls)[meth]))
                        found = True
                if not found:
                    self.absent.append(f"{layer}.{meth}")

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of the traced passes

# (metric, unit); "_s" is inclusive time, "_self_s" excludes child spans
METRICS = [
    ("systems.sample_measure_s", "s"),
    ("systems.value_orbit_s", "s"),
    ("partitions.name_symbols_s", "s"),
    ("partitions.symbols_per_s", "1/s"),
    ("observables.orbit_values_s", "s"),
    ("observables.values_per_s", "1/s"),
    ("observables.eval_many_s", "s"),
    ("metrics.limit_estimate_s", "s"),
    ("metrics.limit_estimate_calls", "count"),
    ("cover.pairwise_distances_s", "s"),
    ("cover.complexity_curve_self_s", "s"),
    ("cover.estimate_cover_number_self_s", "s"),
    ("cover.cells", "count"),
    ("cover.cells_per_s", "1/s"),
    ("equicont.find_equipartition_self_s", "s"),
    ("equicont.hamming_equipartition_self_s", "s"),
    ("equicont.verify_equipartition_self_s", "s"),
    ("equicont.mean_expansivity_estimate_self_s", "s"),
    ("spectral.classify_almost_periodic_self_s", "s"),
    ("spectral.orbit_covering_number_self_s", "s"),
    ("spectral.orbit_rows_per_s", "1/s"),
    ("report.run_experiment_self_s", "s"),
    ("report.write_bundle_s", "s"),
    ("report.bundle_bytes", "bytes"),
    ("plotting.svg_s", "s"),
    ("cli.main_self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _pass_metrics(spans: list, lo: int, hi: int) -> dict:
    """Metrics of the spans lo..hi-1, which are one pass's spans."""
    incl, self_s, work, calls = {}, {}, {}, {}
    child_time = [0.0] * (hi - lo)
    for k in range(lo, hi):
        name, t0, t1, parent, _ = spans[k]
        if parent >= lo:
            child_time[parent - lo] += t1 - t0
    for k in range(lo, hi):
        name, t0, t1, parent, size = spans[k]
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[k - lo]
        p = parent
        while p >= lo and spans[p][0] != name:
            p = spans[p][3]
        if p >= lo:
            continue  # nested in a span of the same name: counted there
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        work[name] = work.get(name, 0) + size
        calls[name] = calls.get(name, 0) + 1

    def t(name):
        return incl.get(name, 0.0)

    cells = work.get("cover.pairwise_distances", 0) + work.get("cover.complexity_curve", 0)
    rows = (work.get("spectral.classify_almost_periodic", 0)
            + work.get("spectral.orbit_covering_number", 0))
    out = {
        "systems.sample_measure_s": t("systems.sample_measure"),
        "systems.value_orbit_s": t("systems.value_orbit"),
        "partitions.name_symbols_s": t("partitions.name_symbols"),
        "partitions.symbols_per_s": _rate(work.get("partitions.name_symbols", 0),
                                          t("partitions.name_symbols")),
        "observables.orbit_values_s": t("observables.orbit_values"),
        "observables.values_per_s": _rate(work.get("observables.orbit_values", 0),
                                          t("observables.orbit_values")),
        "observables.eval_many_s": t("observables.eval_many"),
        "metrics.limit_estimate_s": t("metrics.limit_estimate"),
        "metrics.limit_estimate_calls": calls.get("metrics.limit_estimate", 0),
        "cover.pairwise_distances_s": t("cover.pairwise_distances"),
        "cover.cells": cells,
        "cover.cells_per_s": _rate(cells, t("cover.pairwise_distances")
                                   + t("cover.complexity_curve")),
        "spectral.orbit_rows_per_s": _rate(rows, t("spectral.classify_almost_periodic")
                                           + t("spectral.orbit_covering_number")),
        "report.write_bundle_s": t("report.write_bundle"),
        "report.bundle_bytes": work.get("report.write_bundle", 0),
        "plotting.svg_s": t("plotting.curve_svg") + t("plotting.geometry_svg"),
    }
    for metric, _ in METRICS:
        if metric.endswith("_self_s"):
            out[metric] = self_s.get(metric[:-len("_self_s")], 0.0)
    return out


def layer_metrics(spans: list, passes: list, pass_s: list) -> dict:
    """Median over the traced passes of each per-layer metric; pass_s holds
    each pass's (normalised) time, for the tracing overhead."""
    starts = [s[1] for s in spans]
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        lo = bisect.bisect_left(starts, p["start"])
        hi = bisect.bisect_left(starts, p["end"])
        per_pass.append(_pass_metrics(spans, lo, hi))
    out = {m: statistics.median(pp[m] for pp in per_pass)
           for m, _ in METRICS if m != "trace.overhead_s"}
    out["trace.overhead_s"] = (
        statistics.median(t for p, t in zip(passes, pass_s) if p["traced"])
        - statistics.median(t for p, t in zip(passes, pass_s) if not p["traced"]))
    return out
