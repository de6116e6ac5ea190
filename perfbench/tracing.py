"""Spans around marcz's public functions, recorded from outside the library.

`Tracer.install` wraps each function named in `WRAPS` and binds the wrapper
in every loaded `marcz` module that holds the original (the CLI imports names
with `from .statistic import ...`, so patching the defining module alone
would miss those calls). `MarcTrace.to_csv` is patched on its class. Spans are
kept in memory as `{name, start, end, parent, op_id}` and written out at the
end; per-layer metrics are derived from them.
"""

import json
import os
import re
import subprocess
import sys
import time
from collections import defaultdict


def _cross_sum_terms(args, kwargs):
    # verify_kernel_bound(gamma, lag_max, radius): each lag d in 2..lag_max
    # takes radius + (d - 1) + (radius - d) = 2 * radius - 1 multiply-adds.
    lag_max = kwargs.get("lag_max", args[1] if len(args) > 1 else None)
    radius = kwargs.get("radius", args[2] if len(args) > 2 else None)
    return (lag_max - 1) * (2 * radius - 1)


# (module, attribute, span name, counter(args, kwargs, result) -> {count: value})
WRAPS = (
    ("marcz.cli", "main", "cli.main", None),
    # the CLI's whole input read: load_prices, log_returns, select_window or np.loadtxt
    ("marcz.cli", "_analysis_input", "ingest.read",
     lambda a, k, r: {"ingest.points": r[0].size}),
    ("marcz.innovations", "sample", "innovations.sample",
     lambda a, k, r: {"innovations.draws": r.size}),
    ("marcz.kernel", "coefficient_array", "kernel.coefficient_array", None),
    ("marcz.kernel", "verify_kernel_bound", "kernel.verify_kernel_bound",
     lambda a, k, r: {"kernel.cross_sum_terms": _cross_sum_terms(a, k),
                      # two float64 operands read per multiply-add (computed)
                      "kernel.cross_sum_bytes": 16 * _cross_sum_terms(a, k)}),
    ("marcz.linproc", "simulate_paths", "linproc.simulate_paths",
     lambda a, k, r: {"linproc.conv_outputs": r.x.size}),
    ("marcz.linproc", "ensemble_to_tsv", "linproc.ensemble_write",
     lambda a, k, r: {"linproc.ensemble_bytes": os.path.getsize(a[1])}),
    ("marcz.linproc", "ensemble_to_binary", "linproc.ensemble_write",
     lambda a, k, r: {"linproc.ensemble_bytes":
                      os.path.getsize(a[1]) + os.path.getsize(a[2])}),
    ("marcz.statistic", "verdict_table", "statistic.verdict_table", None),
    ("marcz.statistic", "marcinkiewicz_trace", "statistic.trace", None),
    ("marcz.statistic", "ewma", "statistic.ewma",
     lambda a, k, r: {"statistic.ewma_points": r.size}),
    ("marcz.statistic", "convergence_verdict", "statistic.verdict_rule", None),
    ("marcz.statistic", "MarcTrace.to_csv", "statistic.trace_write",
     lambda a, k, r: {"statistic.trace_bytes": os.path.getsize(a[1])}),
    ("marcz.rates", "estimate_parameters", "rates.estimate", None),
    ("marcz.rates", "predict_table", "rates.predict", None),
    ("marcz.verify", "lrd_ratio_medians", "verify.lrd_ratio_medians", None),
    ("marcz.verify", "ht_ratio_medians", "verify.ht_ratio_medians", None),
)

# per-layer metric -> (span names, "total" | "self" | "calls")
SPAN_METRICS = {
    "cli.self_s": (("cli.main",), "self"),
    "ingest.read_s": (("ingest.read",), "total"),
    "innovations.sample_s": (("innovations.sample",), "total"),
    "kernel.coefficient_array_s": (("kernel.coefficient_array",), "total"),
    "kernel.coefficient_array_calls": (("kernel.coefficient_array",), "calls"),
    "kernel.verify_kernel_bound_s": (("kernel.verify_kernel_bound",), "total"),
    "linproc.simulate_paths_self_s": (("linproc.simulate_paths",), "self"),
    "linproc.ensemble_write_s": (("linproc.ensemble_write",), "total"),
    "statistic.verdict_table_s": (("statistic.verdict_table",), "total"),
    "statistic.trace_s": (("statistic.trace",), "total"),
    "statistic.trace_calls": (("statistic.trace",), "calls"),
    "statistic.ewma_s": (("statistic.ewma",), "total"),
    "statistic.ewma_calls": (("statistic.ewma",), "calls"),
    "statistic.verdict_rule_s": (("statistic.verdict_rule",), "total"),
    "statistic.cells": (("statistic.verdict_rule",), "calls"),
    "statistic.trace_write_s": (("statistic.trace_write",), "total"),
    "rates.estimate_s": (("rates.estimate",), "total"),
    "rates.predict_s": (("rates.predict",), "total"),
    "rates.calls": (("rates.estimate", "rates.predict"), "calls"),
    "verify.lrd_ratio_medians_s": (("verify.lrd_ratio_medians",), "total"),
    "verify.ht_ratio_medians_s": (("verify.ht_ratio_medians",), "total"),
}
COUNT_METRICS = ("ingest.points", "innovations.draws", "kernel.cross_sum_terms",
                 "kernel.cross_sum_bytes", "linproc.conv_outputs",
                 "linproc.ensemble_bytes", "statistic.ewma_points",
                 "statistic.trace_bytes")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op_id]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []     # (owner, attribute, original)
        self.op_id = None
        self.overhead = 0.0    # time spent in the wrappers themselves

    def span(self, name, fn, counter=None):
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            rec = [name, None, None, self._stack[-1] if self._stack else None, self.op_id]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += int(value)
            self.overhead += time.perf_counter() - enter - (rec[2] - rec[1])
            return result
        return wrapper

    def install(self):
        for module_name, attr, name, counter in WRAPS:
            owner = sys.modules[module_name]
            cls_name, _, attr = attr.rpartition(".")
            original = getattr(getattr(owner, cls_name) if cls_name else owner, attr)
            wrapper = self.span(name, original, counter)
            if cls_name:
                holders = [getattr(owner, cls_name)]
            else:
                holders = [m for n, m in list(sys.modules.items())
                           if (n == "marcz" or n.startswith("marcz.")) and m is not None
                           and getattr(m, attr, None) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def session(self, op_id, fn, *args):
        """Run one session as the root span `bench.session` of op `op_id`."""
        self.op_id = op_id
        try:
            return self.span("bench.session", fn)(*args)
        finally:
            self.op_id = None

    def layer_metrics(self, sessions):
        """Per-session means of each layer's time and counts, and of the time
        the wrappers added (the traced minus the untraced session time,
        measured inside the wrappers so that host noise does not swamp it)."""
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for metric, (names, kind) in SPAN_METRICS.items():
            table = {"total": total, "self": own, "calls": calls}[kind]
            out[metric] = sum(table[name] for name in names) / sessions
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric] / sessions
        out["bench.tracing_overhead_s"] = self.overhead / sessions
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op_id": op_id}) + "\n")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_metrics(target, env, cwd):
    """import.total_s / scipy_s / numpy_s from `python -X importtime`.

    total is the cumulative time of the top-level marcz entries; scipy and
    numpy are the summed self times of their modules.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {target}"],
                          env=env, cwd=cwd, capture_output=True, text=True, check=True)
    total = scipy = numpy = 0
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        own, cumulative, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        top = name.split(".")[0]
        if top == "marcz" and indent == 1:
            total += cumulative
        elif top == "scipy":
            scipy += own
        elif top == "numpy":
            numpy += own
    return {"import.total_s": total * 1e-6, "import.scipy_s": scipy * 1e-6,
            "import.numpy_s": numpy * 1e-6}
