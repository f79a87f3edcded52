"""Span recorder around calls into the library's public layer functions.

Tracing is done from the benchmark's side only: `instrument` rebinds each
target function, in every maxplus module that holds a reference to it, to
a wrapper that records a span (name, start, end, parent, job).  Calls a
layer makes into another layer are therefore nested spans, which gives
self time per layer.  Spans stay in memory until the run ends.  The
private max-plus matmul kernel gets a counting wrapper only (no span), so
matmul counts are attributed to the innermost open span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from statistics import median

from corpus import COMMANDS

# (module, function, span name); a name taking the call's arguments
# splits one function into several layers.
LAYERS = (
    ("core", "mat_power", "core.mat_power"),
    ("graphs", "critical_structure", "graphs.critical_structure"),
    ("graphs", "strong_access_matrix", "graphs.strong_access_matrix"),
    ("kleene", "kleene_star", "kleene.kleene_star"),
    ("csr", "csr_build", "csr.csr_build"),
    ("csr", "csr_product", "csr.csr_product"),
    ("expansions", "nachtigall_expand", "expansions.nachtigall_expand"),
    ("expansions", "evaluate", "expansions.evaluate"),
    ("expansions", "ultimate_expand", "expansions.ultimate_expand"),
    ("expansions", "fast_terms", "expansions.fast_terms"),
    ("expansions", "ultimate_threshold", "expansions.ultimate_threshold"),
    ("orbit", "is_orbit_periodic",
     lambda a, method="support", **kw:
         "orbit.is_orbit_periodic." + method.replace("-", "_")),
    ("orbit", "simulate_orbit", "orbit.simulate_orbit"),
    ("cli", "main", lambda argv=None: "cli.main." + argv[0]),
)
LAYER_NAMES = tuple(n for _, _, n in LAYERS if isinstance(n, str)) + (
    "orbit.is_orbit_periodic.support", "orbit.is_orbit_periodic.strong_access"
) + tuple("cli.main." + c for c in COMMANDS)
COUNTED = ("core", "_mp_matmul")


class Recorder:
    """Spans as lists [name, start, end, parent, job, matmuls, info]."""

    def __init__(self):
        import maxplus
        self.spans = []
        self.stack = []
        self.job = None
        self._saved = []
        self._modules = [m for k, m in sys.modules.items()
                         if k.split(".")[0] == "maxplus" and m is not None]
        self._replace = {}
        for mod, fn, name in LAYERS:
            orig = vars(getattr(maxplus, mod))[fn]
            self._replace[id(orig)] = self._span_wrapper(orig, name)
        orig = vars(getattr(maxplus, COUNTED[0]))[COUNTED[1]]
        self._replace[id(orig)] = self._count_wrapper(orig)

    # -------------------------------------------------------- patching
    def instrument(self):
        """Rebind every reference to a target function to its wrapper."""
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                new = self._replace.get(id(value))
                if new is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, new)

    def restore(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _span_wrapper(self, orig, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[6] = _info(label, args, result)
            return result
        return traced

    def _count_wrapper(self, orig):
        spans, stack = self.spans, self.stack

        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][5] += 1
            return orig(*args, **kwargs)
        return counted

    def write(self, path: str):
        """All spans as JSON lines; parent is an index into this file."""
        with open(path, "w") as fh:
            for name, start, end, parent, job, matmuls, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "matmuls": matmuls}) + "\n")

    # -------------------------------------------------------- summaries
    def summary(self, jobs: int) -> dict:
        """Per layer: median ms per call, call count, and self time (span
        time not covered by child spans) per traced job; plus the derived
        rates and counts the benchmark reports."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        dur, self_t = defaultdict(list), defaultdict(float)
        for k, s in enumerate(self.spans):
            dur[s[0]].append(s[2] - s[1])
            self_t[s[0]] += s[2] - s[1] - child_time[k]
        out = {}
        for name in LAYER_NAMES:
            d = dur.get(name, [])
            out[name + ".ms"] = median(d) * 1e3 if d else 0.0
            out[name + ".calls"] = len(d)
            out[name + ".self_ms_per_job"] = self_t[name] * 1e3 / jobs
        ops = busy = 0.0
        scan, steps, steps_busy, sample_bytes = [], [], 0.0, []
        for s in self.spans:
            if s[0] == "core.mat_power":
                ops += s[5] * s[6]["n"] ** 3
                busy += s[2] - s[1]
            elif s[0] == "expansions.ultimate_threshold":
                scan.append(s[5])     # one matmul per scanned exponent
            elif s[0] == "orbit.simulate_orbit":
                steps.append(s[6]["steps"])
                steps_busy += s[2] - s[1]
                sample_bytes.append(s[6]["bytes"])
        out["core.mat_power.gops_per_s"] = ops / busy / 1e9 if busy else 0.0
        out["expansions.threshold_scan_steps"] = median(scan) if scan else 0
        out["orbit.simulate_orbit.steps"] = median(steps) if steps else 0
        out["orbit.simulate_orbit.steps_per_s"] = (sum(steps) / steps_busy
                                                  if steps_busy else 0.0)
        out["orbit.simulate_orbit.samples_mb"] = (median(sample_bytes) / 1e6
                                                 if sample_bytes else 0.0)
        return out


def _info(label, args, result):
    """Keep only the small facts the summary needs, not the objects."""
    if label == "core.mat_power":
        return {"n": args[0].n}
    if label == "orbit.simulate_orbit":
        return {"steps": result.samples.shape[0] - 1,
                "bytes": result.samples.nbytes}
    return None
