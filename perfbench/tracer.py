"""Per-layer tracing from outside the package.

The tracer wraps public functions of the ``sscavi`` modules and aggregates,
per layer, busy time, self time (busy time minus the time of traced
children), call counts and a few work counters. Nothing under ``src/`` is
edited: a wrapper replaces every module attribute that refers to the wrapped
function, which also catches names imported into other modules and private
aliases such as ``engines._elbo`` (which is ``model.elbo``).
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, function, layer name). Several functions may share a layer name.
TARGETS = [
    ("synth", "make_dataset", "synth.make_dataset"),
    ("model", "precompute", "model.precompute"),
    ("model", "elbo", "model.elbo"),
    ("model", "inclusion_prob", "model.inclusion_prob"),
    ("engines", "seq_sweep", "engines.seq_sweep"),
    ("engines", "par_sweep", "engines.par_sweep"),
    ("engines", "run", "engines.run"),
    ("engines", "fixed_point", "engines.fixed_point"),
    ("stability", "jacobian_seq", "stability.jacobian_seq"),
    ("stability", "jacobian_par", "stability.jacobian_par"),
    ("stability", "spectral_radius", "stability.spectral_radius"),
    ("stability", "check_assumption1", "stability.check_assumption1"),
    ("stability", "analyze_stability", "stability.analyze_stability"),
    ("harness", "spectral_replicate", "harness.spectral_replicate"),
    ("harness", "write_csv", "harness.write_csv"),
    ("svgplot", "line_plot", "svgplot"),
    ("svgplot", "scatter_plot", "svgplot"),
    ("svgplot", "box_plot", "svgplot"),
]

# Every per-layer metric the benchmark reports, with its unit.
METRICS = {
    "engines.seq_sweep.s": "s",
    "engines.seq_sweep.calls": "count",
    "engines.seq_sweep.flops": "flop",
    "engines.par_sweep.s": "s",
    "engines.par_sweep.calls": "count",
    "engines.run.s": "s",
    "engines.run.self_s": "s",
    "engines.run.iterations": "count",
    "engines.fixed_point.s": "s",
    "engines.fixed_point.extra_sweeps": "count",
    "model.elbo.s": "s",
    "model.elbo.calls": "count",
    "model.inclusion_prob.s": "s",
    "model.inclusion_prob.calls": "count",
    "model.precompute.s": "s",
    "synth.make_dataset.s": "s",
    "stability.jacobian_seq.s": "s",
    "stability.jacobian_par.s": "s",
    "stability.spectral_radius.s": "s",
    "stability.check_assumption1.s": "s",
    "stability.analyze_stability.self_s": "s",
    "harness.spectral_replicate.s": "s",
    "harness.write_csv.s": "s",
    "harness.write_csv.bytes": "B",
    "svgplot.s": "s",
    "trace.overhead_s": "s",
}


def replace_everywhere(original, replacement):
    """Point every ``sscavi`` module attribute bound to ``original`` at
    ``replacement``; returns the list of (module, attribute) changed."""
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sscavi" or name.startswith("sscavi.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def _counters(layer, parent, args, result):
    """Work counters recorded at a layer boundary: (metric, increment)."""
    if layer in ("engines.seq_sweep", "engines.par_sweep"):
        if parent == "engines.fixed_point":
            yield "engines.fixed_point.extra_sweeps", 1
        if layer == "engines.seq_sweep":
            p = len(args[0])
            yield "engines.seq_sweep.flops", 2 * p * p
    elif layer == "engines.run":
        yield "engines.run.iterations", result.n_iter
    elif layer == "harness.write_csv":
        yield "harness.write_csv.bytes", os.path.getsize(args[0])


class Tracer:
    """Aggregated spans for the functions in :data:`TARGETS`.

    ``install`` wraps them; ``uninstall`` restores the originals. ``totals``
    accumulates ``<layer>.s``, ``<layer>.self_s``, ``<layer>.calls`` and the
    counters of :func:`_counters` over every traced call.
    """

    def __init__(self, modules):
        self.modules = modules
        self.totals = defaultdict(float)
        self._stack = []  # [layer, time of traced children] per open span
        self._restore = []

    def install(self):
        """Wrap every target the program has; a layer it lacks reads 0."""
        for mod_name, fn_name, layer in TARGETS:
            original = getattr(self.modules.get(mod_name), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            for module, attr in replace_everywhere(original, wrapper):
                self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def _wrap(self, layer, fn):
        totals, stack = self.totals, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span = [layer, 0.0]
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                totals[layer + ".s"] += elapsed
                totals[layer + ".self_s"] += elapsed - span[1]
                totals[layer + ".calls"] += 1
            for metric, inc in _counters(layer, parent, args, result):
                totals[metric] += inc
            return result

        traced.__wrapped__ = fn
        return traced
