"""Span recorder for the traced run.

The recorder replaces each traced public function by a wrapper in every
``kronldp.*`` namespace that binds it (the defining module, the package and
every module that imported it by name), so calls made inside the program
between layers are seen as well as the benchmark's own. Spans (name, start,
end, parent) stay in memory and are written out once the run is over. The
untraced run never creates a recorder and patches nothing.

Only the layer boundaries are traced. Utilities such as ``apply_S``,
``stream`` or ``structure_hash`` sit inside the solvers' inner loops; wrapping
them would time the tracer rather than the program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from collections import Counter


def _tail_sampler(fn):
    sig = inspect.signature(fn)

    def label(args, kwargs):
        return "montecarlo." + sig.bind(*args, **kwargs).arguments.get("sampler", "dense")

    return label


def _density_points(counts, result):
    # the default eta ladder starts at 1e-3 and halves; eta_final is its last rung
    rungs = round(math.log2(1e-3 / result.eta_final)) + 1
    counts["mde.density.points"] += len(result.grid) * rungs


def _rate_counts(counts, result):
    counts["rate.fevals"] += int(result.diagnostics.get("fevals", 0))
    counts["rate.rungs"] += len(result.diagnostics.get("ladder", ()))


def _window_counts(counts, result):
    counts["montecarlo.draws"] += result.reps
    counts["montecarlo.hits"] += result.hits
    if result.ess is not None:
        counts["montecarlo.ess"] += result.ess
        counts["montecarlo.importance_draws"] += result.reps


# (module, function, span label or None for "<layer>.<function>", observer)
TARGETS = [
    ("kronldp.mde", "right_edge", None, None),
    ("kronldp.mde", "left_edge", None, None),
    ("kronldp.mde", "density", None, _density_points),
    ("kronldp.outlier", "largest_outlier", None, None),
    ("kronldp.outlier", "tilt_for_target", None, None),
    ("kronldp.outlier", "lambda_sym", None, None),
    ("kronldp.outlier", "outlier_det", None, None),
    ("kronldp.rate", "rate_function", None, _rate_counts),
    ("kronldp.rate", "phi_maps", None, None),
    ("kronldp.model", "sample_tilted", None, None),
    ("kronldp.montecarlo", "tail_probability", _tail_sampler, _window_counts),
    ("kronldp.montecarlo", "importance_tail", None, _window_counts),
    ("kronldp.montecarlo", "tilted_outlier_check", None, None),
    ("kronldp.cli", "main", None, None),
]


class Recorder:
    """In-memory spans of the traced public calls, plus derived counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._paused = False

    def _wrap(self, fn, label, observe):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._paused:
                return fn(*args, **kwargs)
            name = label(args, kwargs) if callable(label) else label
            idx = len(rec.spans)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else None]
            rec.spans.append(span)
            rec._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
            if observe is not None:
                observe(rec.counts, result)
            return result

        return traced

    def install(self):
        """Patch every kronldp namespace that binds a traced function."""
        wrappers = {}
        for modname, fname, label, observe in TARGETS:
            fn = getattr(sys.modules[modname], fname)
            name = f"{modname.rsplit('.', 1)[-1]}.{fname}"
            wrappers[id(fn)] = (fn, self._wrap(fn, label(fn) if label else name, observe))
        for modname, mod in list(sys.modules.items()):
            if modname != "kronldp" and not modname.startswith("kronldp."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's checks) are neither timed nor counted."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def layers(self):
        """Per span name: calls, total and self seconds; plus the top-level total.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            if parent is None:
                top += end - start
        return out, top

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
