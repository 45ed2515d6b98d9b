"""Span tracing of qsdesign from outside the program.

The tracer wraps public functions of the package at every name a caller
looks them up by: a function imported into another module
(``qsdesign.runner.find_peaks`` as well as ``qsdesign.metrics.find_peaks``),
a method on its class (``ShBasis.evaluate``), and the dispatch attributes of
``qsdesign._kernels``. Each call records one span: name, start, end, the
enclosing span on the same thread, and the thread. Spans stay in memory and
are written out once, at the end of the run. A target the package does not
define is reported as missing, never as zero.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time

import numpy as np


def _first_rows(args, kwargs, position, key):
    value = kwargs[key] if key in kwargs else args[position]
    shape = np.shape(value)
    return shape[0] if len(shape) == 2 else 1


def _gcv_edge_hit(args, kwargs, result):
    from qsdesign import estimator

    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    lambdas = np.asarray(estimator.DEFAULT_GCV_GRID if grid is None else grid, dtype=float)
    return float(result[0] in (lambdas.min(), lambdas.max()))


def _file_bytes(position, key):
    def extra(args, kwargs, result):
        return os.path.getsize(kwargs[key] if key in kwargs else args[position])

    return extra


# (span name, module, attribute path, extra count taken from the call or None).
# Only functions whose own work is reported are wrapped: wrapping a helper
# that one of them calls would move its time out of the caller's self time.
TARGETS = (
    ("runner.run_simulation", "qsdesign.runner", "run_simulation", None),
    ("runner.build_prior_from_cohort", "qsdesign.runner", "build_prior_from_cohort", None),
    ("cli.run", "qsdesign.cli", "run", None),
    ("sim.generate_cohort", "qsdesign.sim", "generate_cohort", None),
    ("sim.observe", "qsdesign.sim", "observe", None),
    ("sphere.ShBasis.evaluate", "qsdesign.sphere", "ShBasis.evaluate",
     lambda a, k, r: _first_rows(a, k, 1, "points")),
    ("sphere.funk_radon", "qsdesign.sphere", "funk_radon", None),
    ("_kernels.sh_matrix", "qsdesign._kernels", "sh_matrix",
     lambda a, k, r: _first_rows(a, k, 0, "xyz")),
    ("_kernels.local_maxima", "qsdesign._kernels", "local_maxima", None),
    ("_kernels.greedy_gains", "qsdesign._kernels", "greedy_gains", None),
    ("_kernels.coulomb_energy_grad", "qsdesign._kernels", "coulomb_energy_grad", None),
    ("estimator.gcv_select", "qsdesign.estimator", "gcv_select", _gcv_edge_hit),
    ("estimator.conditional_fit", "qsdesign.estimator", "conditional_fit", None),
    ("design.default_candidates", "qsdesign.design", "default_candidates", None),
    ("design.esr_design", "qsdesign.design", "esr_design", None),
    ("design.greedy_design", "qsdesign.design", "greedy_design", None),
    ("design.greedy_design_region", "qsdesign.design", "greedy_design_region", None),
    ("design.greedy_bound", "qsdesign.design", "greedy_bound", None),
    ("prior.empirical_moments", "qsdesign.prior", "empirical_moments", None),
    ("prior.VoxelPrior.from_moments", "qsdesign.prior", "VoxelPrior.from_moments", None),
    ("prior.interpolate_prior", "qsdesign.prior", "interpolate_prior", None),
    ("prior.save_prior_field", "qsdesign.prior", "save_prior_field", _file_bytes(1, "path")),
    ("prior.load_prior_field", "qsdesign.prior", "load_prior_field", _file_bytes(0, "path")),
    ("metrics.find_peaks", "qsdesign.metrics", "find_peaks", lambda a, k, r: len(r)),
    ("metrics.integrated_squared_error", "qsdesign.metrics", "integrated_squared_error", None),
    ("metrics.angular_error", "qsdesign.metrics", "angular_error", None),
)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "child", "extra")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child = 0.0
        self.extra = None


class Tracer:
    """Records spans in memory; `install` patches the targets, `uninstall` restores them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.missing: list = []
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name):
        stack = self._stack()
        span = _Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def span(self, name):
        """Span around one of the benchmark's own steps."""
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def _wrap(self, name, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS):
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qsdesign"]
        for name, module_name, path, extra in targets:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if isinstance(owner, type) and isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, extra)))
            elif isinstance(owner, type) and callable(raw):
                self._set(owner, attr, self._wrap(name, raw, extra))
            elif owner is not None and not isinstance(owner, type) and callable(raw):
                traced = self._wrap(name, raw, extra)
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, key, traced)
            else:
                self.missing.append(name)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregation and output

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and the extra count."""
        out: dict = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0.0})
            duration = s.end - s.start
            agg["calls"] += 1
            agg["total_s"] += duration
            agg["self_s"] += duration - s.child
            if s.extra is not None:
                agg["extra"] += s.extra
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        count = 0
        for s in self.spans:
            if s.name != name:
                continue
            parent = s.parent
            while parent is not None and parent.name != ancestor:
                parent = parent.parent
            count += parent is not None
        return count

    def write(self, path, header: dict):
        """Write every span (times relative to the tracer's creation) as JSON."""
        names = sorted({s.name for s in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        index = {id(s): i for i, s in enumerate(self.spans)}
        threads: dict = {}
        rows = [
            [
                name_id[s.name],
                round(s.start - self.t0, 9),
                round(s.end - self.t0, 9),
                index[id(s.parent)] if s.parent is not None else -1,
                threads.setdefault(s.thread, len(threads)),
                s.extra,
            ]
            for s in self.spans
        ]
        doc = {
            **header,
            "run_id": self.run_id,
            "missing_targets": self.missing,
            "span_names": names,
            "span_columns": ["name", "start_s", "end_s", "parent", "thread", "extra"],
            "spans": rows,
            "summary": self.summary(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
