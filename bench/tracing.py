"""Outside-in tracing of the solver's layers.

The tracer replaces public functions of the library's modules by wrappers
that record a span (name, parent, start, end) per call, and wraps operator
closures through ``dataclasses.replace``.  It never edits the library: a
function it cannot find is recorded as absent.  Spans stay in memory and are
written out once, when the run ends.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.absent: list[str] = []
        self._open: list[list] = []  # [span index, name, start, child time]
        self._patches: list[tuple[object, str, object]] = []
        self.reset_totals()

    # -- accounting ---------------------------------------------------------

    def reset_totals(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self._open.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append((name, parent, 0.0, 0.0))

    def _exit(self) -> None:
        end = time.perf_counter()
        index, name, start, child = self._open.pop()
        self.spans[index] = (self.spans[index][0], self.spans[index][1], start, end)
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._open:
            self._open[-1][3] += duration

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(result, args,
        kwargs)`` may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def count_only(self, fn, on_result):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result, args, kwargs)
            return result

        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    # -- patching -----------------------------------------------------------

    def patch(self, module_name: str, attr: str, make_wrapper) -> None:
        """Replace ``module.attr`` by ``make_wrapper(original)``, or record
        ``module.attr`` as absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            if f"{module_name}.{attr}" not in self.absent:
                self.absent.append(f"{module_name}.{attr}")
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def wrap_operator(self, operator, name: str):
        return dataclasses.replace(
            operator,
            forward=self.wrap(f"{name}.forward", operator.forward),
            adjoint=self.wrap(f"{name}.adjoint", operator.adjoint),
        )

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as JSON lines ``[name, parent, start, end]``, gzipped."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _iterations(result) -> int | None:
    if isinstance(result, tuple) and len(result) >= 2 and isinstance(result[1], int):
        return result[1]
    return None


def install_library_probes(tracer: Tracer) -> None:
    """Wrap the library functions whose layers the benchmark reports."""

    def cg_counts(result, args, kwargs):
        iters = _iterations(result)
        if iters is None:
            return
        tracer.counts["kernels.cg_solve.iters"] += iters
        settings = kwargs.get("settings", args[3] if len(args) > 3 else None)
        cap = getattr(settings, "max_iter", None)
        if cap is not None and iters >= cap:
            tracer.counts["kernels.cg_solve.capped"] += 1

    def export_cg_counts(result, args, kwargs):
        iters = _iterations(result)
        if iters is not None:
            tracer.counts["cli.integrate_smooth_gradient.cg_iters"] += iters

    def stats_counts(stats, args, kwargs):
        tracer.counts["robust.mad_degenerate"] += int(bool(getattr(stats, "mad_degenerate", False)))
        tracer.counts["robust.mask_empty"] += int(bool(getattr(stats, "mask_empty", False)))

    def grad_factory(original):
        @functools.wraps(original)
        def make(kind, dims, *args, **kwargs):
            op = original(kind, dims, *args, **kwargs)
            return tracer.wrap_operator(op, "operators.grad") if kind == "grad" else op

        return make

    spans = [
        ("tikhtv.admm", "update_model", "admm.update_model", None),
        ("tikhtv.admm", "update_sparse_grad", "admm.update_sparse_grad", None),
        ("tikhtv.admm", "update_smooth_grad", "admm.update_smooth_grad", None),
        ("tikhtv.admm", "update_noise", "admm.update_noise", None),
        ("tikhtv.admm", "cg_solve", "kernels.cg_solve", cg_counts),
        ("tikhtv.admm", "tridiagonal_solve", "kernels.tridiagonal_solve", None),
        ("tikhtv.admm", "max_real_root_depressed_cubic", "kernels.cubic_root", None),
        ("tikhtv.admm", "gradient_stats", "robust.gradient_stats", stats_counts),
        ("tikhtv.admm", "update_balance", "robust.update_balance", None),
        ("tikhtv.cli", "make_radon", "operators.make_radon", None),
    ]
    for module, attr, name, on_result in spans:
        tracer.patch(module, attr, lambda fn, name=name, on_result=on_result: tracer.wrap(name, fn, on_result))
    tracer.patch("tikhtv.cli", "cg_solve", lambda fn: tracer.count_only(fn, export_cg_counts))
    tracer.patch("tikhtv.admm", "make_derivative_operator", grad_factory)
