"""Spans around layersep's public functions, installed from outside the package.

Each wrapper replaces a function at the module attribute its caller looks
up, and ``Tracer.installed`` puts every original back when the traced pass
ends, so tracing needs no change to layersep.  Spans are kept in memory as
``[name, start, end, parent, cell, error]`` and written out by the caller.
Every certificate ``lp_point_vs_set`` returns is re-checked with
``verify_certificate`` in a ``bench.recheck`` span, so the re-check is not
charged to any layer.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from layersep import cli, exact, experiments, separability
from layersep.separability import DEFAULT_TOL, verify_certificate
from trace_report import by_name

BOUND_FUNCTIONS = ("p1_linear_lb", "p1_fisher_lb", "p_linear_lb", "p_fisher_lb")


def _cell(spec, *_args, **_kwargs) -> str:
    """Cell id from the LayerSpec or BoundQuery a call takes first."""
    return f"d={spec.d} r={spec.r!r}"


class Tracer:
    """Span recorder plus the counters that spans alone do not carry."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._restore: list[tuple] = []
        self.coords = 0
        self.pivots: list[int] = []
        self.columns: list[int] = []
        self.rechecked = 0
        self.recheck_fail = 0
        self.cells = 0
        self.trials = 0
        self.lp_calls = 0
        self.lp_skipped = 0

    def set_cell(self, cell) -> None:
        self._local.cell = cell

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                  getattr(self._local, "cell", None), None]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, module, attr: str, name: str, after=None, cell=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if cell is not None:
                self.set_cell(cell(*args, **kwargs))
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    @contextmanager
    def installed(self, experiment: bool):
        """Wrap the experiment path (``experiment=True``) or the oracle path."""
        try:
            self._wrap(separability, "lp_point_vs_set", "separability.lp_point", self._recheck)
            self._wrap(separability, "solve_standard_form", "lp.solve", self._count_pivots)
            if experiment:
                self._wrap(cli, "run_experiment", "experiments.run_experiment",
                           self._count_records)
                self._wrap(cli, "emit_records", "cli.emit_records")
                self._wrap(experiments, "sample_layer", "geometry.sample_layer",
                           self._count_coords, cell=_cell)
                self._wrap(experiments, "fisher_point_vs_set", "separability.fisher")
                self._wrap(experiments, "fisher_separable_set", "separability.fisher")
                self._wrap(experiments, "linearly_separable_set", "separability.linear_set")
                self._wrap(experiments, "lp_point_vs_set", "separability.lp_point",
                           self._recheck)
                for attr in BOUND_FUNCTIONS:
                    self._wrap(experiments, attr, "bounds", cell=_cell)
            else:
                self._wrap(exact, "exact_point_vs_set", "exact.oracle")
            yield self
        finally:
            while self._restore:
                module, attr, original = self._restore.pop()
                setattr(module, attr, original)

    # -- after-hooks: run outside the wrapped call's span

    def _recheck(self, cert, x, others, tol=DEFAULT_TOL):
        with self.span("bench.recheck"):
            ok = verify_certificate(cert, x, others, tol)
        self.rechecked += 1
        self.recheck_fail += not ok

    def _count_pivots(self, result, c, A, *_args, **_kwargs):
        self.pivots.append(result.pivots)
        self.columns.append(np.shape(A)[1])

    def _count_coords(self, cloud, *_args, **_kwargs):
        self.coords += cloud.points.size

    def _count_records(self, records, *_args, **_kwargs):
        self.cells += len(records)
        self.trials += sum(rec.trials for rec in records)
        self.lp_calls += sum(rec.lp_calls for rec in records)
        self.lp_skipped += sum(rec.lp_skipped_by_fisher for rec in records)

    # -- per-layer metrics

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def stalls(self) -> int:
        return sum(1 for s in self.spans
                   if s[0] == "separability.lp_point" and s[5] == "LPStallError")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric this tracer can derive, as name -> (value, unit)."""
        stats = by_name(self.spans)

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def total_s(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        def pct(values, q):
            return float(np.percentile(values, q)) if values else 0.0

        solve_ms = self.durations_ms("lp.solve")
        exact_ms = self.durations_ms("exact.oracle")
        screened = self.lp_calls + self.lp_skipped
        return {
            "geometry.sample_layer.calls": (calls("geometry.sample_layer"), "count"),
            "geometry.sample_layer.s": (total_s("geometry.sample_layer"), "s"),
            "geometry.sample_layer.ns_per_coord": (
                1e9 * total_s("geometry.sample_layer") / self.coords if self.coords else 0.0,
                "ns"),
            "separability.fisher.calls": (calls("separability.fisher"), "count"),
            "separability.fisher.s": (total_s("separability.fisher"), "s"),
            "separability.fisher.settled_frac": (
                self.lp_skipped / screened if screened else 0.0, "frac"),
            "separability.linear_set.self_s": (self_s("separability.linear_set"), "s"),
            "separability.lp_point.self_s": (self_s("separability.lp_point"), "s"),
            "separability.cert_recheck_fail": (self.recheck_fail, "count"),
            "lp.solve.calls": (calls("lp.solve"), "count"),
            "lp.solve.s": (total_s("lp.solve"), "s"),
            "lp.solve.ms_p50": (pct(solve_ms, 50), "ms"),
            "lp.solve.ms_p90": (pct(solve_ms, 90), "ms"),
            "lp.pivots.total": (sum(self.pivots), "count"),
            "lp.pivots.per_solve_p50": (pct(self.pivots, 50), "count"),
            "lp.pivots.max": (max(self.pivots, default=0), "count"),
            "lp.columns.mean": (float(np.mean(self.columns)) if self.columns else 0.0, "count"),
            "lp.stalls": (self.stalls(), "count"),
            "exact.calls": (calls("exact.oracle"), "count"),
            "exact.s": (total_s("exact.oracle"), "s"),
            "exact.ms_p50": (pct(exact_ms, 50), "ms"),
            "exact.ms_p90": (pct(exact_ms, 90), "ms"),
            "bounds.calls": (calls("bounds"), "count"),
            "bounds.s": (total_s("bounds"), "s"),
            "experiments.cells": (self.cells, "count"),
            "experiments.trials": (self.trials, "count"),
            "experiments.self_s": (self_s("experiments.run_experiment"), "s"),
            "cli.self_s": (self_s("cli.main") + self_s("cli.emit_records"), "s"),
        }
