"""Seeded Monte Carlo grids: empirical separability frequencies over (d, r, n)
cells, with Wilson intervals and the matching theoretical lower bounds.

Determinism contract: every trial draws from its own RNG stream keyed by
(master_seed, mode, d, bits(r), n, trial index), so results are identical for
any worker count and any execution order.  Wall-clock fields are the only
nondeterministic output, and ``deterministic_timing`` zeroes them for
byte-identical reruns.
"""

from __future__ import annotations

import math
import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bounds import BoundQuery, p1_fisher_lb, p1_linear_lb, p_fisher_lb, p_linear_lb
from .errors import DomainError, check_int, check_real
from .geometry import LayerSpec, sample_layer
from .separability import (
    DEFAULT_TOL,
    fisher_point_vs_set,
    fisher_separable_set,
    linearly_separable_set,
    lp_point_vs_set,
)

__all__ = [
    "WILSON_Z",
    "MODES",
    "CHECK_KINDS",
    "ExperimentPlan",
    "ExperimentRecord",
    "frequency_interval",
    "run_experiment",
]

WILSON_Z = 1.959963984540054  # standard normal 97.5% quantile

MODES = ("point_level", "set_level")
CHECK_KINDS = ("linear", "fisher")
JOBS_PER_WORKER = 8  # jobs in the pool per worker, from the oldest not yet consumed
POOL_MIN_COORDS = 20_000  # a cell whose trials draw fewer coordinates (n·d) skips the pool


@dataclass(frozen=True)
class ExperimentPlan:
    """Validated description of one Monte Carlo sweep.

    Attributes:
        mode: 'point_level' (one extra point vs an n-cloud) or 'set_level'
            (the whole n-cloud at once).
        d_values: dimensions to sweep, stored sorted without repeats.
        r_values: inner radii to sweep, stored sorted without repeats.
        n: cloud size per trial.
        trials: trials per (d, r) cell.
        master_seed: 64-bit root of every RNG stream in the run.
        tol: LP margin tolerance passed through to the linear checks.
        check_kinds: which verdicts to record, subset of {'linear', 'fisher'}.
        workers: threads, at most the usable cores; cells with
            n·d < POOL_MIN_COORDS run on the calling thread.  Any value yields
            identical records.
        deterministic_timing: report wall_time_seconds as 0.0 so repeated runs
            serialize byte-identically.
    """

    mode: str
    d_values: tuple[int, ...]
    r_values: tuple[float, ...]
    n: int
    trials: int
    master_seed: int
    tol: float = DEFAULT_TOL
    check_kinds: tuple[str, ...] = CHECK_KINDS
    workers: int = 1
    deterministic_timing: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        # every (d, r) cell is a valid LayerSpec exactly when every d and every r is
        # stored sorted and without repeats, so cells run in the order they are emitted
        d_values = tuple(sorted({LayerSpec(d=d, r=0.0).d for d in self.d_values}))
        r_values = tuple(sorted({LayerSpec(d=1, r=r).r for r in self.r_values}))
        if not d_values or not r_values:
            raise DomainError("d and r grids must be non-empty")
        object.__setattr__(self, "d_values", d_values)
        object.__setattr__(self, "r_values", r_values)
        object.__setattr__(self, "n", check_int(self.n, "n", 1))
        object.__setattr__(self, "trials", check_int(self.trials, "trials", 1))
        seed = check_int(self.master_seed, "master_seed", 0, 2**64)
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "tol", check_real(self.tol, "tol", 0.0, math.inf))
        kinds = tuple(k for k in CHECK_KINDS if k in tuple(self.check_kinds))
        if not kinds or set(self.check_kinds) - set(CHECK_KINDS):
            raise DomainError(
                f"check_kinds must be a non-empty subset of {CHECK_KINDS}, got {self.check_kinds!r}"
            )
        object.__setattr__(self, "check_kinds", kinds)
        object.__setattr__(self, "workers", check_int(self.workers, "workers", 1))


@dataclass(frozen=True)
class ExperimentRecord:
    """One grid cell's results: frequencies, Wilson intervals, bounds,
    accounting.  The fields, in order, are the columns of the record CSV;
    ``wall_time_seconds`` sums the cell's trial durations, each timed in its thread."""

    d: int
    r: float
    n: int
    trials: int
    freq_linear: float
    ci_linear_low: float
    ci_linear_high: float
    freq_fisher: float
    ci_fisher_low: float
    ci_fisher_high: float
    bound_linear: float
    bound_fisher: float
    wall_time_seconds: float
    lp_calls: int
    lp_skipped_by_fisher: int


def frequency_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial frequency.

    The boundary cases pin exactly: zero successes give low = 0.0 and full
    successes give high = 1.0.
    """
    trials = check_int(trials, "trials", 1)
    successes = check_int(successes, "successes", 0, trials + 1)
    p_hat = successes / trials
    z_sq = WILSON_Z * WILSON_Z
    den = 1.0 + z_sq / trials
    center = (p_hat + z_sq / (2.0 * trials)) / den
    half = (WILSON_Z / den) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z_sq / (4.0 * trials * trials)
    )
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _trial_seed(plan: ExperimentPlan, d: int, r: float, trial_idx: int) -> int:
    """Independent 64-bit seed per (seed, mode, cell, trial); r enters by its
    bits so distinct radii never collide after float formatting."""
    r_bits = struct.unpack("<Q", struct.pack("<d", r))[0]
    mode_tag = MODES.index(plan.mode)
    seq = np.random.SeedSequence((plan.master_seed, mode_tag, d, r_bits, plan.n, trial_idx))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _point_trial(plan, layer, trial_idx):
    cloud = sample_layer(layer, plan.n + 1, _trial_seed(plan, layer.d, layer.r, trial_idx))
    query = cloud.points[-1]
    others = cloud.points[:-1]
    # Fisher is always evaluated: it is the verdict for one kind and the
    # pre-screen for the other.
    fisher_ok = fisher_point_vs_set(query, others).separable
    linear_ok = False
    lp_calls = lp_skipped = 0
    if "linear" in plan.check_kinds:
        if fisher_ok:
            linear_ok, lp_skipped = True, 1
        else:
            lp_calls = 1
            linear_ok = lp_point_vs_set(query, others, tol=plan.tol).separable
    return linear_ok, fisher_ok, lp_calls, lp_skipped


def _set_trial(plan, layer, trial_idx):
    points = sample_layer(layer, plan.n, _trial_seed(plan, layer.d, layer.r, trial_idx)).points
    linear = "linear" in plan.check_kinds
    report = (linearly_separable_set(points, tol=plan.tol, verdict_only=True) if linear
              else fisher_separable_set(points, verdict_only=True))
    # one Gram pass serves both kinds: the flags give the Fisher verdict (SetReport)
    fisher_ok = "fisher" in plan.check_kinds and bool(report.flags.all())
    return linear and report.all_separable, fisher_ok, report.lp_calls, report.lp_skipped_by_fisher


def _frequency(plan: ExperimentPlan, kind: str, hits: int) -> tuple[float, float, float]:
    """The hit frequency and interval ends, or NaNs when the plan does not record ``kind``."""
    if kind not in plan.check_kinds:
        return math.nan, math.nan, math.nan
    return (hits / plan.trials, *frequency_interval(hits, plan.trials))


def _cell_record(plan: ExperimentPlan, layer: LayerSpec, outcomes: list) -> ExperimentRecord:
    """Fold one cell's timed trial outcomes and its two bounds into its record."""
    linear, fisher, lp_calls, lp_skipped, seconds = map(sum, zip(*outcomes))
    query = BoundQuery(d=layer.d, r=layer.r, n=plan.n)
    point = plan.mode == "point_level"
    bounds = (p1_linear_lb, p1_fisher_lb) if point else (p_linear_lb, p_fisher_lb)
    return ExperimentRecord(
        layer.d, layer.r, plan.n, plan.trials,
        *_frequency(plan, "linear", linear), *_frequency(plan, "fisher", fisher),
        *(bound(query).value for bound in bounds),
        0.0 if plan.deterministic_timing else seconds, lp_calls, lp_skipped,
    )


def run_experiment(plan: ExperimentPlan) -> list[ExperimentRecord]:
    """Run every (d, r) cell of the plan; the single entry point used by the CLI.

    point_level: one extra point against an n-cloud per trial; estimates the
    chance a new sample is separable from what is already there.
    set_level: whole-cloud separability per trial; estimates the chance every
    point of the sample is a hull vertex (linear) or Fisher-separable from the
    rest.
    """
    trial_fn = _point_trial if plan.mode == "point_level" else _set_trial
    cells = [LayerSpec(d=d, r=r) for r in plan.r_values for d in plan.d_values]

    def timed_trial(job):
        start = time.perf_counter()
        return (*trial_fn(plan, *job), time.perf_counter() - start)

    # a cell below POOL_MIN_COORDS runs on the calling thread, alone: its trials are
    # chains of small NumPy calls, and a second thread taking the GIL at each one
    # costs more than it gives.  Those cells all run before the pool starts, so it
    # never has to drain between cells; records still come in emit order
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    workers = min(plan.workers, len(affinity(0)) if affinity else os.cpu_count() or 1)
    pooled = [workers > 1 and plan.n * layer.d >= POOL_MIN_COORDS for layer in cells]
    inline = {layer: [timed_trial((layer, t)) for t in range(plan.trials)]
              for layer, wide in zip(cells, pooled) if not wide}
    # one pool for the other cells, no wider than the usable cores: workers pull the
    # next (cell, trial) job with no barrier at cell ends; outcomes come in job order
    jobs = ((layer, t) for layer, wide in zip(cells, pooled) if wide for t in range(plan.trials))
    pool = ThreadPoolExecutor(max_workers=workers) if any(pooled) else None
    try:
        # without a pool there are no jobs, and the map never calls pool.submit
        outcomes = _windowed_map(pool, timed_trial, jobs, JOBS_PER_WORKER * workers)
        return [_cell_record(plan, layer, inline[layer] if layer in inline
                             else list(islice(outcomes, plan.trials))) for layer in cells]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # after an error, no job not yet started runs


def _windowed_map(pool, fn, jobs, window):
    """``pool.map(fn, jobs)`` holding at most ``window`` submitted jobs not yet consumed."""
    pending = [pool.submit(fn, job) for job in islice(jobs, window)]
    while pending:
        outcome = pending.pop(0).result()
        pending.extend(pool.submit(fn, job) for job in islice(jobs, 1))
        yield outcome
