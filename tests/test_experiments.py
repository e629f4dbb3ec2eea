"""Monte Carlo runner: Wilson intervals, determinism, dominance, accounting."""

import dataclasses
import math
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest
from oracles import hull2d_vertex_count, mp_wilson

from layersep import experiments
from layersep.errors import DomainError, LPStallError
from layersep.experiments import (
    CHECK_KINDS,
    ExperimentPlan,
    frequency_interval,
    run_experiment,
)
from layersep.geometry import LayerSpec, sample_layer


def half_width(record):
    return 0.5 * (record.ci_linear_high - record.ci_linear_low)


# ---------------------------------------------------------------------------
# Wilson interval


def test_wilson_boundary_cases():
    low, high = frequency_interval(0, 60)
    assert low == 0.0
    assert 0.0 < high < 1.0
    low, high = frequency_interval(60, 60)
    assert high == 1.0
    assert 0.0 < low < 1.0


def test_wilson_against_oracle():
    for successes, trials in ((30, 60), (1, 7), (29, 60), (59, 60), (500, 1000), (3, 3), (0, 1)):
        got = frequency_interval(successes, trials)
        want = mp_wilson(successes, trials)
        for g, w in zip(got, want):
            assert abs(g - min(1.0, max(0.0, float(w)))) < 1e-12, (successes, trials)
        p_hat = successes / trials
        assert got[0] <= p_hat <= got[1]
        assert 0.0 <= got[0] <= got[1] <= 1.0


def test_wilson_half_sample_values():
    # Direct Wilson formula at z = 1.959963984540054; frozen from the oracle.
    low, high = frequency_interval(30, 60)
    assert abs(low - 0.3773502424155577) < 1e-12
    assert abs(high - 0.6226497575844423) < 1e-12


def test_wilson_validation():
    with pytest.raises(DomainError):
        frequency_interval(0, 0)
    with pytest.raises(DomainError):
        frequency_interval(-1, 10)
    with pytest.raises(DomainError):
        frequency_interval(11, 10)
    with pytest.raises(DomainError):
        frequency_interval(0.5, 10)


# ---------------------------------------------------------------------------
# plan validation


def base_plan(**overrides):
    fields = dict(
        mode="point_level",
        d_values=(3, 8),
        r_values=(0.0, 0.5),
        n=20,
        trials=10,
        master_seed=20240817,
    )
    fields.update(overrides)
    return ExperimentPlan(**fields)


def test_plan_validation():
    with pytest.raises(DomainError):
        base_plan(mode="pointwise")
    with pytest.raises(DomainError):
        base_plan(d_values=())
    with pytest.raises(DomainError):
        base_plan(r_values=(0.2, 1.0))
    with pytest.raises(DomainError):
        base_plan(n=0)
    with pytest.raises(DomainError):
        base_plan(trials=0)
    with pytest.raises(DomainError):
        base_plan(master_seed=-1)
    with pytest.raises(DomainError):
        base_plan(master_seed=2**64)
    with pytest.raises(DomainError):
        base_plan(tol=0.0)
    with pytest.raises(DomainError):
        base_plan(check_kinds=())
    with pytest.raises(DomainError):
        base_plan(check_kinds=("linear", "euclidean"))
    with pytest.raises(DomainError):
        base_plan(workers=0)
    canonical = base_plan(check_kinds=("fisher", "linear"))
    assert canonical.check_kinds == CHECK_KINDS


def test_plan_grids_sorted_without_repeats():
    # cells run in the order they are emitted, and a repeated entry runs once
    plan = base_plan(d_values=(8, 3, 8), r_values=(0.5, 0.0, 0.5, -0.0))
    assert plan.d_values == (3, 8)
    assert plan.r_values == (0.0, 0.5)
    assert [(rec.r, rec.d) for rec in run_experiment(plan)] == [
        (0.0, 3), (0.0, 8), (0.5, 3), (0.5, 8)
    ]


# ---------------------------------------------------------------------------
# point-level runs


def test_point_level_high_dimension_always_separable():
    plan = base_plan(d_values=(30,), r_values=(0.5,), n=100, trials=50)
    (record,) = run_experiment(plan)
    assert record.freq_linear == 1.0
    assert record.bound_linear == 1.0 - 100.0 / 2.0**30
    assert record.freq_linear >= record.bound_linear - half_width(record)
    assert record.lp_calls + record.lp_skipped_by_fisher == plan.trials


def test_point_level_one_dimensional():
    # On a segment the query point must be an extreme of the combined sample;
    # with 50 cloud points that is rare but not impossible.
    plan = base_plan(d_values=(1,), r_values=(0.0,), n=50, trials=50)
    (record,) = run_experiment(plan)
    assert record.bound_linear == 0.0  # 1 - 50/2 clamps
    assert record.freq_fisher <= record.freq_linear <= 0.2
    assert record.freq_linear >= record.bound_linear - half_width(record)


def test_point_level_dominance_accounting_and_brackets():
    plan = base_plan(trials=30)
    records = run_experiment(plan)
    assert len(records) == 4  # 2 dims x 2 radii
    for record in records:
        assert record.freq_fisher <= record.freq_linear
        assert record.ci_linear_low <= record.freq_linear <= record.ci_linear_high
        assert record.ci_fisher_low <= record.freq_fisher <= record.ci_fisher_high
        assert record.lp_calls + record.lp_skipped_by_fisher == plan.trials
        assert record.wall_time_seconds >= 0.0
        assert record.n == plan.n and record.trials == plan.trials


# ---------------------------------------------------------------------------
# set-level runs


def test_set_level_high_dimension_all_vertices():
    plan = base_plan(mode="set_level", d_values=(40,), r_values=(0.0,), n=1000, trials=30)
    (record,) = run_experiment(plan)
    assert record.freq_linear == 1.0
    assert record.bound_linear == 1.0 - 1000.0 * 999.0 / 2.0**40
    assert record.freq_linear >= record.bound_linear - half_width(record)


def test_set_level_plane_never_all_vertices():
    plan = base_plan(mode="set_level", d_values=(2,), r_values=(0.0,), n=1000, trials=30)
    (record,) = run_experiment(plan)
    assert record.freq_linear == 0.0
    assert record.freq_fisher == 0.0
    assert record.lp_calls + record.lp_skipped_by_fisher >= plan.trials
    # Cross-check the geometry: a uniform disk sample of this size has far
    # fewer hull vertices than points.
    cloud = sample_layer(LayerSpec(d=2, r=0.0), 1000, 20240817)
    assert hull2d_vertex_count(cloud.points) <= 200


def test_check_kind_subsets():
    linear_only = run_experiment(base_plan(d_values=(6,), r_values=(0.3,), check_kinds=("linear",)))
    assert math.isnan(linear_only[0].freq_fisher)
    assert not math.isnan(linear_only[0].freq_linear)
    assert linear_only[0].lp_calls + linear_only[0].lp_skipped_by_fisher == 10

    fisher_only = run_experiment(base_plan(d_values=(6,), r_values=(0.3,), check_kinds=("fisher",)))
    assert math.isnan(fisher_only[0].freq_linear)
    assert not math.isnan(fisher_only[0].freq_fisher)
    assert fisher_only[0].lp_calls == 0


# ---------------------------------------------------------------------------
# determinism


def test_identical_plans_identical_records():
    plan_a = base_plan(deterministic_timing=True)
    plan_b = base_plan(deterministic_timing=True)
    assert run_experiment(plan_a) == run_experiment(plan_b)


def test_worker_count_does_not_change_records():
    serial = base_plan(mode="set_level", n=60, trials=16, deterministic_timing=True)
    threaded = base_plan(
        mode="set_level", n=60, trials=16, deterministic_timing=True, workers=4
    )
    records_serial = run_experiment(serial)
    records_threaded = run_experiment(threaded)
    assert records_serial == records_threaded

    point_serial = base_plan(n=30, trials=12, deterministic_timing=True)
    point_threaded = base_plan(n=30, trials=12, deterministic_timing=True, workers=3)
    assert run_experiment(point_serial) == run_experiment(point_threaded)

    # one pool serves the whole plan, so trials of neighbouring cells run side
    # by side: every cell in parallel with one trial each, and 5 trials on 2
    # workers, where a cell's last trial shares the pool with the next cell's
    for trials, workers in ((1, 3), (5, 2)):
        for mode in ("point_level", "set_level"):
            plan = base_plan(mode=mode, d_values=(2, 3, 5, 8), n=30, trials=trials,
                             deterministic_timing=True)
            threaded = dataclasses.replace(plan, workers=workers)
            assert run_experiment(plan) == run_experiment(threaded), (trials, workers, mode)


def test_failed_trial_cancels_the_jobs_not_started(monkeypatch):
    # a stall must end a full-size run at once, not after the rest of the plan
    plan = base_plan(mode="set_level", d_values=range(1, 21), trials=4, workers=2)
    failing = (plan.r_values[0], plan.d_values[2])  # the third cell
    started = []

    def trial(plan, layer, trial_idx):
        started.append((layer.r, layer.d))
        if (layer.r, layer.d) == failing:
            raise LPStallError("stalled")
        time.sleep(0.01)
        return True, True, 0, 1

    monkeypatch.setattr(experiments, "_set_trial", trial)
    with pytest.raises(LPStallError):
        run_experiment(plan)
    total = len(plan.d_values) * len(plan.r_values) * plan.trials
    assert total >= 160 and failing in started
    assert len(started) < total / 2, f"{len(started)} of {total} trials started"


def test_wall_time_sums_the_trial_durations(monkeypatch):
    # trials of a cell overlap each other and the next cell's, so a cell's
    # time is the sum of its trials' durations, each timed in its thread
    def trial(plan, layer, trial_idx):
        time.sleep(0.02)
        return True, True, 0, 1

    monkeypatch.setattr(experiments, "_set_trial", trial)
    plan = base_plan(mode="set_level", r_values=(0.5,), trials=4, workers=2)
    records = run_experiment(plan)
    assert len(records) == 2
    assert all(record.wall_time_seconds >= 0.075 for record in records)
    quiet = run_experiment(dataclasses.replace(plan, deterministic_timing=True))
    assert [record.wall_time_seconds for record in quiet] == [0.0, 0.0]


def test_pool_holds_a_bounded_window_of_jobs(monkeypatch):
    # a full-size set plan has 19,200 jobs; the runner submits a few per
    # worker ahead of the oldest outcome it has not yet consumed; at n = 20,000
    # every cell reaches POOL_MIN_COORDS, so every job goes to the pool
    plan = base_plan(mode="set_level", d_values=range(1, 81), r_values=(0.0, 0.5, 0.8, 0.9),
                     n=20_000, trials=60, workers=2)
    held, peak, submitted = set(), [0], [0]
    result = Future.result

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            held.add(future)
            peak[0] = max(peak[0], len(held))
            submitted[0] += 1
            return future

    def consumed(future, timeout=None):
        held.discard(future)
        return result(future, timeout)

    monkeypatch.setattr(experiments, "_set_trial", lambda plan, layer, trial_idx: (1, 1, 0, 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(Future, "result", consumed)
    records = run_experiment(plan)
    assert submitted[0] == 19_200 and len(records) == 320
    assert all(record.freq_linear == 1.0 for record in records)
    assert peak[0] == experiments.JOBS_PER_WORKER * plan.workers


def test_pool_is_no_wider_than_the_usable_cores(monkeypatch):
    # above the core count threads only contend for the GIL; one core runs
    # the plan serially, with the records of any worker count
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built on one core")

    plan = base_plan(mode="set_level", n=30, trials=4, deterministic_timing=True)
    serial = run_experiment(plan)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
    assert run_experiment(dataclasses.replace(plan, workers=4)) == serial


# ---------------------------------------------------------------------------
# the pool threshold: cells with n·d >= POOL_MIN_COORDS go to the pool, the
# rest run on the calling thread with no pooled job in flight


def straddling_plan(mode, **overrides):
    # n·d of 4,000, 18,000, 20,000 and 24,000 within each r
    fields = dict(mode=mode, d_values=(2, 9, 10, 12), n=2000, trials=3,
                  deterministic_timing=True)
    fields.update(overrides)
    return base_plan(**fields)


def counting_pool(submitted):
    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            layer, _ = args[0]
            submitted.append((layer.r, layer.d))
            return super().submit(fn, *args)

    return CountingPool


@pytest.mark.parametrize("mode", ["point_level", "set_level"])
def test_cells_straddling_the_threshold_give_the_serial_records(monkeypatch, mode):
    serial = run_experiment(straddling_plan(mode))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for workers in (2, 3):
        submitted = []
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", counting_pool(submitted))
        plan = straddling_plan(mode, workers=workers)
        assert run_experiment(plan) == serial, workers
        pooled = [(r, d) for r in plan.r_values for d in (10, 12) for _ in range(plan.trials)]
        assert submitted == pooled, workers


@pytest.mark.parametrize("n, d_values, pooled_d", [(2857, (7, 8), 8), (2000, (9, 10), 10)])
def test_pool_threshold_is_inclusive(monkeypatch, n, d_values, pooled_d):
    # n·d = 19,999 runs on the calling thread, and 20,000 goes to the pool
    assert 2857 * 7 == experiments.POOL_MIN_COORDS - 1 == 2000 * 10 - 1
    submitted = []
    monkeypatch.setattr(experiments, "_set_trial", lambda plan, layer, trial_idx: (1, 1, 0, 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", counting_pool(submitted))
    plan = base_plan(mode="set_level", d_values=d_values, r_values=(0.5,), n=n, trials=4,
                     workers=2)
    assert len(run_experiment(plan)) == 2
    assert submitted == [(0.5, pooled_d)] * 4


@pytest.mark.parametrize("d_values, cores", [((2, 9), {0, 1}), ((2, 9, 10, 12), {0})])
def test_no_pool_without_a_large_cell_or_a_second_core(monkeypatch, d_values, cores):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built")

    plan = straddling_plan("set_level", d_values=d_values, trials=2)
    serial = run_experiment(plan)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
    assert run_experiment(dataclasses.replace(plan, workers=2)) == serial


def test_wall_time_sums_pooled_trial_durations(monkeypatch):
    # pooled trials of a cell overlap each other and the next cell's
    def trial(plan, layer, trial_idx):
        time.sleep(0.02)
        return True, True, 0, 1

    monkeypatch.setattr(experiments, "_set_trial", trial)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    plan = base_plan(mode="set_level", r_values=(0.5,), n=20_000, trials=4, workers=2)
    records = run_experiment(plan)
    assert len(records) == 2
    assert all(record.wall_time_seconds >= 0.075 for record in records)


def test_inline_trials_run_with_no_pooled_job_in_flight(monkeypatch):
    lock, running, overlaps, max_pooled = threading.Lock(), set(), [], [0]
    caller = threading.get_ident()

    def trial(plan, layer, trial_idx):
        job = (layer.r, layer.d, trial_idx)
        inline = plan.n * layer.d < experiments.POOL_MIN_COORDS
        with lock:
            running.add(job)
            if inline and (running != {job} or threading.get_ident() != caller):
                overlaps.append((job, sorted(running)))
            if not inline:
                max_pooled[0] = max(max_pooled[0], len(running))
        time.sleep(0.003)
        with lock:
            running.discard(job)
        return True, True, 0, 1

    monkeypatch.setattr(experiments, "_set_trial", trial)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    records = run_experiment(straddling_plan("set_level", trials=6, workers=2))
    assert len(records) == 8
    assert overlaps == []
    assert max_pooled[0] == 2  # pooled trials do run side by side


def test_small_cells_run_before_the_pool_starts(monkeypatch):
    # a small cell opens each r of the plan; running every small cell first
    # means the pool never drains between cells, and records keep emit order
    started = []

    def trial(plan, layer, trial_idx):
        started.append((layer.r, layer.d, trial_idx))
        return True, True, 0, 1

    monkeypatch.setattr(experiments, "_set_trial", trial)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    plan = straddling_plan("set_level", trials=2, workers=2)
    records = run_experiment(plan)
    assert [(rec.r, rec.d) for rec in records] == [
        (r, d) for r in plan.r_values for d in plan.d_values]
    small = [(r, d, t) for r in plan.r_values for d in (2, 9) for t in range(2)]
    large = [(r, d, t) for r in plan.r_values for d in (10, 12) for t in range(2)]
    assert started[:len(small)] == small
    assert sorted(started[len(small):]) == large


def test_failed_pooled_trial_cancels_the_jobs_not_started(monkeypatch):
    plan = base_plan(mode="set_level", d_values=range(1, 21), n=20_000, trials=4, workers=2)
    failing = (plan.r_values[0], plan.d_values[2])  # the third cell, in the pool
    started = []

    def trial(plan, layer, trial_idx):
        started.append((layer.r, layer.d))
        if (layer.r, layer.d) == failing:
            raise LPStallError("stalled")
        time.sleep(0.01)
        return True, True, 0, 1

    monkeypatch.setattr(experiments, "_set_trial", trial)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(LPStallError):
        run_experiment(plan)
    total = len(plan.d_values) * len(plan.r_values) * plan.trials
    assert total >= 160 and failing in started
    assert len(started) < total / 2, f"{len(started)} of {total} trials started"
