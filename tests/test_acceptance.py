"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Every criterion pins its tolerances as constants next to the test.  Verdict
lines are written to the real stdout so they appear in the console log even
when pytest captures output.
"""

import math
import sys
import time

import numpy as np
from mpmath import mp
from oracles import (
    mp_eq1_admissible,
    mp_n1_fisher,
    mp_n1_linear,
    mp_n_fisher,
    mp_n_linear,
    mp_p1_fisher,
    mp_p1_linear,
    mp_p_fisher,
    mp_p_linear,
    radial_cdf,
)

from layersep.asymptotics import (
    CRITICAL_RADII,
    eq1_asymptotic,
    fisher_gap_asymptotic,
    fisher_gap_exact,
    fisher_ratio_f_over_g,
    gap_ratio_linear_vs_fisher,
    layer_count_ratio,
)
from layersep.bounds import COUNT_BOUND_IDS, PROBABILITY_BOUND_IDS, evaluate_bound
from layersep.cli import main as cli_main
from layersep.exact import exact_point_vs_set
from layersep.experiments import ExperimentPlan, run_experiment
from layersep.geometry import LayerSpec, sample_layer
from layersep.separability import fisher_point_vs_set, lp_point_vs_set

SEED = 20260816


VERDICTS: list[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    # One verdict line per criterion.  The conftest terminal-summary hook
    # echoes VERDICTS after the run (fd-level capture would swallow a plain
    # print); the direct write below shows the line live under -s.
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {detail}"


def _half_width(rec) -> float:
    return 0.5 * (rec.ci_linear_high - rec.ci_linear_low)


# criterion 1 ---------------------------------------------------------------
C1_CLOUDS = 1040
C1_TIME_LIMIT = 120.0


def test_criterion_01_fisher_implies_linear_at_scale():
    """Point-level implication: no cloud may be Fisher-separable yet fail the LP."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    violations = 0
    fisher_hits = 0
    for _ in range(C1_CLOUDS):
        d = int(rng.integers(2, 21))
        n = int(rng.integers(2, 51))
        r = float(rng.choice((0.0, 0.5, 0.9)))
        cloud = sample_layer(LayerSpec(d=d, r=r), n + 1, int(rng.integers(2**63)))
        x, others = cloud.points[-1], cloud.points[:-1]
        if fisher_point_vs_set(x, others).separable:
            fisher_hits += 1
            if not lp_point_vs_set(x, others).separable:
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        violations == 0 and elapsed < C1_TIME_LIMIT,
        f"{violations} implication violations over {C1_CLOUDS} clouds "
        f"({fisher_hits} Fisher-separable) in {elapsed:.1f}s",
    )


# criterion 2 ---------------------------------------------------------------
C2_INSTANCES = 520
C2_DUPLICATE_QUERIES = 20
C2_TOL = 1e-9
C2_TIME_LIMIT = 60.0


def test_criterion_02_lp_agrees_with_exact_oracle():
    """LP verdicts equal the exact rational hull-membership oracle on small instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    disagreements = 0
    for i in range(C2_INSTANCES):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 13))
        r = float(rng.choice((0.0, 0.5)))
        cloud = sample_layer(LayerSpec(d=d, r=r), n + 1, int(rng.integers(2**63)))
        x, others = cloud.points[-1], cloud.points[:-1]
        if i < C2_DUPLICATE_QUERIES:
            x = others[int(rng.integers(n))].copy()  # query equals a cloud point
        lp_verdict = lp_point_vs_set(x, others, tol=C2_TOL).separable
        exact_verdict = exact_point_vs_set(x, others).separable
        if lp_verdict != exact_verdict:
            disagreements += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        disagreements == 0 and elapsed < C2_TIME_LIMIT,
        f"{disagreements} LP/exact disagreements over {C2_INSTANCES} instances "
        f"in {elapsed:.1f}s",
    )


# criterion 3 ---------------------------------------------------------------
C3_TIME_LIMIT = 600.0


def test_criterion_03_point_level_frequency_meets_bound():
    """d=20, r=0.5, n=10000, 200 trials: freq_linear >= bound - Wilson half-width."""
    start = time.perf_counter()
    plan = ExperimentPlan(mode="point_level", d_values=(20,), r_values=(0.5,),
                          n=10000, trials=200, master_seed=SEED, workers=4,
                          deterministic_timing=True)
    (rec,) = run_experiment(plan)
    elapsed = time.perf_counter() - start
    floor = rec.bound_linear - _half_width(rec)
    _report(
        3,
        rec.freq_linear >= floor and elapsed < C3_TIME_LIMIT,
        f"freq_linear={rec.freq_linear:.4f} vs bound-margin={floor:.4f} "
        f"(bound={rec.bound_linear:.6f}) in {elapsed:.1f}s",
    )


# criterion 4 ---------------------------------------------------------------
C4_TIME_LIMIT = 900.0


def test_criterion_04_set_level_frequency_meets_bound():
    """d=35, r=0, n=1000, 60 trials: set-level freq_linear >= bound - margin."""
    start = time.perf_counter()
    plan = ExperimentPlan(mode="set_level", d_values=(35,), r_values=(0.0,),
                          n=1000, trials=60, master_seed=SEED, workers=4,
                          deterministic_timing=True)
    (rec,) = run_experiment(plan)
    elapsed = time.perf_counter() - start
    floor = rec.bound_linear - _half_width(rec)
    _report(
        4,
        rec.freq_linear >= floor and elapsed < C4_TIME_LIMIT,
        f"freq_linear={rec.freq_linear:.4f} ({int(rec.freq_linear * 60)}/60) vs "
        f"bound-margin={floor:.4f} in {elapsed:.1f}s",
    )


# criterion 5 ---------------------------------------------------------------
C5_TUPLES = 100
C5_REL_TOL = 1e-10
C5_TINY = 1e-280  # below this both sides count as underflowed
C5_TIME_LIMIT = 60.0

_PROB_ORACLES = {
    "p1_linear_lb": lambda d, r, n, theta: mp_p1_linear(d, n),
    "p_linear_lb": lambda d, r, n, theta: mp_p_linear(d, n),
    "p1_fisher_lb": lambda d, r, n, theta: mp_p1_fisher(d, r, n),
    "p_fisher_lb": lambda d, r, n, theta: mp_p_fisher(d, r, n),
}
_COUNT_ORACLES = {
    "eq1_n_fisher": mp_eq1_admissible,
    "n1_fisher": mp_n1_fisher,
    "n_fisher": mp_n_fisher,
    "n1_linear": lambda d, r, theta: mp_n1_linear(d, theta),
    "n_linear": lambda d, r, theta: mp_n_linear(d, theta),
}


def _p_fisher_inner_sign(d, r, n) -> int:
    with mp.workdps(60):
        inner = 1 - (mp.mpf(n) - 1) * (1 - mp.mpf(r) ** 2) ** (mp.mpf(d) / 2) / 2
        return 1 if inner > 0 else -1


def _check_probability(bound_id, d, r, n) -> list:
    res = evaluate_bound(bound_id, d=d, r=r, n=n)
    if bound_id == "p_fisher_lb" and _p_fisher_inner_sign(d, r, n) < 0:
        # vacuous bound: a nonpositive per-point factor clamps to 0, never to
        # the even power of its absolute value
        ok = res.value == 0.0
        return [] if ok else [f"{bound_id}(d={d},r={r},n={n}): {res.value} vs vacuous 0"]
    with mp.workdps(60):
        want = float(min(1, max(0, _PROB_ORACLES[bound_id](d, r, n, None))))
    if want < C5_TINY:
        ok = res.value < C5_TINY
    else:
        ok = abs(res.value - want) / want <= C5_REL_TOL
    return [] if ok else [f"{bound_id}(d={d},r={r},n={n}): {res.value} vs {want}"]


def _check_count(bound_id, d, r, theta) -> list:
    bad = []
    res = evaluate_bound(bound_id, d=d, r=r, theta=theta)
    with mp.workdps(60):
        thr = _COUNT_ORACLES[bound_id](d, r, theta)
        want = float(thr)
        if want == math.inf:
            if not (res.value == math.inf and res.max_admissible_n is None):
                bad.append(f"{bound_id}(d={d},r={r},theta={theta}): expected overflow")
            return bad
        if want < C5_TINY:
            if not res.value < C5_TINY:
                bad.append(f"{bound_id}(d={d},r={r},theta={theta}): expected underflow")
            return bad
        if abs(res.value - want) / want > C5_REL_TOL:
            bad.append(f"{bound_id}(d={d},r={r},theta={theta}): {res.value} vs {want}")
        floor_mp = mp.floor(thr)
        oracle_n = max(int(floor_mp) - 1 if thr == floor_mp else int(floor_mp), 0)
        boundary_gap = float(abs(thr - mp.nint(thr)) / max(1, abs(thr)))
    got_n = res.max_admissible_n
    if got_n == oracle_n:
        n_ok = True
    elif abs(got_n - oracle_n) <= 1 and boundary_gap < 1e-9:
        n_ok = True  # the strict floor is not float-decidable at a boundary
    else:
        n_ok = oracle_n > 0 and abs(got_n - oracle_n) / oracle_n <= C5_REL_TOL
    if not n_ok:
        bad.append(f"{bound_id}(d={d},r={r},theta={theta}): n {got_n} vs {oracle_n}")
    return bad


def test_criterion_05_bounds_match_high_precision_oracle():
    """100 random (d, r, n, theta) tuples, d up to 500, all nine bounds and the
    admissible counts within 1e-10 relative of a 60-digit oracle."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    failures = []
    for _ in range(C5_TUPLES):
        d = int(rng.integers(1, 501))
        r = float(rng.uniform(0.02, 0.98))
        n = int(10 ** rng.uniform(0.0, 6.0))
        theta = float(rng.uniform(0.01, 0.99))
        for bound_id in PROBABILITY_BOUND_IDS:
            failures += _check_probability(bound_id, d, r, n)
        for bound_id in COUNT_BOUND_IDS:
            failures += _check_count(bound_id, d, r, theta)
    elapsed = time.perf_counter() - start
    _report(
        5,
        not failures and elapsed < C5_TIME_LIMIT,
        f"{len(failures)} oracle mismatches over {C5_TUPLES} tuples x 9 bounds "
        f"in {elapsed:.1f}s" + (f"; first: {failures[0]}" if failures else ""),
    )


# criterion 6 ---------------------------------------------------------------
C6_REL_TOL = 1e-12
C6_GRID_R = tuple(np.linspace(0.05, 0.95, 10))
C6_GRID_D = (1, 2, 5, 10, 20, 50, 100, 200, 300, 400)


def test_criterion_06_count_ratio_identity():
    """layer_count_ratio equals (2 sqrt(1-r^2))^(d/2) to 1e-12 on a 100-point
    grid, and is exactly 1 at r = sqrt(3)/2 for d = 1..64."""
    worst = 0.0
    for r in C6_GRID_R:
        for d in C6_GRID_D:
            law = layer_count_ratio(r, 0.5, d)
            with mp.workdps(60):
                want = float((2 * mp.sqrt(1 - mp.mpf(r) ** 2)) ** (mp.mpf(d) / 2))
            worst = max(worst, abs(law.exact - want) / want)
    knife = math.sqrt(3.0) / 2.0
    worst_knife = max(
        abs(layer_count_ratio(knife, 0.5, d).exact - 1.0) for d in range(1, 65)
    )
    _report(
        6,
        worst <= C6_REL_TOL and worst_knife <= C6_REL_TOL,
        f"grid max rel err {worst:.2e}, knife-edge max |ratio-1| {worst_knife:.2e}",
    )


# criterion 7 ---------------------------------------------------------------
C7_D = 400
C7_WINDOW = 0.05
C7_COROLLARY_WINDOW = (0.67, 0.74)


def test_criterion_07_asymptotic_laws_converge_by_d400():
    """Each asymptotic law sits within 5% of its reference at d=400 on a
    representative radius per regime."""
    ratios = {}

    for label, r in (("above", 0.9), ("at", CRITICAL_RADII["fisher_count"]),
                     ("below", 0.75)):
        exact_log = evaluate_bound("eq1_n_fisher", d=C7_D, r=r, theta=0.5).log_raw
        approx = eq1_asymptotic(r, 0.5, C7_D)
        ratios[f"admissible_count/{label}"] = math.exp(exact_log - approx.log_value)

    for label, r in (("above", 0.9), ("at", CRITICAL_RADII["fisher_count"]),
                     ("below", 0.3)):
        law = fisher_ratio_f_over_g(r, 0.1, C7_D)
        ratios[f"threshold_ratio/{label}"] = math.exp(law.log_exact - law.log_approximant)

    for label, r in (("above", 0.72), ("at", CRITICAL_RADII["set_gap"]),
                     ("below", 0.70)):
        _, exact_log = fisher_gap_exact(C7_D, r, 10)
        approx = fisher_gap_asymptotic(r, 10, C7_D)
        ratios[f"set_gap/{label}"] = math.exp(exact_log - approx.log_value)
        law = gap_ratio_linear_vs_fisher(r, 10, C7_D)
        ratios[f"gap_ratio/{label}"] = math.exp(law.log_exact - law.log_approximant)

    worst_key = max(ratios, key=lambda k: abs(ratios[k] - 1.0))
    all_in_window = all(abs(v - 1.0) <= C7_WINDOW for v in ratios.values())

    # converging-regime spot check with an absolute window around 1/sqrt(2)
    corollary = fisher_ratio_f_over_g(0.3, 0.1, C7_D).exact
    corollary_ok = C7_COROLLARY_WINDOW[0] <= corollary <= C7_COROLLARY_WINDOW[1]

    _report(
        7,
        all_in_window and corollary_ok,
        f"worst law {worst_key} ratio {ratios[worst_key]:.6f}; "
        f"converging threshold ratio {corollary:.4f} in "
        f"[{C7_COROLLARY_WINDOW[0]}, {C7_COROLLARY_WINDOW[1]}]",
    )


# criterion 8 ---------------------------------------------------------------
C8_N = 100000
C8_ALPHA = 0.001
C8_CELLS = ((2, 0.0), (10, 0.5), (50, 0.9))
C8_TIME_LIMIT = 60.0


def test_criterion_08_radial_distribution_ks():
    """RadiaI KS statistic at n=1e5 under the 0.001-level critical value; all
    norms inside [r, 1]."""
    start = time.perf_counter()
    # asymptotic Kolmogorov critical value: sqrt(-ln(alpha/2) / (2n))
    critical = math.sqrt(-math.log(C8_ALPHA / 2.0) / (2.0 * C8_N))
    worst = 0.0
    norms_ok = True
    for i, (d, r) in enumerate(C8_CELLS):
        pts = sample_layer(LayerSpec(d=d, r=r), C8_N, SEED + 10 + i).points
        norms = np.sort(np.linalg.norm(pts, axis=1))
        norms_ok = norms_ok and norms[0] >= r and norms[-1] <= 1.0
        cdf = radial_cdf(norms, d, r)
        grid = np.arange(1, C8_N + 1) / C8_N
        stat = max(float(np.max(grid - cdf)), float(np.max(cdf - grid + 1.0 / C8_N)))
        worst = max(worst, stat)
    elapsed = time.perf_counter() - start
    _report(
        8,
        worst < critical and norms_ok and elapsed < C8_TIME_LIMIT,
        f"max KS statistic {worst:.5f} < critical {critical:.5f}, "
        f"norms in range: {norms_ok}, in {elapsed:.1f}s",
    )


# criterion 9 ---------------------------------------------------------------
C9_N = 200
C9_TRIALS = 40
C9_THRESHOLD = 0.95


def _crossing(rows, freq_field):
    for rec in rows:
        if getattr(rec, freq_field) >= C9_THRESHOLD:
            return rec.d
    return None


def test_criterion_09_default_plan_curves(tmp_path):
    """Scaled default plans (default r grid and d sweeps, n=200): every curve
    reaches 0.95, linear crosses strictly before Fisher for some r, and no
    record dips below bound minus Wilson half-width.  The full n=10000 sweep
    is the documented long-running target in the README, not a gated test."""
    from layersep.cli import emit_records, read_records

    r_grid = (0.0, 0.5, 0.8, 0.9)
    reached, strict_wins, violations = [], [], 0
    for mode, d_stop in (("point_level", 60), ("set_level", 80)):
        plan = ExperimentPlan(mode=mode, d_values=tuple(range(1, d_stop + 1)),
                              r_values=r_grid, n=C9_N, trials=C9_TRIALS,
                              master_seed=SEED, workers=4, deterministic_timing=True)
        dest = tmp_path / f"{mode}.csv"
        emit_records(run_experiment(plan), str(dest))
        records = read_records(dest)  # rows sorted by (r, d)
        for r in r_grid:
            rows = [rec for rec in records if rec.r == r]
            lin = _crossing(rows, "freq_linear")
            fis = _crossing(rows, "freq_fisher")
            reached.append(lin is not None and fis is not None)
            if lin is not None and fis is not None and lin < fis:
                strict_wins.append((mode, r, lin, fis))
            violations += sum(
                1 for rec in rows if rec.freq_linear < rec.bound_linear - _half_width(rec)
            )
    _report(
        9,
        all(reached) and strict_wins and violations == 0,
        f"all {len(reached)} curves reach {C9_THRESHOLD}; linear-first cells: "
        f"{len(strict_wins)}; bound violations: {violations}",
    )


# criterion 10 --------------------------------------------------------------


def test_criterion_10_csv_byte_identical_across_workers(tmp_path):
    """Same seed, different thread counts: the emitted CSV is byte-identical."""
    outputs = []
    for mode in ("point", "set"):
        base = ["experiment", "--mode", mode, "--d", "2,12,25", "--r", "0,0.5,0.9",
                "--n", "80", "--trials", "12", "--seed", str(SEED)]
        paths = []
        for workers in (1, 5):
            dest = tmp_path / f"{mode}_w{workers}.csv"
            assert cli_main(base + ["--workers", str(workers),
                                    "--output", str(dest)]) == 0
            paths.append(dest.read_bytes())
        outputs.append(paths[0] == paths[1])
    _report(
        10,
        all(outputs),
        f"byte-identical across worker counts: point={outputs[0]}, set={outputs[1]}",
    )
