"""End-to-end and per-layer benchmark for layersep.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``; why each exists, its layer shares
and the pinned record digests are in ``expectations.json``.

``--trace 0`` runs the whole workload single-threaded and with one worker per
CPU, alternating which mode goes first, repeats that pair while another one
fits in ``--seconds`` and reports medians.  Between the passes it measures
set-up time: the median of several fresh processes that import layersep and
build the inputs.  ``--trace 1`` runs the workload once
with spans around every layer's public functions, between two untraced
passes that give the tracing overhead, writes
the spans to ``.perfbench/trace-<workload>-seed<seed>.json`` and reports the
per-layer metrics.  Either way every output is checked, and the last stdout
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
# BLAS/OpenMP pools would add threads to every experiment worker thread
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-helper", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error(f"--seed must lie in [0, 2^63), got {args.seed}")
    if args.seconds < 1:
        parser.error(f"--seconds must be >= 1, got {args.seconds}")
    return args


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_facts(load_1m: float) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(len(path.read_bytes().splitlines())
                    for path in (ROOT / "src" / "layersep").glob("*.py"))
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_1m_at_start": load_1m,
        "src_layersep_lines": src_lines,
    }


def self_cmd(args, flag: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), flag,
            "--workload", args.workload, "--seed", str(args.seed)]


def probe_helper(args) -> int:
    """For each line on stdin, time one set-up probe and print its seconds.

    A probe is a fresh interpreter that imports layersep and builds the inputs.
    """
    while sys.stdin.readline():
        start = time.perf_counter()
        # reading the child's stdout to EOF ends at its exit; a bare wait with
        # a timeout would poll in steps of up to 50 ms
        subprocess.run(self_cmd(args, "--setup-probe"), check=True,
                       timeout=PROBE_TIMEOUT_S, stdout=subprocess.PIPE)
        print(time.perf_counter() - start, flush=True)
    return 0


class SetupProbes:
    """Set-up probes, started one at a time by a helper process.

    The helper waits for each probe itself, so the probes' resident set enters
    this process's RUSAGE_CHILDREN only once the helper is stopped: after
    ``peak_rss_mb`` has been read.
    """

    def __init__(self, args):
        self.times: list[float] = []
        self.proc = subprocess.Popen(self_cmd(args, "--probe-helper"), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run_until(self, count: int) -> None:
        while len(self.times) < count:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("the set-up probe helper exited early")
            self.times.append(float(line))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# experiment workloads


def run_plan(plan, seed, workers, path: Path, tracer=None):
    """One CLI run of the whole plan: (seconds, CSV bytes, or None if it exited non-zero)."""
    from layersep import cli

    path.unlink(missing_ok=True)
    argv = plan.argv(seed, workers, str(path))
    start = time.perf_counter()
    with tracer.span("cli.main") if tracer is not None else nullcontext():
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    return elapsed, path.read_bytes() if code == 0 else None


class PlanPasses:
    """Whole-plan CLI runs, each checked byte for byte against the first CSV of its seed."""

    def __init__(self, name, plan, path: Path, expected):
        self.name, self.plan, self.path = name, plan, path
        self.expected = expected
        self.reference = {}

    def _digest_ok(self, seed, csv: bytes) -> bool:
        """At the pinned seed, the record CSV's sha256 must match the pinned digest."""
        if seed != self.expected["default_seed"]:
            return True
        digest = hashlib.sha256(csv).hexdigest()
        if digest == self.expected["csv_sha256"].get(self.name):
            return True
        print(f"# {self.name}: record CSV sha256 {digest} differs from the pinned digest",
              file=sys.stderr)
        return False

    def run(self, workers, seed, tracer=None):
        """One pass with ``--workers workers``: (trials, seconds, attempted, failed).

        A pass that exits non-zero or whose CSV differs from the first
        successful pass's at the same seed fails all of its cells.
        """
        plan = self.plan
        elapsed, csv = run_plan(plan, seed, workers, self.path, tracer)
        if csv is None:
            ok = False
        elif seed not in self.reference:
            self.reference[seed] = csv
            ok = self._digest_ok(seed, csv)
        else:
            ok = csv == self.reference[seed]
        return plan.total_trials, elapsed, plan.cells, 0 if ok else plan.cells

    def layer_extras(self):
        size = self.path.stat().st_size if self.path.exists() else 0
        return {"cli.bytes_out": (size, "B"), "exact.agree_frac": (1.0, "frac")}


# ---------------------------------------------------------------------------
# oracle workload


def oracle_decider(instances, tracer=None):
    """decide(i): LP and exact verdict for instance i, or the raised error's name."""
    from layersep import exact, separability
    from layersep.errors import EnumerationLimitError, LPStallError

    def decide(i):
        if tracer is not None:
            tracer.set_cell(i)
        x, others = instances[i]
        try:
            return (separability.lp_point_vs_set(x, others).separable,
                    exact.exact_point_vs_set(x, others).separable)
        except (LPStallError, EnumerationLimitError) as exc:
            return type(exc).__name__

    return decide


class OraclePasses:
    """Runs over the oracle instances of a seed, each checked for LP/exact
    agreement and against the first run at that seed."""

    def __init__(self, seed, instances):
        self.seed, self.instances = seed, instances
        self.reference = {}
        self.agree = 0

    def run(self, workers, seed, tracer=None):
        """Every instance, in a pool of ``workers`` threads when that exceeds 1:
        (trials, seconds, attempted, failed)."""
        import workloads

        if seed != self.seed:
            self.seed, self.instances = seed, workloads.xval_instances(seed)
        decide = oracle_decider(self.instances, tracer)
        n = len(self.instances)
        start = time.perf_counter()
        with tracer.span("bench.xval") if tracer is not None else nullcontext():
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(pool.map(decide, range(n)))
            else:
                outcomes = [decide(i) for i in range(n)]
        elapsed = time.perf_counter() - start
        reference = self.reference.setdefault(seed, outcomes)
        self.agree = sum(isinstance(o, tuple) and o[0] == o[1] for o in outcomes)
        failed = sum(not isinstance(o, tuple) or o[0] != o[1] or o != ref
                     for o, ref in zip(outcomes, reference))
        return n, elapsed, n, failed

    def layer_extras(self):
        return {"cli.bytes_out": (0, "B"),
                "exact.agree_frac": (self.agree / len(self.instances), "frac")}


# ---------------------------------------------------------------------------
# measurement


def timed_pairs(passes, args, workers):
    """Pairs of a single-threaded and a parallel pass while another pair fits
    in --seconds, with the set-up probes spread between the passes.

    Both passes of a pair run the inputs of one seed: the workload seed for
    the first pair, then seeds derived from it, so a run averages over more
    inputs than one pass holds.  The mode that goes first alternates from
    pair to pair.  The probes share the passes' span of time, so both see
    the same mix of the machine's faster and slower spells.
    """
    import workloads

    modes = (1, workers)
    rates = ([], [])
    attempted = failed = 0
    self_kib = None
    begin = time.perf_counter()
    deadline = begin + args.seconds
    with SetupProbes(args) as probes:
        for pair in itertools.count():
            start = time.perf_counter()
            for slot in ((0, 1) if pair % 2 == 0 else (1, 0)):
                trials, seconds, n_attempted, n_failed = passes.run(
                    modes[slot], workloads.pair_seed(args.seed, pair))
                rates[slot].append(trials / seconds)
                attempted += n_attempted
                failed += n_failed
                if self_kib is None:
                    # after the first pass, which is single-threaded: with
                    # worker threads, the peak depends on how their
                    # allocations happen to overlap
                    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                elapsed = time.perf_counter() - begin
                probes.run_until(math.ceil(SETUP_PROBES * min(1.0, elapsed / args.seconds)))
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
        probes.run_until(SETUP_PROBES)
        # read while the helper runs: the probes are not yet among the
        # children that RUSAGE_CHILDREN covers
        children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    probe_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"# {pair + 1} pairs of passes; {len(probes.times)} set-up probes, largest "
          f"{probe_mb:.1f} MiB resident (not in peak_rss_mb)")
    return attempted, failed, {
        "setup_s": (statistics.median(probes.times), "s"),
        "trials_per_s": (statistics.median(rates[0]), "trials/s"),
        "trials_per_s_par": (statistics.median(rates[1]), "trials/s"),
        "peak_rss_mb": ((self_kib + children_kib) / 1024.0, "MiB"),
    }


def traced_pair(passes, args, experiment: bool):
    """A traced single-threaded pass between two untraced ones; the per-layer metrics.

    The untraced passes on either side give the overhead, so that neither
    the first pass's warm-up nor a drift in machine speed is charged to it.
    """
    import trace_report
    from tracing import Tracer

    _, before_s, attempted, failed = passes.run(1, args.seed)
    tracer = Tracer()
    with tracer.installed(experiment):
        _, traced_s, n_attempted, n_failed = passes.run(1, args.seed, tracer)
    metrics = tracer.layer_metrics()
    metrics.update(passes.layer_extras())
    attempted += n_attempted
    failed += n_failed
    _, after_s, n_attempted, n_failed = passes.run(1, args.seed)
    recheck_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "bench.recheck")
    overhead = (traced_s - recheck_s) / ((before_s + after_s) / 2) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    doc = write_trace(args, tracer, traced_s, overhead)
    print(trace_report.format_report(doc))
    attempted += n_attempted + tracer.rechecked
    failed += n_failed + tracer.recheck_fail + tracer.stalls()
    return attempted, failed, metrics


# ---------------------------------------------------------------------------


def build_inputs(workload: str, seed: int):
    """The plan or the oracle instances; all a run hands to layersep."""
    import workloads

    if workload in workloads.PLANS:
        import layersep.cli  # noqa: F401  (the plan's entry point)

        return workloads.PLANS[workload]
    return workloads.xval_instances(seed)


def write_trace(args, tracer, traced_s, overhead_frac) -> dict:
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_wall_s": traced_s,
        "overhead_frac": overhead_frac,
        "spans": tracer.spans,
    }
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"# spans written to {path.relative_to(ROOT)}")
    return doc


def measure(args, inputs, run_dir, expected):
    """(attempted, failed, metrics) for the requested run."""
    import workloads

    if args.workload in workloads.PLANS:
        passes = PlanPasses(args.workload, inputs, run_dir / "records.csv", expected)
    else:
        passes = OraclePasses(args.seed, inputs)
    if args.trace:
        return traced_pair(passes, args, experiment=args.workload in workloads.PLANS)
    return timed_pairs(passes, args, nproc())


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.probe_helper:
        # stays small: the probes import layersep, the helper does not
        return probe_helper(args)
    if not (ROOT / "src" / "layersep" / "__init__.py").is_file():
        print(f"perfbench: no layersep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        build_inputs(args.workload, args.seed)
        return 0

    load_1m = os.getloadavg()[0]
    expected = json.loads((BENCH_DIR / "expectations.json").read_text(encoding="utf-8"))
    inputs = build_inputs(args.workload, args.seed)
    print("# facts " + json.dumps(machine_facts(load_1m)))
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        attempted, failed, metrics = measure(args, inputs, run_dir, expected)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for metric, (value, unit) in metrics.items():
        print(f"# {args.workload} {metric} = {value:.6g} {unit}")
    print(f"# {args.workload} failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
