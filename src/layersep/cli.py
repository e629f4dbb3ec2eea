"""Command-line surface: argument parsing, subcommand dispatch, CSV emission.

Subcommands:
    sample       draw points from a spherical layer, emit coordinate CSV
    check        read a coordinate CSV, report separability verdicts
    bounds       evaluate named bounds on a (d, r) grid, emit long-format CSV
    asymptotics  evaluate one asymptotic law along a dimension sweep
    experiment   run a seeded Monte Carlo plan, emit the record CSV

Grids accept comma lists and inclusive ``start:stop:step`` ranges, mixed
freely ("1:10:1,20,40").  All reals are rendered with 17 significant digits,
so every emitted CSV parses back bit-exactly.

Exit codes: 0 success, 1 I/O error (an unreadable input or unwritable
output), 2 usage error, 3 domain error, 4 LP diagnostic.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from contextlib import contextmanager
from typing import get_type_hints

import numpy as np

from . import asymptotics as asymptotics_mod
from .bounds import BOUND_IDS, COUNT_BOUND_IDS, evaluate_bound
from .errors import DomainError, EnumerationLimitError, LPStallError, check_int, check_real
from .experiments import (POOL_MIN_COORDS, ExperimentPlan, ExperimentRecord, run_experiment,
                          set_report)
from .geometry import LayerSpec, sample_layer
from .separability import fisher_point_vs_set, lp_point_vs_set

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_DOMAIN",
    "EXIT_LP",
    "RECORD_HEADER",
    "BOUND_CURVE_HEADER",
    "parse_args",
    "emit_records",
    "read_records",
    "emit_bound_curves",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_LP = 4

RECORD_HEADER = ",".join(f.name for f in dataclasses.fields(ExperimentRecord))
BOUND_CURVE_HEADER = "bound_id,d,r,n,theta,value,domain_status"

DEFAULT_R_GRID = "0,0.5,0.8,0.9"
DEFAULT_D_GRID = {"point": "1:60:1", "set": "1:80:1"}
DEFAULT_N = {"point": 10000, "set": 1000}


def _fmt(x: float) -> str:
    """Round-trippable rendering: 17 significant digits, locale-free."""
    return format(float(x), ".17g")


def _text(value) -> str:
    """One emitted value: floats by ``_fmt``, None as an empty field, anything
    else (ints, names) as ``str`` gives it."""
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _row(values) -> str:
    return ",".join(map(_text, values)) + "\n"


def _line(**fields) -> str:
    """A ``key=value`` report line."""
    return " ".join(f"{key}={_text(value)}" for key, value in fields.items()) + "\n"


def _parse_grid(text: str, kind) -> tuple:
    """Values of ``kind`` (int or float) from a comma list of entries, each a
    value or an inclusive ``start:stop:step`` range."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise DomainError(f"empty entry in grid {text!r}")
        parts = chunk.split(":")
        if len(parts) not in (1, 3):
            raise DomainError(f"range must be start:stop:step, got {chunk!r}")
        try:
            # "+ 0" folds -0.0 into 0.0: one radius, one rendering
            numbers = [kind(part) + 0 for part in parts]
        except ValueError:
            raise DomainError(f"expected {kind.__name__} values, got {chunk!r}") from None
        if len(numbers) == 1:
            values.append(numbers[0])
            continue
        start, stop, step = numbers
        if kind is float and not all(map(math.isfinite, numbers)):
            raise DomainError(f"range bounds and step must be finite, got {chunk!r}")
        if not step > 0:
            raise DomainError(f"range step must be positive, got {step}")
        if start > stop:
            raise DomainError(f"empty range {chunk!r} (start > stop)")
        if kind is int:
            values.extend(range(start, stop + 1, step))
        else:
            count = int(math.floor((stop - start) / step + 1e-6))
            # snap accumulated values to 12 decimals so 0.1-steps land on
            # 0.3, not 0.30000000000000004
            values.extend(round(start + i * step, 12) for i in range(count + 1))
    return tuple(values)


# ---------------------------------------------------------------------------
# emission


@contextmanager
def _open_dest(destination):
    """``destination`` is a file path, or "-" for stdout."""
    if destination == "-":
        yield sys.stdout
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        yield handle


def emit_records(records, destination) -> None:
    """Write experiment records as CSV: fixed header, rows sorted by (r, d),
    reals at 17 significant digits, trailing newline."""
    rows = sorted(records, key=lambda rec: (rec.r, rec.d))
    with _open_dest(destination) as out:
        out.write(RECORD_HEADER + "\n")
        for rec in rows:
            out.write(_row(dataclasses.astuple(rec)))


def read_records(path) -> list[ExperimentRecord]:
    """Parse a record CSV back into the records it was written from.  The file
    is outside input: a header other than RECORD_HEADER, a row with the wrong
    number of fields or a value that does not parse raises DomainError."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        header, *rows = handle.read().splitlines() or [""]
    if header != RECORD_HEADER:
        raise DomainError(f"{path}: the first line is not the record header")
    kinds = get_type_hints(ExperimentRecord).values()
    records = []
    for lineno, row in enumerate(rows, start=2):
        cells = row.split(",")
        if len(cells) != len(kinds):
            raise DomainError(f"{path}:{lineno}: {len(cells)} fields, expected {len(kinds)}")
        try:
            records.append(ExperimentRecord(*(kind(cell) for kind, cell in zip(kinds, cells))))
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from None
    return records


def emit_bound_curves(bound_ids, d_values, r_values, n, theta, destination) -> None:
    """Write one long-format CSV row per (bound_id, d, r).

    Unused parameters render as empty fields (count bounds take theta, not n;
    probability bounds the reverse).  A row that fails its domain check gets
    value nan and domain_status 'error' instead of aborting the sweep.
    """
    with _open_dest(destination) as out:
        out.write(BOUND_CURVE_HEADER + "\n")
        for bound_id in bound_ids:
            is_count = bound_id in COUNT_BOUND_IDS
            n_field, theta_field = (None, theta) if is_count else (n, None)
            for r in r_values:
                for d in d_values:
                    try:
                        res = evaluate_bound(bound_id, d=d, r=r, n=n, theta=theta)
                        value, status = res.value, res.domain_status
                    except DomainError:
                        value, status = math.nan, "error"
                    out.write(_row((bound_id, d, r, n_field, theta_field, value, status)))


# ---------------------------------------------------------------------------
# parsing


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate one CLI invocation.

    Every option is checked against the target module's preconditions here,
    before any work starts; violations exit with a usage error (code 2).  The
    namespace carries the validated values and ``run``, its subcommand's runner.
    """
    parser = argparse.ArgumentParser(
        prog="layersep",
        description="Separability of random points in a spherical layer: "
        "sampling, checks, bounds, asymptotics, experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sample = sub.add_parser("sample", help="draw points, emit coordinate CSV")
    p_sample.set_defaults(run=_run_sample)
    p_sample.add_argument("--d", required=True, type=int, help="dimension")
    p_sample.add_argument("--r", type=float, default=0.0, help="inner radius in [0,1)")
    p_sample.add_argument("--n", required=True, type=int, help="number of points")
    p_sample.add_argument("--seed", default="0", help="RNG seed (default 0)")
    p_sample.add_argument("--output", default="-", help="file path or - for stdout")

    p_check = sub.add_parser("check", help="separability verdicts for a coordinate CSV")
    p_check.set_defaults(run=_run_check)
    p_check.add_argument("--input", required=True, help="CSV of points, or - for stdin")
    p_check.add_argument("--mode", choices=("point", "set"), default="set",
                         help="point: last row vs the rest; set: every point vs the rest")
    p_check.add_argument("--kind", choices=("linear", "fisher", "both"), default="both")

    p_bounds = sub.add_parser("bounds", help="evaluate bounds on a (d, r) grid")
    p_bounds.set_defaults(run=_run_bounds)
    p_bounds.add_argument("--id", required=True,
                          help=f"comma list from {', '.join(BOUND_IDS)}, or all")
    p_bounds.add_argument("--d", required=True, help="dimension grid")
    p_bounds.add_argument("--r", default="0", help="inner radius grid (default 0)")
    p_bounds.add_argument("--n", type=int, default=0, help="set size (probability bounds)")
    p_bounds.add_argument("--theta", type=float, default=None,
                          help="failure budget in (0,1) (count bounds)")
    p_bounds.add_argument("--output", default="-", help="file path or - for stdout")

    p_asym = sub.add_parser("asymptotics", help="evaluate one asymptotic law over d")
    p_asym.set_defaults(run=_run_asymptotics)
    p_asym.add_argument("--op", required=True, choices=(*_ASYMPTOTIC_LAWS, "classify"))
    p_asym.add_argument("--d", default="1", help="dimension grid (ignored by classify)")
    p_asym.add_argument("--r", required=True, type=float, help="inner radius")
    p_asym.add_argument("--theta", type=float, default=None, help="failure budget")
    p_asym.add_argument("--n", type=int, default=None, help="point count (gap laws)")
    p_asym.add_argument("--context", choices=tuple(asymptotics_mod.CRITICAL_RADII),
                        default=None, help="which critical radius classify uses")

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo plan, emit record CSV")
    p_exp.set_defaults(run=_run_experiment)
    p_exp.add_argument("--mode", required=True, choices=("point", "set"))
    p_exp.add_argument("--d", default=None,
                       help="dimension grid (default 1:60:1 point, 1:80:1 set)")
    p_exp.add_argument("--r", default=DEFAULT_R_GRID, help="inner radius grid")
    p_exp.add_argument("--n", type=int, default=None,
                       help="cloud size (default 10000 point, 1000 set)")
    p_exp.add_argument("--trials", type=int, default=60, help="trials per (d, r) cell")
    p_exp.add_argument("--seed", required=True, help="master seed (reproducibility is mandatory)")
    p_exp.add_argument("--kinds", default="linear,fisher",
                       help="comma subset of linear,fisher")
    p_exp.add_argument("--workers", type=int, default=1, help="threads for the whole run, "
                       "at most the usable cores, fed a bounded window of jobs; cells with "
                       f"n*d < {POOL_MIN_COORDS} run on the calling thread")
    p_exp.add_argument("--measure-timing", action="store_true",
                       help="report each cell's summed trial times (breaks byte-identical reruns)")
    p_exp.add_argument("--output", default="-", help="file path or - for stdout")

    ns = parser.parse_args(argv)
    try:
        _validate(ns, parser.error)
    except DomainError as exc:
        parser.error(str(exc))  # prints usage, names the flag, exits 2
    return ns


def _validate(ns, fail) -> None:
    """Validate parsed arguments in place, each under its option's name or in
    ``ns.layer`` (sample) and ``ns.plan`` (experiment): a bad value raises
    DomainError, a missing or unknown option calls ``fail``."""
    if ns.subcommand == "sample":
        ns.seed = check_int(ns.seed, "--seed", 0, 2**64)
        ns.layer = LayerSpec(d=ns.d, r=ns.r)
        ns.n = check_int(ns.n, "--n", 0)

    elif ns.subcommand == "check":
        ns.kind = ("linear", "fisher") if ns.kind == "both" else (ns.kind,)

    elif ns.subcommand == "bounds":
        ns.id = BOUND_IDS if ns.id == "all" else tuple(s.strip() for s in ns.id.split(","))
        for bound_id in ns.id:
            if bound_id not in BOUND_IDS:
                fail(f"unknown bound id {bound_id!r}; expected one of {', '.join(BOUND_IDS)}")
        ns.d = _parse_grid(ns.d, int)
        ns.r = _parse_grid(ns.r, float)
        ns.n = check_int(ns.n, "--n", 0)
        needs_theta = [b for b in ns.id if b in COUNT_BOUND_IDS]
        if needs_theta and ns.theta is None:
            fail(f"--theta is required for count bounds ({', '.join(needs_theta)})")
        ns.theta = None if ns.theta is None else check_real(ns.theta, "--theta", 0.0, 1.0)

    elif ns.subcommand == "asymptotics":
        ns.d = _parse_grid(ns.d, int)
        param = _ASYMPTOTIC_LAWS[ns.op][0] if ns.op in _ASYMPTOTIC_LAWS else "context"
        if getattr(ns, param) is None:
            fail(f"--{param} is required for {ns.op}")

    else:  # experiment
        seed = check_int(ns.seed, "--seed", 0, 2**64)
        mode = {"point": "point_level", "set": "set_level"}[ns.mode]
        d_text = ns.d if ns.d is not None else DEFAULT_D_GRID[ns.mode]
        n = ns.n if ns.n is not None else DEFAULT_N[ns.mode]
        kinds = tuple(s.strip() for s in ns.kinds.split(",") if s.strip())
        ns.plan = ExperimentPlan(
            mode=mode,
            d_values=_parse_grid(d_text, int),
            r_values=_parse_grid(ns.r, float),
            n=n,
            trials=ns.trials,
            master_seed=seed,
            check_kinds=kinds,
            workers=ns.workers,
            deterministic_timing=not ns.measure_timing,
        )


# ---------------------------------------------------------------------------
# subcommand runners


def _run_sample(ns) -> None:
    cloud = sample_layer(ns.layer, ns.n, ns.seed)
    with _open_dest(ns.output) as out:
        out.write(_row(f"x{i + 1}" for i in range(ns.layer.d)))
        for row in cloud.points:
            out.write(_row(row))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_point_matrix(source) -> np.ndarray:
    """Parse a coordinate CSV: one point per row, after an optional header
    whose cells are all text (a first row that mixes numbers and text is a
    malformed point, not a header)."""
    if source == "-":
        rows = list(csv.reader(sys.stdin))
    else:
        with open(source, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DomainError(f"no data rows in {source!r}")
    if not any(map(_is_number, rows[0])):
        rows = rows[1:]  # header line
        if not rows:
            raise DomainError(f"only a header in {source!r}")
    width = len(rows[0])
    data = []
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise DomainError(f"row {idx} has {len(row)} fields, expected {width}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise DomainError(f"row {idx}: {exc}") from None
    return np.asarray(data, dtype=np.float64)


def _run_check(ns) -> None:
    pts = _read_point_matrix(ns.input)  # the checks take it as read, at any scale
    out = sys.stdout
    if ns.mode == "point":
        if pts.shape[0] < 2:
            raise DomainError("point mode needs at least 2 rows (last row is the query)")
        query, others = pts[-1], pts[:-1]
        # both certificates before either line, so an LP stall prints no verdict
        fisher = fisher_point_vs_set(query, others) if "fisher" in ns.kind else None
        linear = lp_point_vs_set(query, others) if "linear" in ns.kind else None
        if fisher is not None:
            out.write(_line(kind="fisher", separable=str(fisher.separable).lower()))
        if linear is not None:
            out.write(_line(kind="linear", separable=str(linear.separable).lower(),
                            margin=linear.margin))
        return
    report = set_report(pts, ns.kind)
    if "fisher" in ns.kind:
        fisher_ok = bool(report.flags.all())
        out.write(_line(kind="fisher", all_separable=str(fisher_ok).lower(),
                        first_failure=None if fisher_ok else int(report.flags.argmin())))
    if "linear" in ns.kind:
        out.write(_line(kind="linear", all_separable=str(report.all_separable).lower(),
                        first_failure=report.first_failure, lp_calls=report.lp_calls,
                        lp_skipped_by_fisher=report.lp_skipped_by_fisher))


def _run_bounds(ns) -> None:
    single = len(ns.id) == 1 and len(ns.d) == 1 and len(ns.r) == 1
    if single and ns.output == "-":
        (bound_id,), (d,), (r,) = ns.id, ns.d, ns.r
        res = evaluate_bound(bound_id, d=d, r=r, n=ns.n, theta=ns.theta)
        is_count = bound_id in COUNT_BOUND_IDS
        param = {"theta": ns.theta} if is_count else {"n": ns.n}
        extra = {"max_admissible_n": res.max_admissible_n} if is_count else {}
        if res.note:
            extra["note"] = f'"{res.note}"'
        sys.stdout.write(_line(bound_id=bound_id, d=d, r=r, **param, value=res.value,
                               raw_value=res.raw_value, domain_status=res.domain_status,
                               **extra))
        return
    emit_bound_curves(ns.id, ns.d, ns.r, ns.n, ns.theta, ns.output)


def _value_fields(v) -> dict:
    return dict(regime=v.regime.regime, value=v.value, log_value=v.log_value)


def _ratio_fields(law) -> dict:
    return dict(regime=law.regime.regime, exact=law.exact, approximant=law.approximant,
                limit_value=law.limit_value, limit_tag=law.limit_tag)


def _gap_fields(gap) -> dict:
    return dict(gap=gap[0], log_gap=gap[1])


# op -> (the parameter it takes besides r and d, the fields of its result).
# Each op is named after its law in asymptotics, which takes r, d and that
# parameter by keyword.
_ASYMPTOTIC_LAWS = {
    "eq1_asymptotic": ("theta", _value_fields),
    "fisher_ratio_f_over_g": ("theta", _ratio_fields),
    "layer_count_ratio": ("theta", _ratio_fields),
    "fisher_gap_exact": ("n", _gap_fields),
    "fisher_gap_asymptotic": ("n", _value_fields),
    "gap_ratio_linear_vs_fisher": ("n", _ratio_fields),
}


def _run_asymptotics(ns) -> None:
    out = sys.stdout
    if ns.op == "classify":
        regime = asymptotics_mod.classify_radius(ns.r, ns.context)
        out.write(_line(op="classify", context=regime.context, r=ns.r, regime=regime.regime,
                        critical_value=regime.critical_value))
        return
    param, fields = _ASYMPTOTIC_LAWS[ns.op]
    value = {param: getattr(ns, param)}
    law = getattr(asymptotics_mod, ns.op)
    for d in ns.d:
        out.write(_line(op=ns.op, d=d, r=ns.r, **value, **fields(law(r=ns.r, d=d, **value))))


def _run_experiment(ns) -> None:
    records = run_experiment(ns.plan)
    emit_records(records, ns.output)


def main(argv=None) -> int:
    """Run one invocation; returns the process exit code."""
    try:
        ns = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code is None else int(exc.code)
    try:
        ns.run(ns)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (LPStallError, EnumerationLimitError) as exc:
        print(f"LP diagnostic: {exc}", file=sys.stderr)
        return EXIT_LP
    except OSError as exc:  # an input that cannot be read or an output not written
        target = exc.filename or getattr(ns, "output", "-")
        print(f"I/O error on {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
