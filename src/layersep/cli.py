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

Exit codes: 0 success, 2 usage error, 3 domain error, 4 LP diagnostic.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from . import asymptotics as asymptotics_mod
from .bounds import BOUND_IDS, COUNT_BOUND_IDS, evaluate_bound
from .errors import DomainError, EnumerationLimitError, LPStallError, check_int, check_real
from .experiments import ExperimentPlan, ExperimentRecord, run_experiment
from .geometry import LayerSpec, PointCloud, sample_layer
from .separability import (
    DEFAULT_TOL,
    fisher_point_vs_set,
    fisher_separable_set,
    linearly_separable_set,
    lp_point_vs_set,
)

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_DOMAIN",
    "EXIT_LP",
    "RECORD_HEADER",
    "BOUND_CURVE_HEADER",
    "RunConfig",
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

@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation: subcommand, its options, and the sink."""

    subcommand: str
    options: dict = field(default_factory=dict)
    output_path: str = "-"


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
    if hasattr(destination, "write"):
        yield destination
    elif destination is None or destination == "-":
        yield sys.stdout
    else:
        handle = open(destination, "w", encoding="utf-8", newline="")
        try:
            yield handle
        finally:
            handle.close()


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


def parse_args(argv) -> RunConfig:
    """Parse and validate one CLI invocation.

    Every option is checked against the target module's preconditions here,
    before any work starts; violations exit with a usage error (code 2).
    """
    parser = argparse.ArgumentParser(
        prog="layersep",
        description="Separability of random points in a spherical layer: "
        "sampling, checks, bounds, asymptotics, experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sample = sub.add_parser("sample", help="draw points, emit coordinate CSV")
    p_sample.add_argument("--d", required=True, type=int, help="dimension")
    p_sample.add_argument("--r", type=float, default=0.0, help="inner radius in [0,1)")
    p_sample.add_argument("--n", required=True, type=int, help="number of points")
    p_sample.add_argument("--seed", default="0", help="RNG seed (default 0)")
    p_sample.add_argument("--output", default="-", help="file path or - for stdout")

    p_check = sub.add_parser("check", help="separability verdicts for a coordinate CSV")
    p_check.add_argument("--input", required=True, help="CSV of points, or - for stdin")
    p_check.add_argument("--mode", choices=("point", "set"), default="set",
                         help="point: last row vs the rest; set: every point vs the rest")
    p_check.add_argument("--kind", choices=("linear", "fisher", "both"), default="both")
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL, help="LP margin tolerance")

    p_bounds = sub.add_parser("bounds", help="evaluate bounds on a (d, r) grid")
    p_bounds.add_argument("--id", required=True,
                          help=f"comma list from {', '.join(BOUND_IDS)}, or all")
    p_bounds.add_argument("--d", required=True, help="dimension grid")
    p_bounds.add_argument("--r", default="0", help="inner radius grid (default 0)")
    p_bounds.add_argument("--n", type=int, default=0, help="set size (probability bounds)")
    p_bounds.add_argument("--theta", type=float, default=None,
                          help="failure budget in (0,1) (count bounds)")
    p_bounds.add_argument("--output", default="-", help="file path or - for stdout")

    p_asym = sub.add_parser("asymptotics", help="evaluate one asymptotic law over d")
    p_asym.add_argument("--op", required=True, choices=(*_ASYMPTOTIC_LAWS, "classify"))
    p_asym.add_argument("--d", default="1", help="dimension grid (ignored by classify)")
    p_asym.add_argument("--r", required=True, type=float, help="inner radius")
    p_asym.add_argument("--theta", type=float, default=None, help="failure budget")
    p_asym.add_argument("--n", type=int, default=None, help="point count (gap laws)")
    p_asym.add_argument("--context", choices=tuple(asymptotics_mod.CRITICAL_RADII),
                        default=None, help="which critical radius classify uses")

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo plan, emit record CSV")
    p_exp.add_argument("--mode", required=True, choices=("point", "set"))
    p_exp.add_argument("--d", default=None,
                       help="dimension grid (default 1:60:1 point, 1:80:1 set)")
    p_exp.add_argument("--r", default=DEFAULT_R_GRID, help="inner radius grid")
    p_exp.add_argument("--n", type=int, default=None,
                       help="cloud size (default 10000 point, 1000 set)")
    p_exp.add_argument("--trials", type=int, default=60, help="trials per (d, r) cell")
    p_exp.add_argument("--seed", required=True, help="master seed (reproducibility is mandatory)")
    p_exp.add_argument("--tol", type=float, default=DEFAULT_TOL, help="LP margin tolerance")
    p_exp.add_argument("--kinds", default="linear,fisher",
                       help="comma subset of linear,fisher")
    p_exp.add_argument("--workers", type=int, default=1, help="threads per grid cell")
    p_exp.add_argument("--measure-timing", action="store_true",
                       help="report real wall times (breaks byte-identical reruns)")
    p_exp.add_argument("--output", default="-", help="file path or - for stdout")

    ns = parser.parse_args(argv)
    try:
        return _config(ns, parser.error)
    except DomainError as exc:
        parser.error(str(exc))  # prints usage, names the flag, exits 2


def _config(ns, fail) -> RunConfig:
    """Validate parsed arguments: a bad value raises DomainError, a missing or
    unknown option calls ``fail``."""
    if ns.subcommand == "sample":
        seed = check_int(ns.seed, "--seed", 0, 2**64)
        layer = LayerSpec(d=ns.d, r=ns.r)
        n = check_int(ns.n, "--n", 0)
        return RunConfig("sample", {"layer": layer, "n": n, "seed": seed}, ns.output)

    if ns.subcommand == "check":
        tol = check_real(ns.tol, "--tol", 0.0, math.inf)
        kinds = ("linear", "fisher") if ns.kind == "both" else (ns.kind,)
        return RunConfig(
            "check",
            {"input": ns.input, "mode": ns.mode, "kinds": kinds, "tol": tol},
        )

    if ns.subcommand == "bounds":
        ids = BOUND_IDS if ns.id == "all" else tuple(s.strip() for s in ns.id.split(","))
        for bound_id in ids:
            if bound_id not in BOUND_IDS:
                fail(f"unknown bound id {bound_id!r}; expected one of {', '.join(BOUND_IDS)}")
        d_values = _parse_grid(ns.d, int)
        r_values = _parse_grid(ns.r, float)
        n = check_int(ns.n, "--n", 0)
        needs_theta = [b for b in ids if b in COUNT_BOUND_IDS]
        if needs_theta and ns.theta is None:
            fail(f"--theta is required for count bounds ({', '.join(needs_theta)})")
        theta = None if ns.theta is None else check_real(ns.theta, "--theta", 0.0, 1.0)
        return RunConfig(
            "bounds",
            {"ids": ids, "d_values": d_values, "r_values": r_values, "n": n, "theta": theta},
            ns.output,
        )

    if ns.subcommand == "asymptotics":
        d_values = _parse_grid(ns.d, int)
        param = _ASYMPTOTIC_LAWS[ns.op][0] if ns.op in _ASYMPTOTIC_LAWS else "context"
        if getattr(ns, param) is None:
            fail(f"--{param} is required for {ns.op}")
        return RunConfig(
            "asymptotics",
            {"op": ns.op, "d_values": d_values, "r": ns.r, "theta": ns.theta,
             "n": ns.n, "context": ns.context},
        )

    # experiment
    seed = check_int(ns.seed, "--seed", 0, 2**64)
    mode = {"point": "point_level", "set": "set_level"}[ns.mode]
    d_text = ns.d if ns.d is not None else DEFAULT_D_GRID[ns.mode]
    n = ns.n if ns.n is not None else DEFAULT_N[ns.mode]
    kinds = tuple(s.strip() for s in ns.kinds.split(",") if s.strip())
    plan = ExperimentPlan(
        mode=mode,
        d_values=_parse_grid(d_text, int),
        r_values=_parse_grid(ns.r, float),
        n=n,
        trials=ns.trials,
        master_seed=seed,
        tol=ns.tol,
        check_kinds=kinds,
        workers=ns.workers,
        deterministic_timing=not ns.measure_timing,
    )
    return RunConfig("experiment", {"plan": plan}, ns.output)


# ---------------------------------------------------------------------------
# subcommand runners


def _run_sample(cfg: RunConfig) -> None:
    layer, n = cfg.options["layer"], cfg.options["n"]
    cloud = sample_layer(layer, n, cfg.options["seed"])
    with _open_dest(cfg.output_path) as out:
        out.write(_row(f"x{i + 1}" for i in range(layer.d)))
        for row in cloud.points:
            out.write(_row(row))


def _read_point_matrix(source) -> np.ndarray:
    """Parse a coordinate CSV: optional header, one point per row."""
    if source == "-":
        rows = list(csv.reader(sys.stdin))
    else:
        with open(source, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DomainError(f"no data rows in {source!r}")
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        rows = rows[1:]  # header line
        if not rows:
            raise DomainError(f"only a header in {source!r}") from None
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


def _run_check(cfg: RunConfig) -> None:
    pts = _read_point_matrix(cfg.options["input"])
    if not np.all(np.isfinite(pts)):
        raise DomainError("input points must be finite")
    # Both checks are invariant under uniform positive scaling, so data that
    # overflows the unit ball is shrunk to fit rather than rejected.
    max_norm = float(np.linalg.norm(pts, axis=1).max())
    if max_norm > 1.0:
        pts = pts / max_norm
    kinds, tol = cfg.options["kinds"], cfg.options["tol"]
    out = sys.stdout
    if cfg.options["mode"] == "point":
        if pts.shape[0] < 2:
            raise DomainError("point mode needs at least 2 rows (last row is the query)")
        query, others = pts[-1], pts[:-1]
        if "fisher" in kinds:
            cert = fisher_point_vs_set(query, others)
            out.write(_line(kind="fisher", separable=str(cert.separable).lower()))
        if "linear" in kinds:
            cert = lp_point_vs_set(query, others, tol=tol)
            out.write(_line(kind="linear", separable=str(cert.separable).lower(),
                            margin=cert.margin))
        return
    cloud = PointCloud(layer=LayerSpec(d=pts.shape[1], r=0.0), points=pts, seed=0)
    if "fisher" in kinds:
        report = fisher_separable_set(cloud, verdict_only=True)
        out.write(_line(kind="fisher", all_separable=str(report.all_separable).lower(),
                        first_failure=report.first_failure))
    if "linear" in kinds:
        report = linearly_separable_set(cloud, tol=tol, verdict_only=True)
        out.write(_line(kind="linear", all_separable=str(report.all_separable).lower(),
                        first_failure=report.first_failure, lp_calls=report.lp_calls,
                        lp_skipped_by_fisher=report.lp_skipped_by_fisher))


def _run_bounds(cfg: RunConfig) -> None:
    o = cfg.options
    single = len(o["ids"]) == 1 and len(o["d_values"]) == 1 and len(o["r_values"]) == 1
    if single and cfg.output_path == "-":
        (bound_id,), (d,), (r,) = o["ids"], o["d_values"], o["r_values"]
        res = evaluate_bound(bound_id, d=d, r=r, n=o["n"], theta=o["theta"])
        is_count = bound_id in COUNT_BOUND_IDS
        param = {"theta": o["theta"]} if is_count else {"n": o["n"]}
        extra = {"max_admissible_n": res.max_admissible_n} if is_count else {}
        if res.note:
            extra["note"] = f'"{res.note}"'
        sys.stdout.write(_line(bound_id=bound_id, d=d, r=r, **param, value=res.value,
                               raw_value=res.raw_value, domain_status=res.domain_status,
                               **extra))
        return
    emit_bound_curves(
        o["ids"], o["d_values"], o["r_values"], o["n"], o["theta"], cfg.output_path
    )


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


def _run_asymptotics(cfg: RunConfig) -> None:
    o = cfg.options
    op, r = o["op"], o["r"]
    out = sys.stdout
    if op == "classify":
        regime = asymptotics_mod.classify_radius(r, o["context"])
        out.write(_line(op="classify", context=regime.context, r=r, regime=regime.regime,
                        critical_value=regime.critical_value))
        return
    param, fields = _ASYMPTOTIC_LAWS[op]
    value = {param: o[param]}
    law = getattr(asymptotics_mod, op)
    for d in o["d_values"]:
        out.write(_line(op=op, d=d, r=r, **value, **fields(law(r=r, d=d, **value))))


def _run_experiment(cfg: RunConfig) -> None:
    records = run_experiment(cfg.options["plan"])
    emit_records(records, cfg.output_path)


_RUNNERS = {
    "sample": _run_sample,
    "check": _run_check,
    "bounds": _run_bounds,
    "asymptotics": _run_asymptotics,
    "experiment": _run_experiment,
}


def main(argv=None) -> int:
    """Run one invocation; returns the process exit code."""
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code is None else int(exc.code)
    try:
        _RUNNERS[cfg.subcommand](cfg)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (LPStallError, EnumerationLimitError) as exc:
        print(f"LP diagnostic: {exc}", file=sys.stderr)
        return EXIT_LP
    except OSError as exc:
        target = getattr(exc, "filename", None) or cfg.output_path
        print(f"write failed for {target}: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
