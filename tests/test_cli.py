"""CLI surface: grammar, exit codes, and bit-exact CSV emission."""

import hashlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import layersep
from layersep import separability
from layersep.bounds import evaluate_bound
from layersep.cli import (
    BOUND_CURVE_HEADER,
    EXIT_DOMAIN,
    EXIT_LP,
    EXIT_OK,
    EXIT_USAGE,
    RECORD_HEADER,
    emit_bound_curves,
    emit_records,
    main,
    parse_args,
    read_records,
)
from layersep.errors import DomainError, LPStallError
from layersep.experiments import ExperimentPlan, run_experiment
from layersep.geometry import LayerSpec, sample_layer
from layersep.separability import (
    fisher_point_vs_set,
    fisher_separable_set,
    linearly_separable_set,
    lp_point_vs_set,
)


def experiment_argv(*extra):
    return ["experiment", "--mode", "point", "--d", "3", "--r", "0.5",
            "--n", "10", "--trials", "4", "--seed", "11", *extra]


# ---------------------------------------------------------------------------
# grammar and parse_args


def test_range_grammar_int():
    cfg = parse_args(["experiment", "--mode", "set", "--d", "5:80:5",
                      "--r", "0,0.5,0.9", "--n", "12", "--trials", "2", "--seed", "42"])
    plan = cfg.plan
    assert plan.d_values == tuple(range(5, 81, 5))
    assert plan.d_values[-1] == 80  # stop is inclusive
    assert plan.r_values == (0.0, 0.5, 0.9)
    assert plan.mode == "set_level"


def test_range_grammar_mixed_and_float_snapping():
    cfg = parse_args(["bounds", "--id", "p1_linear_lb", "--d", "1:4:1,10,40",
                      "--r", "0:0.9:0.1", "--n", "100"])
    assert cfg.d == (1, 2, 3, 4, 10, 40)
    assert cfg.r == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_scalar_radius_parses_verbatim():
    cfg = parse_args(["bounds", "--id", "p1_fisher_lb", "--d", "5",
                      "--r", "0.8660254037844386", "--n", "10"])
    assert cfg.r == (0.8660254037844386,)


def test_experiment_defaults():
    cfg = parse_args(["experiment", "--mode", "point", "--seed", "1"])
    plan = cfg.plan
    assert plan.d_values == tuple(range(1, 61))
    assert plan.r_values == (0.0, 0.5, 0.8, 0.9)
    assert plan.n == 10000 and plan.trials == 60
    assert plan.deterministic_timing  # byte-identical reruns by default

    cfg = parse_args(["experiment", "--mode", "set", "--seed", "1", "--measure-timing"])
    plan = cfg.plan
    assert plan.d_values == tuple(range(1, 81))
    assert plan.n == 1000
    assert not plan.deterministic_timing


@pytest.mark.parametrize(
    "argv",
    [
        experiment_argv("--trials", "0"),
        ["experiment", "--mode", "point", "--d", "3", "--n", "10"],  # no seed
        ["experiment", "--mode", "orbit", "--seed", "1"],
        experiment_argv("--d", "5:1:1"),
        experiment_argv("--d", "1:10:0"),
        experiment_argv("--r", "0.5:0.4:0.1"),
        experiment_argv("--seed", "-3"),
        experiment_argv("--kinds", "linear,euclidean"),
        ["bounds", "--id", "p_linear_ub", "--d", "3"],
        ["bounds", "--id", "n1_fisher", "--d", "3"],  # count bound, no theta
        ["bounds", "--id", "n1_fisher", "--d", "3", "--theta", "1.5"],
        ["asymptotics", "--op", "eq1_asymptotic", "--r", "0.5"],  # no theta
        ["asymptotics", "--op", "fisher_gap_exact", "--r", "0.5"],  # no n
        ["asymptotics", "--op", "classify", "--r", "0.5"],  # no context
        ["bounds", "--id", "p_linear_lb", "--d", "3", "--frobnicate"],
        ["navigate"],
        ["bounds", "--id", "p1_linear_lb", "--d", "3", "--r", "nan:1:0.1"],
        ["bounds", "--id", "p1_linear_lb", "--d", "3", "--r", "0:inf:0.5"],
        ["bounds", "--id", "p1_linear_lb", "--d", "3", "--r", "0:1:inf"],
        ["bounds", "--id", "p1_linear_lb", "--d", "1,,2"],  # empty entry
        ["bounds", "--id", "p1_linear_lb", "--d", "1:2"],  # two-part range
        ["bounds", "--id", "p1_linear_lb", "--d", "a"],  # not an int
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == EXIT_USAGE
    capsys.readouterr()  # swallow argparse noise


def test_domain_error_exit_3(capsys):
    assert main(["asymptotics", "--op", "eq1_asymptotic", "--r", "0",
                 "--theta", "0.5", "--d", "10"]) == EXIT_DOMAIN
    assert "domain error" in capsys.readouterr().err


def test_lp_diagnostic_exit_4(tmp_path, capsys, monkeypatch):
    source = tmp_path / "pts.csv"
    source.write_text("0.5,0\n0,0.5\n0.1,0.1\n", encoding="utf-8")

    def stall(*args, **kwargs):
        raise LPStallError("simplex stalled")

    monkeypatch.setattr("layersep.cli.lp_point_vs_set", stall)
    assert main(["check", "--input", str(source), "--mode", "point",
                 "--kind", "linear"]) == EXIT_LP
    assert "LP diagnostic" in capsys.readouterr().err


def test_python_dash_m_runs_main(capsys):
    argv = ["bounds", "--id", "p1_linear_lb", "--d", "3", "--n", "4"]
    assert main(argv) == EXIT_OK
    want = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(layersep.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "layersep", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert (done.returncode, done.stdout) == (EXIT_OK, want)


def test_io_error_exit_1_names_the_file(tmp_path, capsys):
    # a missing input is a read failure, not a write failure; either way the
    # message names the file and the exit code is 1
    missing = tmp_path / "missing.csv"
    assert main(["check", "--input", str(missing)]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err
    assert "write" not in err.replace(str(missing), "")
    assert main(["sample", "--d", "2", "--n", "3", "--output", str(tmp_path)]) == 1
    assert str(tmp_path) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds subcommand


def test_bounds_single_result_printed(capsys):
    assert main(["bounds", "--id", "p_linear_lb", "--d", "20", "--n", "1024"]) == EXIT_OK
    line = capsys.readouterr().out
    assert "bound_id=p_linear_lb" in line
    assert "value=0.0009765625" in line
    assert "domain_status=ok" in line


def test_bounds_pair_count_past_float_range(capsys):
    assert main(["bounds", "--id", "p_linear_lb", "--d", "10", "--n", str(10**200)]) == EXIT_OK
    line = capsys.readouterr().out
    assert "value=0 raw_value=-inf" in line
    assert "clamped to 0" in line


def test_bound_curviness_clamp_threshold(tmp_path):
    dest = tmp_path / "curves.csv"
    emit_bound_curves(("p1_linear_lb",), tuple(range(1, 41)), (0.0,), 10000, None, str(dest))
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert lines[0] == BOUND_CURVE_HEADER
    assert len(lines) == 41
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        d, value = int(row[1]), float(row[5])
        assert row[0] == "p1_linear_lb"
        assert row[3] == "10000" and row[4] == ""  # theta unused
        if d <= 13:
            assert value == 0.0  # 2^d <= 10000: bound clamps
        else:
            assert value > 0.0
    assert float(rows[13][5]) == 1.0 - 10000.0 / 16384.0  # first positive, d=14


def test_bound_curves_undefined_rows(tmp_path):
    dest = tmp_path / "eq1.csv"
    emit_bound_curves(("eq1_n_fisher",), (5, 10), (0.0,), 0, 0.5, str(dest))
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        row = line.split(",")
        assert row[6] == "undefined"
        assert math.isnan(float(row[5]))
        assert row[3] == "" and row[4] == "0.5"  # n unused for count bounds


def test_bound_curves_match_pointwise_evaluation(tmp_path):
    dest = tmp_path / "pf.csv"
    d_values = tuple(range(1, 81))
    emit_bound_curves(("p_fisher_lb",), d_values, (0.5,), 1000, None, str(dest))
    lines = dest.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 80
    for line, d in zip(lines, d_values):
        emitted = float(line.split(",")[5])
        direct = evaluate_bound("p_fisher_lb", d=d, r=0.5, n=1000).value
        assert emitted == direct  # bit-exact passthrough


# ---------------------------------------------------------------------------
# record CSV emission


def small_records(**overrides):
    fields = dict(mode="point_level", d_values=(6, 3), r_values=(0.5, 0.0),
                  n=15, trials=6, master_seed=99, deterministic_timing=True)
    fields.update(overrides)
    return run_experiment(ExperimentPlan(**fields))


def test_emit_records_schema_and_order(tmp_path):
    dest = tmp_path / "records.csv"
    emit_records(small_records(), str(dest))
    text = dest.read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == RECORD_HEADER
    assert len(RECORD_HEADER.split(",")) == 15
    assert len(lines) == 5
    keys = [(rec.r, rec.d) for rec in read_records(dest)]  # 15 fields a row
    assert keys == sorted(keys)  # rows sorted by (r, d)


def test_emit_records_empty_and_repeatable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_records([], str(a))
    assert a.read_text(encoding="utf-8") == RECORD_HEADER + "\n"
    records = small_records()
    emit_records(records, str(a))
    emit_records(records, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_record_csv_round_trip_bit_exact(tmp_path):
    records = small_records()
    dest = tmp_path / "rt.csv"
    emit_records(records, str(dest))
    assert read_records(dest) == sorted(records, key=lambda rec: (rec.r, rec.d))


@pytest.mark.parametrize("kinds", ["linear,fisher", "fisher", "linear"])
@pytest.mark.parametrize("mode", ["point", "set"])
def test_read_records_reemits_the_same_bytes(tmp_path, mode, kinds):
    # NaN columns (the kind a plan does not record) included
    source, again = tmp_path / "source.csv", tmp_path / "again.csv"
    assert main(["experiment", "--mode", mode, *PINNED_EXPERIMENT, "--kinds", kinds,
                 "--output", str(source)]) == EXIT_OK
    emit_records(read_records(source), str(again))
    assert again.read_bytes() == source.read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "d,r,n\n",
        RECORD_HEADER.replace("d,r", "r,d") + "\n",
        RECORD_HEADER + "\n3,0.5,10,4\n",
        RECORD_HEADER + "\n" + ",".join(["1"] * 16) + "\n",
        RECORD_HEADER + "\n3.5" + ",1" * 14 + "\n",
        RECORD_HEADER + "\n3,half" + ",1" * 13 + "\n",
    ],
)
def test_read_records_rejects_malformed_files(tmp_path, text):
    source = tmp_path / "bad.csv"
    source.write_text(text, encoding="utf-8")
    with pytest.raises(DomainError):
        read_records(source)


def test_negative_zero_radius_is_zero(tmp_path, capsys):
    # -0.0 == 0.0, but trial seeds key on the bits of r and the renderer keeps
    # the sign: a radius of -0 used to run other trials and print "-0"
    plain, signed = small_records(r_values=(0.0,)), small_records(r_values=(-0.0,))
    assert signed == plain
    plain_csv, signed_csv = tmp_path / "plain.csv", tmp_path / "signed.csv"
    emit_records(plain, str(plain_csv))
    emit_records(signed, str(signed_csv))
    assert signed_csv.read_bytes() == plain_csv.read_bytes()
    for argv in (experiment_argv(), ["bounds", "--id", "p1_linear_lb", "--d", "3"]):
        outputs = []
        for r_text in ("0", "-0", "-0:0.5:1"):
            assert main([*argv, f"--r={r_text}"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2] == outputs[0]
        assert ",0," in outputs[0] or " r=0 " in outputs[0]


def test_repeated_grid_entries_run_once(tmp_path):
    dests = []
    for d_text in ("4,10,10", "10,4"):
        dests.append(tmp_path / f"d{len(dests)}.csv")
        argv = ["experiment", "--mode", "point", "--d", d_text, "--r", "0.5,0,0.5",
                "--n", "10", "--trials", "3", "--seed", "5", "--output", str(dests[-1])]
        assert main(argv) == EXIT_OK
    assert dests[0].read_bytes() == dests[1].read_bytes()
    assert len(read_records(dests[0])) == 4


def test_experiment_cli_byte_identical_across_workers(tmp_path):
    base = ["experiment", "--mode", "set", "--d", "2,10", "--r", "0,0.5",
            "--n", "40", "--trials", "8", "--seed", "314"]
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert main(base + ["--workers", "1", "--output", str(out1)]) == EXIT_OK
    assert main(base + ["--workers", "4", "--output", str(out4)]) == EXIT_OK
    assert out1.read_bytes() == out4.read_bytes()


@pytest.mark.parametrize("mode", ["point", "set"])
def test_experiment_cli_byte_identical_across_the_pool_threshold(tmp_path, mode):
    # n·d of 4,000 and 18,000 run on the calling thread, 20,000 and 24,000 in the pool
    base = ["experiment", "--mode", mode, "--d", "2,9,10,12", "--r", "0,0.5",
            "--n", "2000", "--trials", "3", "--seed", "314"]
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert main(base + ["--workers", "1", "--output", str(out1)]) == EXIT_OK
    assert main(base + ["--workers", "4", "--output", str(out4)]) == EXIT_OK
    assert out1.read_bytes() == out4.read_bytes()


# ---------------------------------------------------------------------------
# sample and check subcommands


def test_sample_deterministic_and_in_shell(tmp_path, capsys):
    argv = ["sample", "--d", "3", "--r", "0.5", "--n", "40", "--seed", "5"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 41
    pts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    norms = np.linalg.norm(pts, axis=1)
    assert norms.min() >= 0.5 - 1e-12 and norms.max() <= 1.0 + 1e-12


def test_check_set_mode_square_corners(tmp_path, capsys):
    source = tmp_path / "corners.csv"
    source.write_text("x1,x2\n0.9,0\n0,0.9\n-0.9,0\n0,-0.9\n", encoding="utf-8")
    assert main(["check", "--input", str(source)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "kind=fisher all_separable=true" in out
    assert "kind=linear all_separable=true" in out


CORNERS = "x1,x2\n0.9,0\n0,0.9\n-0.9,0\n0,-0.9\n"


# a 10-d shell sample at 17 digits that fails both set checks: the first
# Fisher failure is point 0, the first linear failure point 175
SAMPLED = "".join(",".join(format(v, ".17g") for v in row) + "\n"
                  for row in sample_layer(LayerSpec(10, 0.5), 1000, 11).points)


@pytest.mark.parametrize("kind", ["both", "fisher", "linear"])
@pytest.mark.parametrize("text", [CORNERS, SAMPLED], ids=["corners", "sampled"])
def test_check_set_mode_runs_one_gram_pass(tmp_path, capsys, monkeypatch, kind, text):
    # a linear report's flags are its Fisher screen, so no kind needs a second pass
    calls = []
    real = separability.fisher_flags

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(separability, "fisher_flags", counted)
    source = tmp_path / "points.csv"
    source.write_text(text, encoding="utf-8")
    assert main(["check", "--input", str(source), "--kind", kind]) == EXIT_OK
    assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("text, failures", [(CORNERS, ("", "")), (SAMPLED, ("0", "175"))],
                         ids=["corners", "sampled"])
def test_check_both_prints_the_fisher_then_the_linear_output(tmp_path, capsys, text, failures):
    source = tmp_path / "points.csv"
    source.write_text(text, encoding="utf-8")
    outputs = {}
    for kind in ("fisher", "linear", "both"):
        assert main(["check", "--input", str(source), "--kind", kind]) == EXIT_OK
        outputs[kind] = capsys.readouterr().out
    assert outputs["both"] == outputs["fisher"] + outputs["linear"]
    separable = str(not failures[0]).lower()
    assert outputs["fisher"] == f"kind=fisher all_separable={separable} first_failure={failures[0]}\n"
    assert outputs["linear"].startswith(
        f"kind=linear all_separable={separable} first_failure={failures[1]} ")


@pytest.mark.parametrize("mode, lp_name", [
    ("point", "layersep.cli.lp_point_vs_set"),
    ("set", "layersep.separability.lp_point_vs_set"),
], ids=["point", "set"])
def test_check_prints_no_verdict_before_an_lp_stall(tmp_path, capsys, monkeypatch, mode, lp_name):
    # the last point is interior, so the linear check reaches the LP, which
    # stalls: the run exits 4 without the Fisher line it had already decided
    def stall(*args, **kwargs):
        raise LPStallError("simplex stalled")

    monkeypatch.setattr(lp_name, stall)
    source = tmp_path / "pts.csv"
    source.write_text("0.5,0\n0,0.5\n-0.5,0\n0,-0.5\n0.1,0.1\n", encoding="utf-8")
    assert main(["check", "--input", str(source), "--mode", mode, "--kind", "both"]) == EXIT_LP
    captured = capsys.readouterr()
    assert captured.out == "" and "LP diagnostic" in captured.err


def test_check_reads_stdin(tmp_path, capsys, monkeypatch):
    source = tmp_path / "corners.csv"
    source.write_text(CORNERS, encoding="utf-8")
    assert main(["check", "--input", str(source)]) == EXIT_OK
    want = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(CORNERS))
    assert main(["check", "--input", "-"]) == EXIT_OK
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("text, mode, message", [
    ("", "set", "no data rows"),
    ("x1,x2\n", "set", "only a header"),
    ("0.5,0.5\n", "point", "at least 2 rows"),
], ids=["empty", "header_only", "point_mode_one_row"])
def test_check_rejects_too_few_rows(tmp_path, capsys, text, mode, message):
    source = tmp_path / "points.csv"
    source.write_text(text, encoding="utf-8")
    assert main(["check", "--input", str(source), "--mode", mode]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_check_point_mode_interior_query(tmp_path, capsys):
    source = tmp_path / "interior.csv"
    rows = "9,0\n0,9\n-9,0\n0,-9\n0.5,0.5\n"  # checked as read, outside the unit ball
    source.write_text(rows, encoding="utf-8")
    assert main(["check", "--input", str(source), "--mode", "point"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "kind=fisher separable=false" in out
    assert "kind=linear separable=false" in out


@pytest.mark.parametrize("mode", ["set", "point"])
def test_check_output_independent_of_a_huge_scale(tmp_path, capsys, mode):
    # squares of coordinates near 1e200 overflow; the checks take the input as
    # read and decide it times 2**-e, so the verdict fields are the unit
    # triangle's, and the printed LP margin is lp_point_vs_set's on the input
    def check(scale):
        source = tmp_path / "triangle.csv"
        rows = [[x * scale, y * scale] for x, y in [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]]
        source.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows), encoding="utf-8")
        assert main(["check", "--input", str(source), "--mode", mode]) == EXIT_OK
        out = capsys.readouterr().out
        fields = [dict(field.split("=") for field in line.split()) for line in out.splitlines()]
        if mode == "point":
            points = np.array(rows)
            margin = lp_point_vs_set(points[-1], points[:-1]).margin
            assert float(fields[-1].pop("margin")) == margin
        return fields

    unit = check(1.0)
    assert [line.get("separable", line.get("all_separable")) for line in unit] == ["true"] * 2
    assert check(2.0**600) == unit
    assert check(1e200) == unit


@pytest.mark.parametrize("mode", ["set", "point"])
@pytest.mark.parametrize("kind", ["fisher", "linear"])
def test_check_verdicts_independent_of_a_tiny_scale(tmp_path, capsys, mode, kind):
    # at 2**-600 every square underflows; the checks decide the input times
    # 2**-e, so the verdict fields are the unit triangle's (the printed margin
    # scales), with no scale-up in the command itself
    def verdict(scale):
        source = tmp_path / "triangle.csv"
        rows = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
        source.write_text("".join(f"{x * scale!r},{y * scale!r}\n" for x, y in rows),
                          encoding="utf-8")
        argv = ["check", "--input", str(source), "--mode", mode, "--kind", kind]
        assert main(argv) == EXIT_OK
        fields = dict(field.split("=") for field in capsys.readouterr().out.split())
        fields.pop("margin", None)
        return fields

    unit = verdict(1.0)
    assert unit["kind"] == kind and "true" in unit.values()
    assert verdict(2.0**-600) == unit
    assert verdict(2.0**-1070) == unit  # subnormal input


# (x, y) = (x, x) = 106 for the last row x against the first y: a Fisher tie
TIE = [[-954.0, -832.0, 474.0], [0.25, -2.25, -4.25], [0.0, 5.0, 9.0]]


@pytest.mark.parametrize("e", [0, -600, 600])
def test_check_gives_the_library_verdicts_on_a_fisher_tie(tmp_path, capsys, e):
    # the command checks the points as read; a rescaling of its own rounds
    # them and turns the exact tie into a separable verdict
    points = np.ldexp(TIE, e)
    source = tmp_path / "tie.csv"
    source.write_text("".join(",".join(map(repr, row)) + "\n" for row in points.tolist()),
                      encoding="utf-8")

    def check(mode):
        assert main(["check", "--input", str(source), "--mode", mode]) == EXIT_OK
        return [dict(field.split("=") for field in line.split())
                for line in capsys.readouterr().out.splitlines()]

    fisher = fisher_point_vs_set(points[-1], points[:-1])
    linear = lp_point_vs_set(points[-1], points[:-1])
    assert fisher.margin == 0.0 and not fisher.separable
    assert check("point") == [{"kind": "fisher", "separable": "false"},
                              {"kind": "linear", "separable": str(linear.separable).lower(),
                               "margin": format(linear.margin, ".17g")}]
    report = fisher_separable_set(points)
    assert (report.all_separable, report.first_failure) == (False, 2)
    fisher_line, linear_line = check("set")
    assert fisher_line == {"kind": "fisher", "all_separable": "false", "first_failure": "2"}
    assert linear_line["all_separable"] == str(linearly_separable_set(points).all_separable).lower()


def test_check_rejects_ragged_rows(tmp_path, capsys):
    source = tmp_path / "ragged.csv"
    source.write_text("0.1,0.2\n0.3\n", encoding="utf-8")
    assert main(["check", "--input", str(source)]) == EXIT_DOMAIN
    capsys.readouterr()


@pytest.mark.parametrize(
    "first_row, code",
    [
        ("x1,x2", EXIT_OK),  # every cell is text: a header
        ("0.5,abc", EXIT_DOMAIN),  # numbers and text: a malformed point, not a header
        ("abc,0.5", EXIT_DOMAIN),
    ],
)
def test_check_first_row_is_a_header_only_when_all_text(tmp_path, capsys, first_row, code):
    source = tmp_path / "points.csv"
    source.write_text(f"{first_row}\n0.9,0\n0,0.9\n-0.9,0\n0,-0.9\n", encoding="utf-8")
    assert main(["check", "--input", str(source)]) == code
    captured = capsys.readouterr()
    if code == EXIT_DOMAIN:
        assert captured.out == "" and "row 0" in captured.err


# ---------------------------------------------------------------------------
# asymptotics subcommand


def test_asymptotics_sweep_lines(capsys):
    assert main(["asymptotics", "--op", "eq1_asymptotic", "--r", "0.9",
                 "--theta", "0.5", "--d", "10,20"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("op=eq1_asymptotic d=10 r=0.9")
    assert "regime=above_critical" in lines[0]


def test_asymptotics_ratio_law_line(capsys):
    assert main(["asymptotics", "--op", "gap_ratio_linear_vs_fisher", "--r", "0.8",
                 "--n", "10", "--d", "50"]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    assert "limit_tag=diverges" in line
    assert "exact=" in line and "approximant=" in line


ASYMPTOTICS_LINES = {
    "eq1_asymptotic": (
        "--theta", "0.25",
        "op=eq1_asymptotic d=3 r=0.75 theta=0.25 regime=below_critical value=1.3144723621664034 log_value=0.27343533960837824",
        "op=eq1_asymptotic d=40 r=0.75 theta=0.25 regime=below_critical value=2752.3548726701674 log_value=7.9202121415647069",
        "op=eq1_asymptotic d=120 r=0.75 theta=0.25 regime=below_critical value=41700693873.043617 log_value=24.453783605254063",
    ),
    "fisher_ratio_f_over_g": (
        "--theta", "0.25",
        "op=fisher_ratio_f_over_g d=3 r=0.75 theta=0.25 regime=below_critical exact=1.8401948925486771 approximant=0.70710678118654757 limit_value=0.70710678118654746 limit_tag=converges",
        "op=fisher_ratio_f_over_g d=40 r=0.75 theta=0.25 regime=below_critical exact=0.74733387136727791 approximant=0.70710678118654757 limit_value=0.70710678118654746 limit_tag=converges",
        "op=fisher_ratio_f_over_g d=120 r=0.75 theta=0.25 regime=below_critical exact=0.70716676420348001 approximant=0.70710678118654757 limit_value=0.70710678118654746 limit_tag=converges",
    ),
    "layer_count_ratio": (
        "--theta", "0.25",
        "op=layer_count_ratio d=3 r=0.75 theta=0.25 regime=below_critical exact=1.5215230518074698 approximant=1.5215230518074698 limit_value=inf limit_tag=diverges",
        "op=layer_count_ratio d=40 r=0.75 theta=0.25 regime=below_critical exact=269.3893899917602 approximant=269.3893899917602 limit_value=inf limit_tag=diverges",
        "op=layer_count_ratio d=120 r=0.75 theta=0.25 regime=below_critical exact=19549761.367646802 approximant=19549761.367646869 limit_value=inf limit_tag=diverges",
    ),
    "fisher_gap_exact": (
        "--n", "12",
        "op=fisher_gap_exact d=3 r=0.75 n=12 gap=1 log_gap=0",
        "op=fisher_gap_exact d=40 r=0.75 n=12 gap=0.00012502798553076447 log_gap=-8.9869729614741942",
        "op=fisher_gap_exact d=120 r=0.75 n=12 gap=1.2204880410020494e-14 log_gap=-32.036940489555349",
    ),
    "fisher_gap_asymptotic": (
        "--n", "12",
        "op=fisher_gap_asymptotic d=3 r=0.75 n=12 regime=above_critical value=5.0625 log_value=1.6218604324326575",
        "op=fisher_gap_asymptotic d=40 r=0.75 n=12 regime=above_critical value=0.00012067902193965014 log_value=-9.0223762482832353",
        "op=fisher_gap_asymptotic d=120 r=0.75 n=12 regime=above_critical value=1.2204861433028467e-14 log_value=-32.036942044425707",
    ),
    "gap_ratio_linear_vs_fisher": (
        "--n", "12",
        "op=gap_ratio_linear_vs_fisher d=3 r=0.75 n=12 regime=above_critical exact=0.060606060606060615 approximant=0.30681818181818177 limit_value=inf limit_tag=diverges",
        "op=gap_ratio_linear_vs_fisher d=40 r=0.75 n=12 regime=above_critical exact=1041437.3021854936 approximant=1005212.0291763665 limit_value=inf limit_tag=diverges",
        "op=gap_ratio_linear_vs_fisher d=120 r=0.75 n=12 regime=above_critical exact=1.2290203580459187e+20 approximant=1.2290184470800707e+20 limit_value=inf limit_tag=diverges",
    ),
    "classify": (
        "--context", "set_gap",
        "op=classify context=set_gap r=0.75 regime=above_critical critical_value=0.70710678118654757",
    ),
}


@pytest.mark.parametrize("op", sorted(ASYMPTOTICS_LINES))
def test_asymptotics_stdout_exact(op, capsys):
    # frozen output of every op at one (r, theta or n, d-grid): the bytes are
    # the interface, so a refactor of the runner must reproduce them exactly
    flag, value, *lines = ASYMPTOTICS_LINES[op]
    assert main(["asymptotics", "--op", op, "--r", "0.75", flag, value,
                 "--d", "3,40:120:80"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "d_text, d_values, r_text, r_values",
    [
        ("1:10:3", (1, 4, 7, 10), "0:1:0.3", (0.0, 0.3, 0.6, 0.9)),
        ("4,2:8:2, 9", (4, 2, 4, 6, 8, 9),
         "0.05:0.95:0.15", (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)),
        ("7:7:5,-3:3:2", (7, -3, -1, 1, 3),
         "0.9,0:0.5:0.1,0.25", (0.9, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.25)),
        ("100", (100,), "0.1:0.1:1,1e-3:3e-3:1e-3", (0.1, 0.001, 0.002, 0.003)),
        ("1_0", (10,), "0:3:1,1:2:0.7", (0.0, 1.0, 2.0, 3.0, 1.0, 1.7)),
    ],
)
def test_grid_parser_tuples(d_text, d_values, r_text, r_values):
    opts = parse_args(["bounds", "--id", "p1_linear_lb", "--d", d_text, "--r", r_text])
    assert opts.d == d_values
    assert opts.r == r_values
    assert all(type(d) is int for d in opts.d)
    assert all(type(r) is float for r in opts.r)


# ---------------------------------------------------------------------------
# pinned outputs

PINNED_POINTS = {
    # 3-d shell sample: some points interior, so the set checks fail
    "sampled.csv": None,
    # the last row lies inside the diamond of the first four
    "diamond.csv": "x1,x2\n0.9,0\n0,0.9\n-0.9,0\n0,-0.9\n0.1,0.2\n",
}
PINNED_EXPERIMENT = ("--d", "1,4,12", "--r", "0,0.8", "--n", "30", "--trials", "5",
                     "--seed", "7")
PINNED_CALLS = (
    *(["check", "--input", name, "--mode", mode, "--kind", kind]
      for name in PINNED_POINTS
      for mode in ("point", "set")
      for kind in ("linear", "fisher", "both")),
    ["bounds", "--id", "p_linear_lb", "--d", "10", "--n", str(10**200)],  # note
    ["bounds", "--id", "n_fisher", "--d", "30", "--r", "0.5", "--theta", "0.01"],
    ["bounds", "--id", "eq1_n_fisher", "--d", "30", "--r", "0", "--theta", "0.01"],
    # d=0 and r=1 rows carry domain_status=error
    ["bounds", "--id", "all", "--d", "0,2,40", "--r", "0,0.5,1", "--n", "1000",
     "--theta", "0.01"],
    *(["asymptotics", "--op", "classify", "--r", r, "--context", context]
      for r in ("0.75", "0.5")
      for context in ("fisher_count", "count_ratio", "set_gap")),
    ["sample", "--d", "2", "--r", "0.5", "--n", "5", "--seed", "3"],
    *(["experiment", "--mode", mode, *PINNED_EXPERIMENT, "--kinds", kinds]
      for mode in ("point", "set")
      for kinds in ("linear,fisher", "fisher", "linear")),
)
CLI_PINNED_DIGEST = "ff02b245f1f31878da128c548f97d680d210f2db3c80872272034e0e76624039"


def test_cli_outputs_pinned(tmp_path, monkeypatch, capsys):
    """The exit code and stdout of a fixed set of invocations hash to one
    pinned digest, so no change to the renderers can move an emitted byte."""
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--d", "3", "--r", "0.3", "--n", "12", "--seed", "4",
                 "--output", "sampled.csv"]) == EXIT_OK
    (tmp_path / "diamond.csv").write_text(PINNED_POINTS["diamond.csv"], encoding="utf-8")
    digest = hashlib.sha256()
    for argv in PINNED_CALLS:
        code = main(argv)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == CLI_PINNED_DIGEST
