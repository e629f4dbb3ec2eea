"""Rules the package source must keep, checked on its syntax tree."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "layersep"


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; checks must raise instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


VALIDATOR_MODULE = "errors.py"  # home of check_int, check_real and check_points


def _is_hand_written_int_check(node) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "is_integer":
        return True
    # isinstance(x, bool) or isinstance(x, (..., bool, ...))
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds)


def test_integer_checks_only_in_the_validator():
    # one validator per parameter kind: hand-written copies drift apart (one
    # once let None through as a TypeError instead of a DomainError)
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != VALIDATOR_MODULE)
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_hand_written_int_check(node)
    ]
    assert not found, f"integer checks outside {VALIDATOR_MODULE}: {found}"


def _compares_ndim(node) -> bool:
    # a.ndim != 2 and the like: a hand-written shape check of an input array
    return isinstance(node, ast.Compare) and any(
        isinstance(part, ast.Attribute) and part.attr == "ndim"
        for part in (node.left, *node.comparators)
    )


def test_shape_checks_only_in_the_validator():
    # one validator per parameter kind: errors.check_points checks that a set
    # of points is (n, d), and check_point_set that a point fits its set; a
    # copy elsewhere could let another shape through, as the set checks did
    # when they relied on a PointCloud for it
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != VALIDATOR_MODULE)
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _compares_ndim(node)
    ]
    assert not found, f"ndim comparisons outside {VALIDATOR_MODULE}: {found}"


def test_array_finiteness_only_in_the_helper():
    # one finiteness test, math.isfinite of dyadic.peak: np.isfinite over an
    # array builds a mask the size of the array, and copies of a check drift apart
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "isfinite"
        and not (isinstance(node.value, ast.Name) and node.value.id == "math")
    ]
    assert not found, f"array finiteness checks not read off dyadic.peak: {found}"


def _top_level_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_exact_oracle_shares_no_code_with_the_lp():
    # the exact oracle is the ground truth the LP verdicts are checked against:
    # code the two shared could be wrong on both sides and still agree
    lp_names = _top_level_names(ast.parse((PACKAGE / "lp.py").read_text()))
    assert "solve_standard_form" in lp_names
    path = PACKAGE / "exact.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[-1] == "lp"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "lp":
                found.append(f"from {'.' * node.level}{node.module} import ...")
            found += [alias.name for alias in node.names
                      if alias.name == "lp" or alias.name in lp_names]
    assert not found, f"exact.py imports from the LP: {found}"


def test_the_simplex_validates_no_input():
    # the hull program's one builder, separability.lp_point_vs_set, vouches for
    # it; checks of outside input stay at the public entry points, so the
    # solver needs no DomainError, and a check that comes back re-proves what
    # its caller built
    path = PACKAGE / "lp.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            from_errors = (node.module or "").split(".")[-1] == "errors"
            found += [alias.name for alias in node.names if alias.name == "errors"
                      or (from_errors and alias.name != "LPStallError")]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[-1] == "errors"]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if getattr(node, "id", getattr(node, "attr", None)) == "DomainError":
                found.append(f"DomainError at line {node.lineno}")
    assert not found, f"lp.py validates input: {found}"


PICK_HELPER = "first_extreme"  # lp's one argmin/argmax, on Python floats for small arrays


def test_argmin_and_argmax_only_in_the_pick_helper():
    # NumPy's argmin and argmax hand the GIL to another thread on every call,
    # whatever the size: on a 13-entry array two threads ran either at 0.24-0.70
    # of one thread's rate (five runs on a 2-core host), where lp.first_extreme's
    # Python-float path, which holds the GIL, kept a median 0.98 (seven runs);
    # the tiny hull LPs of criterion 2 make several such picks each
    found = []
    for name in ("lp.py", "separability.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        helper = {id(node) for top in tree.body if getattr(top, "name", None) == PICK_HELPER
                  for node in ast.walk(top)}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("argmin", "argmax")
                  and id(node) not in helper]
    assert not found, f"argmin/argmax outside lp.{PICK_HELPER}: {found}"


def test_the_separability_checks_raise_no_domain_error_of_their_own():
    # outside input is checked by errors.check_points (a set), check_point_set
    # (a point and a set) and check_real; the checks decide x and the set times
    # 2**-e, so no finite input can overflow the hull program, and no scale
    # needs a rejection of its own
    path = PACKAGE / "separability.py"
    found = [f"line {node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if getattr(node, "id", getattr(node, "attr", None)) == "DomainError"
             or isinstance(node, ast.alias) and node.name == "DomainError"]
    assert not found, f"separability.py names DomainError: {found}"


def test_no_module_imports_private_names():
    # a leading underscore marks a name its module may change at will; a
    # sibling that imports one couples itself to that module's internals
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "layersep")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, f"private names imported across modules: {found}"


FLOAT_SPEC = ".17g"  # the round-trippable rendering of every emitted real


def test_one_float_rendering():
    # every emitted real goes through cli._fmt; a second spelling of the
    # format could drift from it and break the bit-exact round trip of a CSV
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        (path.name, lineno)
        for path in sources
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if FLOAT_SPEC in line
    ]
    fmt = next(node for node in ast.parse((PACKAGE / "cli.py").read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == "_fmt")
    assert len(found) == 1, f"{FLOAT_SPEC!r} spelled {len(found)} times: {found}"
    (name, lineno), = found
    assert name == "cli.py" and fmt.lineno <= lineno <= fmt.end_lineno, (
        f"{FLOAT_SPEC!r} outside cli._fmt: {name}:{lineno}"
    )


POOL_CLASS = "ThreadPoolExecutor"


def test_one_thread_pool_per_run():
    # run_experiment runs the whole plan through one pool; a pool per cell or
    # per stage would bring back a barrier at each of its ends, where one
    # worker idles while the other finishes
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    assert all(alias.asname is None for alias in node.names
                               if alias.name.split(".")[-1] == POOL_CLASS), (
                        f"{POOL_CLASS} imported under another name: {path.name}:{node.lineno}"
                    )
                elif isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if called == POOL_CLASS:
                        found.append((path.name, getattr(top, "name", None), node.lineno))
    assert [(name, owner) for name, owner, _ in found] == [
        ("experiments.py", "run_experiment")
    ], f"{POOL_CLASS} built at {found}"


def test_every_export_resolves():
    # a name left in an __all__ after its definition is deleted breaks
    # `from layersep import *` and names an API that no longer exists
    modules = ["layersep"] + [f"layersep.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
                              if path.stem not in ("__init__", "__main__")]
    stale = []
    for name in modules:
        module = importlib.import_module(name)
        stale += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                  if not hasattr(module, export)]
    assert not stale, f"exports that resolve to nothing: {stale}"


EXPONENT_MODULE = "dyadic.py"  # home of split_peak and the integer scaling


def test_frexp_only_in_dyadic():
    # one exponent helper, dyadic.split_peak: a second spelling of "the power
    # of two that brings max|coord| into [0.5, 1)" could treat -0.0, empty input
    # or a temporary the size of the input differently
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != EXPONENT_MODULE)
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "frexp"
    ]
    assert not found, f"frexp outside {EXPONENT_MODULE}: {found}"


SET_CHECKS = ("fisher_separable_set", "linearly_separable_set")
SET_RULE = "set_report"  # experiments' one pick of the report that serves the check kinds


def test_set_checks_called_only_in_the_set_rule():
    # the CLI and the experiment runner pick the report by one rule, and the
    # set checks are looked up in experiments' globals, where a run's tracer
    # can wrap them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "separability.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        rule = {id(node) for top in tree.body if path.name == "experiments.py"
                and getattr(top, "name", None) == SET_RULE for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in rule:
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in SET_CHECKS:
                    found.append(f"{path.name}:{node.lineno} {called}")
            elif isinstance(node, ast.ImportFrom) and path.name == "cli.py":
                found += [f"cli.py:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name in SET_CHECKS]
    assert not found, f"set checks outside experiments.{SET_RULE}: {found}"
