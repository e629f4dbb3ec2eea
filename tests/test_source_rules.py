"""Rules the package source must keep, checked on its syntax tree."""

import ast
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


VALIDATOR_MODULE = "errors.py"  # home of check_int and check_real


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
