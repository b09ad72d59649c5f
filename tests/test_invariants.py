"""Library invariants are raised as exceptions, never asserted: ``python -O``
strips ``assert`` statements.  No library module rebinds a module or
enclosing name, so no state is held outside the caches."""

import ast
from pathlib import Path

import pytest

import qcharlab
from qcharlab import InvariantViolation, LMonomial
from qcharlab.tensor import VARIANTS, CaseTag, _socle_head

SRC = Path(qcharlab.__file__).resolve().parent


def test_no_assert_statements_in_the_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_global_or_nonlocal_statements_in_the_library():
    # every value a module holds between calls is a cache its module can empty
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert found == []


def test_reducible_tag_without_extra_factor_raises():
    lam = LMonomial.y(2, 1, 0)
    with pytest.raises(InvariantViolation):
        _socle_head(VARIANTS["normal"], CaseTag("case_i", 2, 1), lam, None)
