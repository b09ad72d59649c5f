"""Library invariants are raised as exceptions, never asserted: ``python -O``
strips ``assert`` statements."""

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


def test_reducible_tag_without_extra_factor_raises():
    lam = LMonomial.y(2, 1, 0)
    with pytest.raises(InvariantViolation):
        _socle_head(VARIANTS["normal"], CaseTag("case_i", 2, 1), lam, None)
