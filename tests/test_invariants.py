"""Library invariants are raised as exceptions, never asserted: ``python -O``
strips ``assert`` statements.  No library module rebinds a module or
enclosing name, so no state is held outside the caches, and one call
empties every cache that belongs to one command.  Imports run one way:
the classifier, the sweep, the command line."""

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import qcharlab
from qcharlab import InvariantViolation, LMonomial, lweight, sweep, tensor
from qcharlab.cli import main
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


def test_one_call_empties_every_per_command_cache(tmp_path):
    # minaff's caches are pure functions of their arguments and persist by design
    caches = {
        f"{module.__name__}.{name}": obj
        for module in (tensor, sweep, lweight)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
    }
    assert {"qcharlab.tensor.classify_normal", "qcharlab.sweep._sweep_group", "qcharlab.lweight._peel_class"} <= set(caches)
    config = tmp_path / "sweep.json"
    grid = {"n_max": 2, "lambda_sum_max": 2, "k_max": 2, "variants": list(VARIANTS)}
    config.write_text(json.dumps({**grid, "output": str(tmp_path / "out.jsonl")}), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(config)]) == 0
    assert [name for name, cached in caches.items() if not cached.cache_info().currsize] == []
    sweep.clear_caches()  # the call cli.main makes before each command
    assert {name: cached.cache_info().currsize for name, cached in caches.items()} == dict.fromkeys(caches, 0)


def _imports(name: str) -> set[str]:
    """The absolute names a library module imports, each name of a ``from``
    import included, as it may be a module."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("qcharlab" if node.level else "", node.module)))
            found.update({module, *(f"{module}.{alias.name}" for alias in node.names)})
    return found


def test_imports_run_one_way():
    assert "qcharlab.sweep" in _imports("cli") and "qcharlab.tensor" in _imports("sweep")
    assert not _imports("tensor") & {"qcharlab.sweep", "qcharlab.cli"}
    assert "qcharlab.cli" not in _imports("sweep")


def test_importing_the_package_loads_no_sweep_and_no_pool():
    code = (
        "import sys, qcharlab; "
        "print([m for m in ('qcharlab.sweep', 'qcharlab.cli', 'concurrent.futures') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
