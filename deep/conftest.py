"""The grids of the deep oracle checks, each built once per session.

The checks compare fast paths with the brute-force references of
``tests/oracles.py`` on grids too large for Tier-1, which does not collect
this directory.  Run them with ``python -m pytest -q deep``.
"""

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import all_weights  # noqa: E402

from qcharlab import MinAffSpec, cli, drinfeld_of_spec, snake_shape, sweep  # noqa: E402

ROWS = {"r_window_pad": 2, "variants": ["normal", "a", "b", "c"], "parallelism": 1}


@pytest.fixture(scope="session")
def golden_lines(tmp_path_factory):
    """The golden sweep's 5,820 lines, written by ``cli.main`` and checked
    against the sha that CI pins for the installed command's output."""
    out = tmp_path_factory.mktemp("golden")
    config = out / "sweep.json"
    grid = {"n_max": 3, "lambda_sum_max": 3, "k_max": 3, **ROWS}
    config.write_text(json.dumps({**grid, "output": str(out / "sweep.jsonl")}))
    assert cli.main(["sweep", "--config", str(config)]) == 0
    data = (out / "sweep.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == "95e09524b4feec9a6e51bf2cb52a96c91cd4082ecea3e575423f0f57d87c3e1b"
    return data.decode("utf-8").splitlines(keepends=True)


@pytest.fixture(scope="session")
def grid4():
    """The n_max = lambda_sum_max = k_max = 4 sweep grid: its ``points``
    (spec, kr) in grid order, its ``groups`` (spec, node, k) and its
    ``loud`` points, those at a loud anchor of their group record."""
    cfg = sweep.SweepConfig.from_json({"n_max": 4, "lambda_sum_max": 4, "k_max": 4, **ROWS, "output": "unused"})
    points = list(sweep.sweep_grid(cfg))
    groups = list(dict.fromkeys((spec, kr.node, kr.k) for spec, kr in points))
    loud = [(spec, kr) for spec, kr in points if kr.r in sweep.sweep_group(spec, kr).loud]
    return SimpleNamespace(points=points, groups=groups, loud=loud)


@pytest.fixture(scope="session")
def shapes5():
    """Every n = 5 affinization with |lambda| <= 4, in both directions:
    spec -> (Drinfeld polynomial, snake shape)."""
    specs = [MinAffSpec(5, lam, d) for lam in all_weights(5, 4) for d in ("inc", "dec")]
    return {spec: (omega := drinfeld_of_spec(spec), snake_shape(omega)) for spec in specs}
