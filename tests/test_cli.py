import concurrent.futures
import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from itertools import groupby
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import all_weights, kr_json_reference, qchar_json_reference, report_json_reference, spec_json_reference
from qcharlab import InvariantViolation, KRSpec, MinAffSpec, cli, minaff, qchar, qchar_kr, tensor
from qcharlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _count_joins(monkeypatch) -> list:
    """Count ``anchor_join`` calls, as the product path (``minaff``) and the
    group path (``tensor``) look it up; the returned list grows by one per call."""
    joins = []
    join = minaff.anchor_join

    def counted(*args):
        joins.append(1)
        return join(*args)

    monkeypatch.setattr(minaff, "anchor_join", counted)
    monkeypatch.setattr(tensor, "anchor_join", counted)
    return joins


def _child_env() -> dict:
    """The environment of a child process that imports this ``qcharlab``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def qcharlab_process(*argv, **popen_args):
    """``python -m qcharlab *argv`` in a child process with piped output."""
    return subprocess.Popen(
        [sys.executable, "-m", "qcharlab", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        **popen_args,
    )


class TestQcharCommand:
    def test_fundamental_term_count(self, capsys):
        code, out, _ = run_cli(capsys, "qchar", "--n", "2", "--lambda", "1,0")
        assert code == 0
        assert "terms: 3" in out
        assert "Y[1,0]" in out

    def test_decreasing_adjoint(self, capsys):
        code, out, _ = run_cli(capsys, "qchar", "--n", "2", "--lambda", "1,1", "--dir", "dec")
        assert code == 0 and "terms: 8" in out

    def test_partition_oracle_matches_tableaux(self, capsys):
        code, tab_out, _ = run_cli(
            capsys, "qchar", "--n", "2", "--kr", "2,0,2", "--full", "--json"
        )
        assert code == 0
        code, part_out, _ = run_cli(
            capsys,
            "qchar", "--n", "2", "--kr", "2,0,2", "--full", "--json",
            "--oracle", "partitions",
        )
        assert code == 0
        assert json.loads(tab_out)["terms"] == json.loads(part_out)["terms"]

    def test_partition_oracle_takes_a_long_string(self, capsys):
        # one string step per part: more steps than a recursive walk could nest
        code, out, err = run_cli(capsys, "qchar", "--n", "1", "--kr", "1,0,990", "--oracle", "partitions")
        assert (code, err) == (0, "") and "terms: 991\n" in out

    def test_partition_oracle_rejects_first_node(self, capsys):
        code, _, err = run_cli(
            capsys, "qchar", "--n", "2", "--kr", "1,0,2", "--oracle", "partitions"
        )
        assert code == 2 and "error" in err

    def test_partition_oracle_rejects_an_affinization(self, capsys):
        code, out, err = run_cli(
            capsys, "qchar", "--n", "2", "--lambda", "1,0", "--oracle", "partitions"
        )
        assert code == 2 and out == ""
        assert "the partition oracle applies to last-node KR modules" in err

    def test_missing_spec_is_invalid(self, capsys):
        code, _, err = run_cli(capsys, "qchar", "--n", "2")
        assert code == 2

    def test_zero_weight_is_invalid(self, capsys):
        code, _, _ = run_cli(capsys, "qchar", "--n", "2", "--lambda", "0,0")
        assert code == 2

    def test_shift_with_a_kr_module_is_invalid(self, capsys):
        code, out, err = run_cli(capsys, "qchar", "--n", "2", "--kr", "2,0,2", "--shift", "5")
        assert code == 2 and out == ""
        assert "shift a KR module through its anchor r" in err

    def test_dir_with_a_kr_module_is_invalid(self, capsys):
        code, out, err = run_cli(capsys, "qchar", "--n", "2", "--kr", "2,0,1", "--dir", "dec")
        assert code == 2 and out == ""
        assert "a KR module has no direction" in err

    def test_dir_defaults_to_increasing(self, capsys):
        for extra, direction in (((), "inc"), (("--dir", "dec"), "dec")):
            code, out, _ = run_cli(capsys, "qchar", "--n", "2", "--lambda", "1,1", "--json", *extra)
            assert code == 0 and json.loads(out)["spec"]["dir"] == direction

    def test_shift_moves_an_affinization(self, capsys):
        code, out, _ = run_cli(capsys, "qchar", "--n", "2", "--lambda", "1,0", "--shift", "5", "--json")
        assert code == 0 and json.loads(out)["spec"]["shift"] == 5

    @pytest.mark.parametrize(
        "argv, key, spec",
        [
            (("--lambda", "1,0,1", "--dir", "dec", "--shift", "2"), "spec", MinAffSpec(3, (1, 0, 1), "dec", 2)),
            (("--kr", "1,-3,2"), "kr", KRSpec(3, 1, -3, 2)),
            (("--kr", "3,0,2", "--oracle", "partitions"), "kr", KRSpec(3, 3, 0, 2)),
        ],
        ids=["affinization", "kr", "partitions"],
    )
    def test_json_and_header_are_the_reference_dumps(self, capsys, argv, key, spec):
        if key == "spec":
            reference, qc = spec_json_reference(spec), qchar(spec)
        else:
            reference, qc = kr_json_reference(spec), qchar_kr(spec)
        code, out, _ = run_cli(capsys, "qchar", "--n", "3", *argv, "--json")
        assert code == 0
        assert out == cli._dumps({key: reference, "n": 3, "terms": qchar_json_reference(qc)}) + "\n"
        code, out, _ = run_cli(capsys, "qchar", "--n", "3", *argv)
        assert code == 0 and out.startswith(f"{key}: {cli._dumps(reference)}\n")


class TestTensorCommand:
    def test_dir_defaults_to_increasing(self, capsys):
        argv = ("tensor", "--n", "2", "--lambda", "1,1", "--kr", "2,3,1", "--json")
        outs = {}
        for extra in ((), ("--dir", "inc"), ("--dir", "dec")):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 0
            outs[extra] = json.loads(out)["lambda"]
        assert outs[()] == outs[("--dir", "inc")] != outs[("--dir", "dec")]

    def test_sl2_case_i(self, capsys):
        code, out, _ = run_cli(
            capsys, "tensor", "--n", "1", "--lambda", "1", "--kr", "1,-2,1"
        )
        assert code == 0
        assert "reducible (case i" in out and "lambda_prime: 1" in out

    def test_sl3_case_ii(self, capsys):
        code, out, _ = run_cli(
            capsys, "tensor", "--n", "2", "--lambda", "1,0", "--kr", "2,3,1"
        )
        assert code == 0 and "case ii" in out

    def test_sl3_irreducible(self, capsys):
        code, out, _ = run_cli(
            capsys, "tensor", "--n", "2", "--lambda", "1,0", "--kr", "2,0,1"
        )
        assert code == 0 and "verdict: irreducible" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "tensor", "--n", "2", "--lambda", "1,0", "--kr", "2,3,1", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["case"] == "ii" and data["kprime"] == 1
        assert data["lambda_prime"] == {"n": 2, "Y": []}

    @pytest.mark.parametrize(
        "spec, kr",
        [
            (MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 3, 1)),  # normal, case ii
            (MinAffSpec(2, (0, 1), "dec"), KRSpec(2, 1, -3, 1)),  # a, case i
            (MinAffSpec(2, (0, 1), "inc"), KRSpec(2, 1, 3, 1)),  # b, case i
            (MinAffSpec(3, (1, 1, 1), "dec", 2), KRSpec(3, 3, 0, 3)),  # c, case ii, five D terms
        ],
    )
    def test_json_is_the_reference_dump(self, capsys, spec, kr):
        argv = ["--n", str(spec.n), "--lambda", ",".join(map(str, spec.lam)), "--dir", spec.direction]
        argv += ["--shift", str(spec.shift), "--kr", f"{kr.node},{kr.r},{kr.k}", "--json"]
        code, out, _ = run_cli(capsys, "tensor", *argv)
        rep = tensor.classify_variant(spec, kr)
        assert code == 0 and rep.tag.reducible
        assert out == cli._dumps(report_json_reference(rep)) + "\n"

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tensor", "--n", "2", "--lambda", "1,0")
        assert code == 1 and "usage" in err

    def test_missing_lambda_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tensor", "--n", "2", "--kr", "2,3,1")
        assert code == 1 and "usage" in err and "--lambda" in err

    def test_each_command_starts_from_an_empty_memo(self, capsys, monkeypatch):
        joins = _count_joins(monkeypatch)
        argv = ("tensor", "--n", "2", "--lambda", "0,1", "--dir", "dec", "--kr", "1,3,1", "--json")
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and json.loads(first[1])["variant"] == "a"
        assert run_cli(capsys, *argv) == first
        # each command joins at the point and at its transported normal-form problem
        assert len(joins) == 4

    def test_bad_kr_triple(self, capsys):
        code, _, _ = run_cli(
            capsys, "tensor", "--n", "2", "--lambda", "1,0", "--kr", "2,0"
        )
        assert code == 2


class TestFactorizeCommand:
    def test_splits_far_strings(self, capsys):
        mono = json.dumps({"n": 1, "Y": [[1, 0, 1], [1, 4, 1]]})
        code, out, _ = run_cli(capsys, "factorize", mono, "--json")
        assert code == 0
        assert out == cli._dumps({"strings": [[0, 1], [4, 1]]}) + "\n"

    def test_text_output(self, capsys):
        mono = json.dumps({"n": 1, "Y": [[1, 0, 1], [1, 2, 1]]})
        code, out, _ = run_cli(capsys, "factorize", mono)
        assert code == 0 and out.strip() == "strings: (0,2)"

    def test_rank_two_rejected(self, capsys):
        mono = json.dumps({"n": 2, "Y": [[1, 0, 1]]})
        code, _, _ = run_cli(capsys, "factorize", mono)
        assert code == 2

    def test_malformed_json(self, capsys):
        code, _, _ = run_cli(capsys, "factorize", "not-json")
        assert code == 2


class TestTransformCommand:
    def test_star(self, capsys):
        mono = json.dumps({"n": 1, "Y": [[1, 0, 1]]})
        code, out, _ = run_cli(capsys, "transform", mono, "--kind", "star")
        assert code == 0 and out.strip() == "Y[1,-2]"

    def test_tau_json(self, capsys):
        mono = json.dumps({"n": 2, "Y": [[1, 0, 1]]})
        code, out, _ = run_cli(
            capsys, "transform", mono, "--kind", "tau", "--t", "3", "--json"
        )
        assert code == 0 and out == cli._dumps({"n": 2, "Y": [[1, 3, 1]]}) + "\n"

    def test_shift_with_another_kind_is_invalid(self, capsys):
        mono = json.dumps({"n": 1, "Y": [[1, 0, 1]]})
        code, out, err = run_cli(capsys, "transform", mono, "--kind", "star", "--t", "5")
        assert code == 2 and out == ""
        assert "--t shifts only --kind tau" in err


class TestMonomialInput:
    @pytest.mark.parametrize("argv", [("transform", "--kind", "tau", "--json"), ("factorize", "--json")])
    @pytest.mark.parametrize(
        "mono",
        [
            '{"n":1,"Y":[[1,0,1.5]]}',
            '{"n":1,"Y":[[1,0,2.9]]}',
            '{"n":1,"Y":[[1,0,true]]}',
            '{"n":1,"Y":[["1","0","1"]]}',
            '{"n":true,"Y":[[1,0,1]]}',
            '{"n":1.0,"Y":[[1,0,1]]}',
        ],
    )
    def test_numbers_must_be_json_integers(self, capsys, argv, mono):
        code, out, err = run_cli(capsys, argv[0], mono, *argv[1:])
        assert code == 2 and out == ""
        assert "monomial JSON does not match the schema" in err

    @pytest.mark.parametrize("argv", [("transform", "--kind", "tau", "--json"), ("factorize", "--json")])
    @pytest.mark.parametrize(
        "mono, key",
        [
            ('{"n":1,"Y":[[1,0,1]],"y":[[1,4,1]]}', "y"),  # a misspelt Y lost a factor
            ('{"n":1,"Y":[[1,0,1]],"shift":5}', "shift"),  # was ignored
        ],
    )
    def test_unknown_keys_rejected(self, capsys, argv, mono, key):
        code, out, err = run_cli(capsys, argv[0], mono, *argv[1:])
        assert code == 2 and out == ""
        assert f"unknown monomial keys: [{key!r}]" in err

    @pytest.mark.parametrize("argv", [("transform", "--kind", "tau", "--json"), ("factorize", "--json")])
    @pytest.mark.parametrize(
        "mono, message",
        [
            ("[1]", "a monomial must be a JSON object, got [1]"),
            ('{"n":1}', "monomial is missing keys ['Y']"),
        ],
    )
    def test_shape_errors_name_the_problem(self, capsys, argv, mono, message):
        code, out, err = run_cli(capsys, argv[0], mono, *argv[1:])
        assert code == 2 and out == ""
        assert message in err


# what ``int()`` takes beyond an optional minus sign and ASCII digits
LOOSE_INTEGERS = ["1_0", "+1", " 1", "1 ", "３", "١"]


class TestIntegerArguments:
    @pytest.mark.parametrize("loose", LOOSE_INTEGERS)
    @pytest.mark.parametrize(
        "argv",
        [
            ("qchar", "--n", "2", "--lambda", "{},1"),
            ("qchar", "--n", "2", "--lambda", "1,{}"),
            ("qchar", "--n", "2", "--kr", "2,0,{}"),
            ("qchar", "--n", "2", "--kr", "{},0,1"),
            ("tensor", "--n", "2", "--lambda", "1,{}", "--kr", "2,3,1"),
            ("tensor", "--n", "2", "--lambda", "1,0", "--kr", "2,{},1"),
        ],
    )
    def test_loose_parts_are_invalid_input(self, capsys, argv, loose):
        code, out, err = run_cli(capsys, *(part.replace("{}", loose) for part in argv))
        assert code == 2 and out == "" and "cannot parse" in err

    @pytest.mark.parametrize("loose", LOOSE_INTEGERS)
    @pytest.mark.parametrize(
        "argv",
        [
            ("qchar", "--n", "{}", "--lambda", "1"),
            ("qchar", "--n", "1", "--lambda", "1", "--shift", "{}"),
            ("tensor", "--n", "{}", "--lambda", "1", "--kr", "1,3,1"),
            ("tensor", "--n", "1", "--lambda", "1", "--shift", "{}", "--kr", "1,3,1"),
            ("transform", '{"n":1,"Y":[[1,0,1]]}', "--kind", "tau", "--t", "{}"),
        ],
    )
    def test_loose_flags_are_usage_errors(self, capsys, argv, loose):
        code, out, err = run_cli(capsys, *(part.replace("{}", loose) for part in argv))
        assert code == 1 and out == ""
        assert f"invalid int value: {loose!r}" in err

    def test_negative_values_still_parse(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", '{"n":1,"Y":[[1,0,1]]}', "--kind", "tau", "--t", "-3", "--json"
        )
        assert code == 0 and out == '{"Y":[[1,-3,1]],"n":1}\n'
        code, _, err = run_cli(capsys, "qchar", "--n", "2", "--lambda", "1,-1")
        assert code == 2 and "nonnegative" in err


def _write_config(path, **overrides):
    cfg = {
        "n_max": 2,
        "lambda_sum_max": 2,
        "k_max": 1,
        "r_window_pad": 1,
        "variants": ["normal"],
        "parallelism": 1,
        "output": str(path / "out.jsonl"),
    }
    cfg.update(overrides)
    cfg_path = path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg_path


class TestSweepCommand:
    def test_small_sweep_passes(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert "violations: 0" in out
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert lines and all("report" in json.loads(line) for line in lines)

    def test_each_sweep_joins_each_group_once(self, capsys, tmp_path, monkeypatch):
        # which groups a sweep joins is tested in test_tensor.py; here, that a
        # second sweep in the process joins every one of them again
        cfg = _write_config(tmp_path, variants=["normal", "a", "b", "c"], k_max=2)
        points = list(cli.sweep_grid(cli.SweepConfig.from_json(json.loads(cfg.read_text()))))
        joins = _count_joins(monkeypatch)
        first = run_cli(capsys, "sweep", "--config", str(cfg))
        groups = len(joins)
        assert first[0] == 0 and 0 < groups < len(points)
        assert run_cli(capsys, "sweep", "--config", str(cfg)) == first
        assert len(joins) == 2 * groups

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        first = (tmp_path / "out.jsonl").read_bytes()
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        assert (tmp_path / "out.jsonl").read_bytes() == first

    def test_all_variants_small(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, variants=["normal", "a", "b", "c"], n_max=2,
                            lambda_sum_max=1)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0 and "violations: 0" in out

    def test_parallel_matches_serial(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, lambda_sum_max=1)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        serial = (tmp_path / "out.jsonl").read_bytes()
        cfg = _write_config(tmp_path, lambda_sum_max=1, parallelism=2)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        assert (tmp_path / "out.jsonl").read_bytes() == serial

    def test_pool_takes_whole_blocks(self, capsys, tmp_path, monkeypatch):
        """A sweep on several workers submits one task per (n, lambda) block,
        keeps at most two blocks per worker submitted and unread, and
        writes the serial sweep's bytes."""

        class Future:
            def __init__(self, pool, value):
                self.pool, self.value = pool, value

            def result(self):
                self.pool.pending -= 1
                return self.value

            def cancel(self):
                return False

        class CountingPool:
            # runs each task at once in this process, keeping its lines and
            # counting the tasks submitted and not yet read
            def __init__(self, workers, initializer=None, initargs=()):
                self.workers, self.tasks, self.pending, self.peak = workers, [], 0, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, *args):
                self.tasks.append(fn(*args))
                self.pending += 1
                self.peak = max(self.peak, self.pending)
                return Future(self, self.tasks[-1])

        def weight(line):
            spec = json.loads(line)["spec"]
            return spec["n"], tuple(spec["lambda"])

        pools = []
        config = {"variants": ["normal", "a", "b", "c"], "n_max": 3, "k_max": 1}
        cfg = _write_config(tmp_path, **config)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        serial = (tmp_path / "out.jsonl").read_bytes()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        cfg = _write_config(tmp_path, **config, parallelism=3)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        assert (tmp_path / "out.jsonl").read_bytes() == serial
        (pool,) = pools
        blocks = [(n, lam) for n in range(1, 4) for lam in all_weights(n, 2)]
        assert pool.workers == 3 and pool.pending == 0
        # one task per block, in grid order, each with every line of its block
        assert [{weight(line) for _, line in task} for task in pool.tasks] == [{b} for b in blocks]
        assert sum(map(len, pool.tasks)) == serial.count(b"\n")
        assert len(pool.tasks) == len(blocks) == 16 > 2 * 3
        assert pool.peak == cli.CHUNKS_PER_WORKER * 3 == 6

    def test_one_worker_calls_the_point_function_once_per_point(self, capsys, tmp_path, monkeypatch):
        # the benchmark times each point through ``cli._sweep_point`` as the
        # module holds it when the sweep starts, and counts its calls
        cfg = _write_config(tmp_path, variants=["normal", "a", "b", "c"], k_max=2)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        before = (tmp_path / "out.jsonl").read_bytes()
        point, points = cli._sweep_point, []
        monkeypatch.setattr(cli, "_sweep_point", lambda pt: points.append(pt) or point(pt))
        assert run_cli(capsys, "sweep", "--config", str(cfg)) == (code, out, "")
        assert (tmp_path / "out.jsonl").read_bytes() == before
        assert code == 0 and f"points: {len(points)}\n" in out
        assert points == list(cli.sweep_grid(cli.SweepConfig.from_json(json.loads(cfg.read_text()))))

    def test_summary_counts_the_output(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, variants=["normal", "a", "b", "c"], k_max=2)
        code, serial, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        cases = Counter(json.loads(line)["report"]["case"] for line in lines)
        assert len(cases) == 3
        assert f"points: {len(lines)}\n" in serial
        assert (
            f"irreducible: {cases['irred']}  case_i: {cases['i']}  case_ii: {cases['ii']}  "
            "violations: 0\n"
        ) in serial
        cfg = _write_config(tmp_path, variants=["normal", "a", "b", "c"], k_max=2, parallelism=2)
        assert run_cli(capsys, "sweep", "--config", str(cfg)) == (0, serial, "")

    def test_violations_are_counted(self, capsys, tmp_path, monkeypatch):
        # a quiet point builds no report: the failure is injected where its group record is read
        group_of = tensor.sweep_group
        injected = []

        def failing_at_quiet_rank_two(spec, kr):
            group = group_of(spec, kr)
            if spec.n == 2 and kr.r not in group.loud:
                injected.append((spec, kr))
                raise InvariantViolation("injected")
            return group

        monkeypatch.setattr(tensor, "sweep_group", failing_at_quiet_rank_two)
        cfg = _write_config(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        records = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
        failed = sum("violation" in rec for rec in records)
        rank_two = sum(rec["spec"]["n"] == 2 for rec in records)
        assert 0 < failed == len(injected) < rank_two < len(records)
        assert code == cli.EXIT_VIOLATION
        assert f"violations: {failed}\n" in out

    def test_unexpected_error_is_recorded_against_its_point(self, capsys, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        code, healthy, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        healthy_lines = (tmp_path / "out.jsonl").read_text().splitlines()
        group_of = tensor.sweep_group
        bad = json.loads(healthy_lines[3])
        s, k = bad["spec"], bad["kr"]
        spec, kr = MinAffSpec(s["n"], tuple(s["lambda"]), s["dir"], s["shift"]), KRSpec(**k)
        assert kr.r not in tensor.sweep_group(spec, kr).loud

        def failing_once(spec, kr):
            if spec_json_reference(spec) == bad["spec"] and kr_json_reference(kr) == bad["kr"]:
                raise ValueError("injected")
            return group_of(spec, kr)

        monkeypatch.setattr(tensor, "sweep_group", failing_once)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == cli.EXIT_VIOLATION
        assert "violations: 1\n" in out
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert len(lines) == len(healthy_lines)
        assert json.loads(lines[3]) == {
            "spec": bad["spec"], "kr": bad["kr"], "error": "ValueError: injected"
        }
        assert lines[:3] + lines[4:] == healthy_lines[:3] + healthy_lines[4:]
        monkeypatch.setattr(tensor, "sweep_group", group_of)
        assert run_cli(capsys, "sweep", "--config", str(cfg)) == (0, healthy, "")

    def test_each_point_reads_its_group_record_once(self, monkeypatch):
        cfg = cli.SweepConfig.from_json(
            {"n_max": 3, "lambda_sum_max": 3, "k_max": 3, "r_window_pad": 2,
             "variants": ["normal", "a", "b", "c"], "output": "unused"}
        )
        lines, records = [], []
        sweep_line, group_of = cli.sweep_line, tensor.sweep_group
        monkeypatch.setattr(cli, "sweep_line", lambda *point: lines.append(point) or sweep_line(*point))
        monkeypatch.setattr(tensor, "sweep_group", lambda *point: records.append(point) or group_of(*point))
        points = list(cli.sweep_grid(cfg))
        for point in points:
            cli._sweep_point(point)
        assert len(points) == 5820
        assert lines == records == points

    def test_interrupted_sweep_keeps_the_earlier_output(self, capsys, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        before = (tmp_path / "out.jsonl").read_bytes()
        point = cli._sweep_point
        calls = []

        def interrupted(pt):
            calls.append(pt)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return point(pt)

        monkeypatch.setattr(cli, "_sweep_point", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(cfg)])
        assert (tmp_path / "out.jsonl").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "sweep.json"]

    def test_failed_write_keeps_the_earlier_output(self, capsys, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        before = (tmp_path / "out.jsonl").read_bytes()

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", no_space)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == cli.EXIT_INVALID
        assert err == f"error: cannot write output {str(tmp_path / 'out.jsonl')!r}: No space left on device\n"
        assert ".tmp" not in err
        assert (tmp_path / "out.jsonl").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "sweep.json"]

    def test_sigterm_removes_the_temporary_file(self, tmp_path):
        output = tmp_path / "out.jsonl"
        output.write_bytes(b"previous output\n")
        cfg = _write_config(tmp_path, n_max=3, lambda_sum_max=3, k_max=3, r_window_pad=2,
                            variants=["normal", "a", "b", "c"])
        proc = qcharlab_process("sweep", "--config", str(cfg))
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("out.jsonl.*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 128 + signal.SIGTERM and out == err == b""
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "sweep.json"]
        assert output.read_bytes() == b"previous output\n"

    def test_held_sigterm_is_handled_between_chunks(self):
        # on the pooled path SIGTERM waits while the pool's own code runs: a
        # SystemExit raised inside it can leave the pool's shutdown hanging
        with cli._sigterm_exits():
            with cli._sigterm_held():
                signal.raise_signal(signal.SIGTERM)  # held, so nothing happens here
                assert signal.SIGTERM in signal.sigpending()
                with pytest.raises(SystemExit) as stopped:
                    cli._handle_held_sigterm()
                assert stopped.value.code == 128 + signal.SIGTERM
                assert signal.SIGTERM in signal.pthread_sigmask(signal.SIG_BLOCK, [])
                cli._handle_held_sigterm()  # none held: a no-op
            assert signal.SIGTERM not in signal.pthread_sigmask(signal.SIG_BLOCK, [])

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two workers need two CPUs")
    def test_group_sigterm_on_two_workers_is_quiet(self, tmp_path):
        # a SIGTERM to the whole process group also reaches the workers, which
        # must ignore it: on Python < 3.12 a pool whose worker dies while the
        # parent cancels its futures prints an InvalidStateError traceback
        output = tmp_path / "out.jsonl"
        output.write_bytes(b"previous output\n")
        cfg = _write_config(tmp_path, n_max=3, lambda_sum_max=3, k_max=3, r_window_pad=2,
                            variants=["normal", "a", "b", "c"], parallelism=2)
        for _ in range(8):
            proc = qcharlab_process("sweep", "--config", str(cfg), start_new_session=True)
            deadline = time.monotonic() + 60
            # the first lines reach the temporary file once the workers run
            while not any(tmp.stat().st_size for tmp in tmp_path.glob("out.jsonl.*.tmp")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # a hung sweep must not outlive the test
                proc.communicate()
                raise
            assert proc.returncode == 128 + signal.SIGTERM and out == err == b""
            with pytest.raises(ProcessLookupError):  # the parent waited for its workers
                os.killpg(proc.pid, 0)
            assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "sweep.json"]
            assert output.read_bytes() == b"previous output\n"

    def test_unwritable_output_is_reported(self, capsys, tmp_path):
        output = str(tmp_path / "missing" / "out.jsonl")
        cfg = _write_config(tmp_path, output=output)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == cli.EXIT_INVALID
        # the path the config gave and the OS reason, not the private temporary file
        assert err == f"error: cannot write output {output!r}: No such file or directory\n"
        assert ".tmp" not in err

    def test_empty_grid_rejected(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, n_max=0)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, bogus=1)
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "variants", ["ab", "normal", ["normal", "normal"], ["a", "b", "a"], [], ["d"], [1], [["a"]]]
    )
    def test_variants_must_be_a_list_of_distinct_names(self, capsys, tmp_path, variants):
        cfg = _write_config(tmp_path, variants=variants)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "variants" in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_max", "x"),  # was a ValueError traceback, exit 1
            ("k_max", True),  # was read as 1
            ("lambda_sum_max", 2.7),  # was read as 2
            ("r_window_pad", None),
            ("parallelism", "2"),
            ("output", None),  # was a file named None
            ("output", 3),
        ],
    )
    def test_values_of_the_wrong_type_rejected(self, capsys, tmp_path, monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and key in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]

    @pytest.mark.parametrize("data", [[1], "n_max", 3, None])
    def test_config_that_is_not_an_object_rejected(self, capsys, tmp_path, data):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "JSON object" in err

    def test_missing_key_rejected(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)
        data = json.loads(cfg.read_text(encoding="utf-8"))
        del data["k_max"]
        cfg.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "k_max" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_defaults(self):
        required = {"n_max": 2, "lambda_sum_max": 2, "k_max": 1, "output": "out.jsonl"}
        written_out = {**required, "r_window_pad": 2, "variants": ["normal"], "parallelism": 1}
        cfg = cli.SweepConfig.from_json(required)
        assert cfg == cli.SweepConfig.from_json(written_out)
        assert cfg == cli.SweepConfig(**required, r_window_pad=2, variants=("normal",), parallelism=1)


class TestSweepBudget:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"variants": ["normal", "a", "b", "c"], "k_max": 2}, {"n_max": 3, "lambda_sum_max": 3, "r_window_pad": 0}],
    )
    def test_size_counts_the_grid(self, tmp_path, overrides):
        cfg = cli.SweepConfig.from_json(json.loads(_write_config(tmp_path, **overrides).read_text()))
        points = len(list(cli.sweep_grid(cfg)))
        assert cli.sweep_size(cfg, points) == points
        assert cli.sweep_size(cfg, points - 1) == points  # the last group passes the limit

    def test_n5_grid_is_within_the_budget(self):
        cfg = cli.SweepConfig(5, 5, 5, "unused", 2, ("normal", "a", "b", "c"))
        assert cli.sweep_size(cfg, cli.SWEEP_POINT_BUDGET) == 222_040 <= cli.SWEEP_POINT_BUDGET

    def test_count_stops_past_the_limit(self):
        # every group has an anchor, so at most limit + 1 groups are counted,
        # however many the grid has
        cfg = cli.SweepConfig(40, 40, 40, "unused", 2, ("normal", "a", "b", "c"))
        started = time.perf_counter()
        assert 1000 < cli.sweep_size(cfg, 1000) < 2000
        assert time.perf_counter() - started < 1.0

    def test_count_finds_at_most_limit_plus_one_windows(self, monkeypatch):
        cfg = cli.SweepConfig(40, 40, 40, "unused", 2, ("normal", "a", "b", "c"))
        windows = []
        window = cli.resonance_window
        monkeypatch.setattr(cli, "resonance_window", lambda *group: windows.append(group) or window(*group))
        assert cli.sweep_size(cfg, 1000) > 1000
        assert 0 < len(windows) <= 1001

    def test_one_walk_counts_and_plans_the_sweep(self, capsys, tmp_path, monkeypatch):
        # each group's window is found once, by the walk that sizes the grid
        cfg = _write_config(tmp_path, variants=["normal", "a", "b", "c"], k_max=2)
        grid = list(cli.sweep_grid(cli.SweepConfig.from_json(json.loads(cfg.read_text()))))
        windows = []
        window = cli.resonance_window
        monkeypatch.setattr(cli, "resonance_window", lambda *group: windows.append(group) or window(*group))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0 and f"points: {len(grid)}\n" in out
        # a group visit is a run of the grid's points (at n = 1 rows normal and b visit one group)
        visits = [group for group, _ in groupby((spec, kr.node, kr.k, 1) for spec, kr in grid)]
        assert windows == visits and len(visits) > len(set(visits))

    def test_oversized_grid_is_refused(self, capsys, tmp_path):
        # the golden ranges at a huge pad: listing the points exhausted memory
        cfg = _write_config(tmp_path, n_max=3, lambda_sum_max=3, k_max=3, r_window_pad=1_000_000)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == cli.EXIT_INVALID and out == ""
        assert "at least 2,000,005 points" in err and f"{cli.SWEEP_POINT_BUDGET:,} points" in err
        assert sorted(os.listdir(tmp_path)) == ["sweep.json"]

    def test_grid_at_the_budget_runs_and_one_over_is_refused(self, capsys, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        points = len(list(cli.sweep_grid(cli.SweepConfig.from_json(json.loads(cfg.read_text())))))
        monkeypatch.setattr(cli, "SWEEP_POINT_BUDGET", points - 1)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == cli.EXIT_INVALID and out == ""
        assert f"at least {points} points, over the budget of {points - 1} points" in err
        assert sorted(os.listdir(tmp_path)) == ["sweep.json"]
        monkeypatch.setattr(cli, "SWEEP_POINT_BUDGET", points)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0 and f"points: {points}\n" in out


class TestLambdas:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_to_the_product_filter(self, n):
        for sum_max in range(5):
            assert list(cli._lambdas(n, sum_max)) == list(all_weights(n, sum_max))

    def test_high_rank_is_fast(self):
        started = time.perf_counter()
        lams = list(cli._lambdas(20, 3))
        assert time.perf_counter() - started < 1.0
        assert len(lams) == math.comb(23, 3) - 1 == 1770
        assert len(set(lams)) == len(lams) and lams == sorted(lams)
        assert all(len(lam) == 20 and 0 < sum(lam) <= 3 for lam in lams)


class TestFailureRecords:
    @settings(max_examples=100, deadline=None)
    @given(message=st.text(), violation=st.booleans())
    @example(message='quote " backslash \\ newline \n tab \t', violation=True)
    @example(message="\u00e9\u2192\U0001d11e lone \ud800 nul \x00", violation=False)
    def test_record_is_the_reference_dump(self, message, violation):
        spec, kr = MinAffSpec(2, (1, 0), "dec", -3), KRSpec(2, 1, 4, 2)
        if violation:
            failure = InvariantViolation(message)
            key, text = "violation", message
        else:
            failure = ValueError(message)
            key, text = "error", f"ValueError: {message}"
        reference = {"spec": spec_json_reference(spec), "kr": kr_json_reference(kr), key: text}
        assert kr.r not in tensor.sweep_group(spec, kr).loud
        with patch.object(tensor, "sweep_group", side_effect=failure):
            assert cli._sweep_point((spec, kr)) == ("violations", cli._dumps(reference))


class TestClampWorkers:
    def test_never_more_workers_than_cpus_or_points(self):
        cpus = os.cpu_count() or 1
        assert cli.clamp_workers(10**6, 10**9) == cpus
        assert cli.clamp_workers(10**6, 3) == min(cpus, 3)
        assert cli.clamp_workers(1, 10**9) == 1

    def test_at_least_one_worker(self):
        assert cli.clamp_workers(4, 0) == 1

    def test_uses_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert cli.clamp_workers(10**6, 100) == 8
        assert cli.clamp_workers(5, 100) == 5
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.clamp_workers(10**6, 100) == 1


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcharlab", "qchar", "--n", "1", "--lambda", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and "terms: 2" in proc.stdout

    def test_closed_stdout_is_a_clean_exit(self):
        # about 640 kB of terms, far more than a pipe holds, so the child
        # is still writing when the reader closes its end
        proc = qcharlab_process("qchar", "--n", "3", "--lambda", "3,3,3", "--full")
        assert proc.stdout.readline().startswith(b"spec: ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == b""

    def test_import_loads_no_process_pool(self):
        # only a sweep on two or more workers starts a pool, so the tool's
        # start does not pay for loading multiprocessing
        code = (
            "import sys, qcharlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_help_is_user_text(self, capsys, monkeypatch):
        # the module docstring, with its reST markup and library notes, is not the help
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, "--help")
        assert (code, err) == (0, "")
        assert "``" not in out and "called repeatedly" not in out
        assert out.startswith("usage: qcharlab") and "Exit codes: 0 success" in out


# one point of each variant, as in CI's "Tensor report bytes": normal, a, b, c
_TENSOR_POINTS = (
    ("--n", "3", "--lambda", "0,1,1", "--kr", "3,-2,1"),
    ("--n", "3", "--lambda", "0,1,1", "--dir", "dec", "--kr", "1,4,2"),
    ("--n", "3", "--lambda", "0,1,2", "--kr", "1,3,2"),
    ("--n", "3", "--lambda", "0,1,1", "--dir", "dec", "--kr", "3,-2,2"),
)


class TestRepeatedMain:
    """``main`` called many times in one process gives what a fresh process gives."""

    def test_commands_match_fresh_processes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the width of --help and usage text
        cfg = _write_config(tmp_path)
        commands = [
            ("qchar", "--n", "2", "--lambda", "1,1", "--dir", "dec", "--full"),
            ("qchar", "--n", "3", "--lambda", "1,0,1", "--dir", "dec", "--shift", "2", "--json"),
            *(("tensor", *point) for point in _TENSOR_POINTS),
            *(("tensor", *point, "--json") for point in _TENSOR_POINTS),
            ("transform", '{"n":2,"Y":[[1,0,1],[2,3,-1]]}', "--kind", "kappa", "--json"),
            ("factorize", '{"n":1,"Y":[[1,0,1],[1,4,1]]}', "--json"),
            ("sweep", "--config", str(cfg)),
            ("tensor", "--n", "3", "--lambda", "0,1,1"),  # usage error: --kr is missing
            ("--help",),
            ("tensor", "--n", "2", "--lambda", "1,x", "--kr", "2,0,1"),  # invalid input
        ]
        cli._build_parser.cache_clear()
        here = [run_cli(capsys, *argv) for argv in commands]
        assert cli._build_parser.cache_info().misses == 1
        assert sorted({code for code, _, _ in here}) == [0, 1, 2]
        env = {**_child_env(), "COLUMNS": "80"}
        for argv, result in zip(commands, here):
            proc = subprocess.run(
                [sys.executable, "-m", "qcharlab", *argv], capture_output=True, text=True, env=env, timeout=60
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == result, argv

    def test_commands_are_looked_up_when_called(self, capsys, tmp_path, monkeypatch):
        # the benchmark's tracer wraps ``cli.cmd_sweep`` after other code may
        # have called ``main``: the cached parser must not hold the old function
        assert run_cli(capsys, "tensor", *_TENSOR_POINTS[0])[0] == 0
        calls = []

        def spy(args):
            calls.append(args.command)
            return 7

        monkeypatch.setattr(cli, "cmd_tensor", spy)
        monkeypatch.setattr(cli, "cmd_sweep", spy)
        assert run_cli(capsys, "tensor", *_TENSOR_POINTS[0])[0] == 7
        assert run_cli(capsys, "sweep", "--config", str(_write_config(tmp_path)))[0] == 7
        assert calls == ["tensor", "sweep"]
        assert not (tmp_path / "out.jsonl").exists()


class TestInternalErrors:
    """An exception that is neither invalid input nor a theorem violation
    exits 4 with one line on stderr and no traceback; ``SystemExit`` (so
    SIGTERM's 143) and ``KeyboardInterrupt`` pass through ``main``."""

    @pytest.mark.parametrize(
        "argv, error, line",
        [
            (("qchar", "--n", "2", "--lambda", "1,1"), MemoryError("out of memory"),
             "internal error: MemoryError: out of memory\n"),
            (("tensor", *_TENSOR_POINTS[0]), RecursionError("maximum recursion depth exceeded"),
             "internal error: RecursionError: maximum recursion depth exceeded\n"),
        ],
        ids=["qchar", "tensor"],
    )
    def test_unexpected_exception_exits_4(self, capsys, monkeypatch, argv, error, line):
        def broken(args):
            raise error

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", broken)
        assert cli.EXIT_INTERNAL == 4
        assert run_cli(capsys, *argv) == (cli.EXIT_INTERNAL, "", line)

    @pytest.mark.parametrize("error", [SystemExit(143), KeyboardInterrupt()], ids=["SystemExit", "KeyboardInterrupt"])
    @pytest.mark.parametrize("command", ["qchar", "tensor"])
    def test_exit_and_interrupt_pass_through(self, monkeypatch, command, error):
        def stopped(args):
            raise error

        monkeypatch.setattr(cli, f"cmd_{command}", stopped)
        argv = ("qchar", "--n", "2", "--lambda", "1,1") if command == "qchar" else ("tensor", *_TENSOR_POINTS[0])
        with pytest.raises(type(error)) as info:
            main(list(argv))
        assert info.value is error
