"""qcharlab benchmark.

    python3 perfbench/run.py --workload {sweep,big_product,qchar_cold,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  With ``--trace 0`` the set-up probes run first (fresh
processes that import qcharlab and generate the inputs; the median is
``setup_s``), then one workload process measures rounds for ``--seconds``
and the end-to-end metrics are medians over its rounds.  With ``--trace 1``
one untraced and one traced workload process each run a single round; the
traced one yields the per-layer metrics and writes its spans under
``.perfbench_out/``.  Every line but the last is a readable report; the last
is the JSON result.  ``BENCHMARK.json`` declares the metrics and units.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "big_product", "qchar_cold")
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 5  # measured, after one unmeasured probe that warms the bytecode cache


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("QCHARLAB_THREADS", None)
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}")
    return lines[-1]


def _workload_process(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    argv = [str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--traced", str(int(traced))]
    return json.loads(_run_child(argv, deadline))


def _setup_seconds(workload: str, seed: int, deadline: float) -> list[float]:
    argv = [str(HERE / "probe.py"), workload, str(seed)]
    _run_child(argv, deadline)
    return [float(_run_child(argv, deadline)) for _ in range(SETUP_PROBES)]


def _declared_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def _with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics (tracing off) and the workload process's record."""
    setup = _setup_seconds(workload, seed, deadline)
    rec = _workload_process(workload, seed, seconds, False, deadline)
    rounds = rec["rounds"]
    wall = statistics.median(r["wall_s"] for r in rounds)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": rec["items"] / wall,
        "item_p50_ms": statistics.median(r["p50_ms"] for r in rounds),
        "item_tail_ms": statistics.median(r["tail_ms"] for r in rounds),
        "work_per_s": rec["work"] / wall,
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return values, rec


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced round, with the tracing overhead
    measured against one untraced round in its own process."""
    plain = _workload_process(workload, seed, 0, False, deadline)
    rec = _workload_process(workload, seed, 0, True, deadline)
    values = dict(rec["layers"])
    values["trace.overhead_frac"] = rec["rounds"][0]["wall_s"] / plain["rounds"][0]["wall_s"] - 1
    rec["attempted"] += plain["attempted"]
    rec["failed"] += plain["failed"]
    return values, rec


def _report(workload: str, metrics: dict, rec: dict) -> None:
    print(f"== {workload}  seed {rec['seed']}  shift {rec['shift']}  "
          f"{rec['items']} items per round, work {rec['work']}, {len(rec['rounds'])} round(s)")
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<42} {value:>14} {m['unit']}")
    tails = {(r["tail_p"], r["tail_beyond"]) for r in rec["rounds"]}
    print(f"  item_tail_ms percentile, samples beyond: {sorted(tails)}")
    print(f"  raw wall_s per round: {[round(r['raw_wall_s'], 4) for r in rec['rounds']]}; "
          f"host factor (raw / reference seconds): {[round(r['host_factor'], 3) for r in rec['rounds']]}")
    print(f"  failed {rec['failed']} of {rec['attempted']} items")
    if "self_share" in rec:
        print(f"  {rec['spans']} spans in {rec['spans_file']}; missing sites: {rec['missing_sites'] or 'none'}")
        for name, share in list(rec["self_share"].items())[:12]:
            print(f"  self-time share {name:<36} {share:7.1%}")


def run_one(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    end_to_end, per_layer = _declared_units()
    if traced:
        values, rec = trace(workload, seed, deadline)
        metrics = _with_units(values, per_layer)
    else:
        values, rec = measure(workload, seed, seconds, deadline)
        metrics = _with_units(values, end_to_end)
    _report(workload, metrics, rec)
    return {
        "correct": rec["failed"] == 0 and rec["attempted"] > 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcharlab" / "__init__.py").is_file():
        print(f"error: no qcharlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            # "all" is for reading, not for the 180 s contract: each workload gets its own budget
            deadline = time.monotonic() + DEADLINE_S if args.workload == "all" else start + DEADLINE_S
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
