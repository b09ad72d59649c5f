"""Workloads of the qcharlab benchmark: inputs, measured rounds, output checks.

Each workload runs in a fresh process as a closed loop from one client: the
next item starts when the previous one has returned.  A round is one pass
over the workload's items from an empty ``qchar`` cache; rounds repeat until
the measuring budget is spent, and every round's output is checked.

* ``sweep``: ``qcharlab sweep`` in-process on the 5,820-point four-variant
  config; an item is one sweep point.  The grid is exhaustive, so the seed
  does not change it, and the output must hash to the golden sha256.
* ``big_product``: four one-off ``qcharlab tensor --json`` classifications of
  large products, each from an empty cache.
* ``qchar_cold``: 242 minimal-affinization q-characters (n <= 4,
  |lambda| <= 4, both directions) from an empty cache, then the 16 last-node
  KR modules (n, k <= 4) checked against the partition oracle.

In ``big_product`` and ``qchar_cold`` the seed picks a global spectral shift t
applied to every input; term counts and work do not depend on it.

Run as a script this is the workload process; ``run.py`` starts it and
reads the JSON object it prints last.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import resource
import sys
import traceback
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter

from qcharlab import cli, minaff
from qcharlab.minaff import KRSpec, MinAffSpec

from hostspeed import ProbedTimer, normalize, normalized_wall
from spans import Tracer
from stats import item_latency_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_BIG_PRODUCT = HERE / "golden_big_product.json"

WORKLOADS = ("sweep", "big_product", "qchar_cold")

SWEEP_CONFIG = {
    "n_max": 3,
    "lambda_sum_max": 3,
    "k_max": 3,
    "r_window_pad": 2,
    "variants": ["normal", "a", "b", "c"],
    "parallelism": 1,
}
SWEEP_SHA256 = "95e09524b4feec9a6e51bf2cb52a96c91cd4082ecea3e575423f0f57d87c3e1b"

# (n, lambda, direction, KR node, KR anchor r, KR length k) at shift 0
BIG_PRODUCTS = (
    (4, (1, 2, 1, 1), "inc", 4, 5, 4),  # 257,250 pairs
    (4, (1, 2, 1, 1), "dec", 1, 5, 4),  # variant a: the transport builds a second product
    (4, (2, 1, 0, 2), "inc", 4, 3, 3),  # case ii
    (3, (2, 2, 2), "inc", 3, 1, 4),  # case ii
)
REPORT_FIELDS = ("variant", "case", "p", "kprime", "D", "lambda_prime")

COLD_N_MAX = 4
COLD_SUM_MAX = 4
COLD_K_MAX = 4

# The library's q-character function, captured before a tracing wrapper can
# replace the module attribute, so that its cache can still be emptied.
_QCHAR = vars(minaff).get("qchar")


def clear_qchar_cache() -> None:
    clear = getattr(_QCHAR, "cache_clear", None)
    if clear is not None:
        clear()


def spectral_shift(seed: int) -> int:
    # Unshifted inputs and their transports use spectral exponents in about
    # -16..21; a shift in 16..80 keeps every exponent inside CPython's cache
    # of small ints (-5..256), so memory use does not depend on the seed.
    return random.Random(seed).randint(16, 80)


def shift_monomials(obj, t: int):
    """Apply tau_t (Y[i,r] -> Y[i,r+t]) to every monomial inside report JSON."""
    if isinstance(obj, dict):
        if set(obj) == {"n", "Y"}:
            return {"n": obj["n"], "Y": [[i, r + t, e] for i, r, e in obj["Y"]]}
        return {key: shift_monomials(value, t) for key, value in obj.items()}
    if isinstance(obj, list):
        return [shift_monomials(value, t) for value in obj]
    return obj


@dataclass
class Inputs:
    workload: str
    shift: int
    items: list  # one entry per item, in run order
    expected: list  # what each item's output must match
    work: int  # convolution pairs (sweep, big_product) or q-character terms (qchar_cold)


def _nonzero_weights(n: int, sum_max: int):
    for lam in itertools.product(range(sum_max + 1), repeat=n):
        if 1 <= sum(lam) <= sum_max:
            yield lam


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's items, generated from the seed alone."""
    t = spectral_shift(seed)
    if workload == "sweep":
        cfg = cli.SweepConfig.from_json({**SWEEP_CONFIG, "output": "unused"})
        points = list(cli.sweep_grid(cfg))
        work = sum(minaff.weyl_dim(s.n, s.lam) * comb(s.n + kr.k, kr.k) for s, kr in points)
        return Inputs(workload, 0, points, [SWEEP_SHA256], work)
    if workload == "big_product":
        golden = json.loads(GOLDEN_BIG_PRODUCT.read_text(encoding="utf-8"))
        items, expected, work = [], [], 0
        for (n, lam, direction, node, r, k), ref in zip(BIG_PRODUCTS, golden):
            items.append(
                ["tensor", "--n", str(n), "--lambda", ",".join(map(str, lam)),
                 "--dir", direction, "--shift", str(t), "--kr", f"{node},{r + t},{k}", "--json"]
            )
            expected.append(shift_monomials(ref, t))
            work += minaff.weyl_dim(n, lam) * comb(n + k, k)
        return Inputs(workload, t, items, expected, work)
    if workload == "qchar_cold":
        items, expected = [], []
        for n in range(1, COLD_N_MAX + 1):
            for lam in _nonzero_weights(n, COLD_SUM_MAX):
                for direction in ("inc", "dec"):
                    items.append(MinAffSpec(n, lam, direction, t))
                    expected.append(minaff.weyl_dim(n, lam))
        # KR anchor t+1 keeps every KR spec distinct from the specs above,
        # so each q-character in the round is a cache miss.
        for n in range(1, COLD_N_MAX + 1):
            for k in range(1, COLD_K_MAX + 1):
                items.append(KRSpec(n, n, t + 1, k))
                expected.append(comb(n + k, k))
        return Inputs(workload, t, items, expected, sum(expected))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# rounds: each times its items on the timer and returns its raw wall time and
# failed item count
# ---------------------------------------------------------------------------


def _sweep_round(inputs: Inputs, tracer: Tracer | None, timer: ProbedTimer) -> tuple[float, int]:
    OUT_DIR.mkdir(exist_ok=True)
    config = OUT_DIR / "sweep_config.json"
    output = OUT_DIR / "sweep.jsonl"
    config.write_text(json.dumps({**SWEEP_CONFIG, "output": str(output)}), encoding="utf-8")
    point = vars(cli)["_sweep_point"]

    def timed_point(pt):
        if tracer is not None:
            tracer.item = len(timer.items)
        timer.start_item()
        line = point(pt)
        timer.end_item()
        return line

    clear_qchar_cache()
    stdout = io.StringIO()
    cli._sweep_point = timed_point
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["sweep", "--config", str(config)])
        wall = perf_counter() - t0
    finally:
        cli._sweep_point = point
        if tracer is not None:
            tracer.item = -1
    data = output.read_bytes() if output.exists() else b""
    output.unlink(missing_ok=True)
    ok = (
        code == 0
        and "violations: 0" in stdout.getvalue()
        and hashlib.sha256(data).hexdigest() == inputs.expected[0]
        and len(timer.items) == len(inputs.items)
    )
    if not ok:
        print(f"sweep check failed: exit {code}, {stdout.getvalue()!r}", file=sys.stderr)
    return wall, 0 if ok else len(inputs.items)


def _report_fields(stdout: str) -> dict:
    report = json.loads(stdout)
    return {key: report[key] for key in REPORT_FIELDS}


def _big_product_round(inputs: Inputs, tracer: Tracer | None, timer: ProbedTimer) -> tuple[float, int]:
    outputs = []
    t_round = perf_counter()
    for i, argv in enumerate(inputs.items):
        if tracer is not None:
            tracer.item = i
        clear_qchar_cache()
        stdout = io.StringIO()
        timer.start_item()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        except Exception:  # an item that raises is counted as failed
            traceback.print_exc()
            code = None
        timer.end_item()
        outputs.append((code, stdout.getvalue()))
    wall = perf_counter() - t_round
    failed = 0
    for argv, (code, out), expected in zip(inputs.items, outputs, inputs.expected):
        try:
            ok = code == 0 and _report_fields(out) == expected
        except (ValueError, KeyError):
            ok = False
        if not ok:
            failed += 1
            print(f"big_product check failed: {' '.join(argv)} exit {code}", file=sys.stderr)
    return wall, failed


def _qchar_cold_round(inputs: Inputs, tracer: Tracer | None, timer: ProbedTimer) -> tuple[float, int]:
    outputs = []
    clear_qchar_cache()
    t_round = perf_counter()
    for i, spec in enumerate(inputs.items):
        if tracer is not None:
            tracer.item = i
        timer.start_item()
        try:
            if isinstance(spec, KRSpec):
                out = (minaff.qchar_kr(spec), minaff.kr_qchar_by_partitions(spec.n, spec.r, spec.k))
            else:
                out = minaff.qchar(spec)
        except Exception:  # an item that raises is counted as failed
            traceback.print_exc()
            out = None
        timer.end_item()
        outputs.append(out)
    wall = perf_counter() - t_round
    failed = 0
    for spec, out, expected in zip(inputs.items, outputs, inputs.expected):
        if isinstance(spec, KRSpec):
            ok = out is not None and out[0] == out[1] and out[1].dimension == expected
        else:
            ok = out is not None and out.dimension == expected
        if not ok:
            failed += 1
            print(f"qchar_cold check failed: {spec}", file=sys.stderr)
    return wall, failed


ROUNDS = {"sweep": _sweep_round, "big_product": _big_product_round, "qchar_cold": _qchar_cold_round}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run rounds for about ``seconds`` (at least one; exactly one when
    traced) and return the per-round measurements.

    Another round starts while the run would end no more than half a round
    past the budget, so the measured time stays close to ``seconds``.
    """
    inputs = make_inputs(workload, seed)
    tracer = Tracer() if traced else None
    rounds = []
    if tracer is not None:
        tracer.install()
    try:
        t_start = perf_counter()
        while True:
            # Traced rounds probe only at their ends, so that no probe time
            # lands in a span's self time.
            timer = ProbedTimer(math.inf) if traced else ProbedTimer()
            raw_wall, failed = ROUNDS[workload](inputs, tracer, timer)
            probe_s = timer.probe_seconds()
            timer.probe(force=True)
            raw = [t1 - t0 for t0, t1 in timer.items]
            norm = normalize(timer.items, timer.probes)
            rounds.append({
                "wall_s": normalized_wall(raw_wall, probe_s, raw, norm),
                "raw_wall_s": raw_wall,
                "host_factor": sum(raw) / sum(norm),
                "failed": failed,
                **item_latency_summary(norm),
            })
            if traced or perf_counter() - t_start + raw_wall / 2 > seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "workload": workload,
        "seed": seed,
        "shift": inputs.shift,
        "items": len(inputs.items),
        "work": inputs.work,
        "rounds": rounds,
        "attempted": len(inputs.items) * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        selfs = tracer.self_times()
        layers, share = tracer.layer_metrics(selfs)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
        tracer.write(spans_file, selfs)
        result.update(
            layers=layers,
            self_share=share,
            missing_sites=tracer.missing,
            spans=len(tracer.start),
            spans_file=str(spans_file.relative_to(ROOT)),
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one qcharlab benchmark workload process")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(minaff.__file__).resolve().parents:
        print(f"error: qcharlab imported from {minaff.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.traced))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
