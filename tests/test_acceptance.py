"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line (run with ``pytest -s`` to see them all);
a failure surfaces as an ordinary assertion error.  The grids follow the
stated bounds, and the stated runtime budgets are asserted as well.
"""

import json
import random
import time
from itertools import combinations_with_replacement
from math import comb

from oracles import all_weights, run_partitions_topdown, weyl_dim_oracle
from qcharlab import (
    KRSpec,
    LMonomial,
    MinAffSpec,
    TheoremViolation,
    classify_normal,
    classify_variant,
    expected_dominants,
    kr_qchar_by_partitions,
    monomial_of_box,
    q_factorize,
    qchar,
    qchar_kr,
    resonance_window,
    right_negativity,
    transform,
    weyl_dim,
    y_string,
)
from qcharlab.cli import main
from qcharlab.sl2fact import in_general_position
from qcharlab.tensor import VARIANTS


def _report(num: int, label: str, t0: float, detail: str = ""):
    extra = f" [{detail}]" if detail else ""
    print(f"CRITERION {num} ({label}): PASS in {time.time() - t0:.2f}s{extra}")


def _sweep_points(variant: str, n_max=3, total_max=3, k_max=3, pad=2):
    row = VARIANTS[variant]
    for n in range(1, n_max + 1):
        for lam in all_weights(n, total_max):
            spec = MinAffSpec(n, lam, row.direction)
            node = 1 if row.first else n
            for k in range(1, k_max + 1):
                for r in resonance_window(spec, node, k, pad):
                    yield spec, KRSpec(n, node, r, k)


_NORMAL_REPORTS = None


def _normal_reports():
    global _NORMAL_REPORTS
    if _NORMAL_REPORTS is None:
        _NORMAL_REPORTS = [
            classify_normal(spec, kr) for spec, kr in _sweep_points("normal")
        ]
    return _NORMAL_REPORTS


def test_criterion_01_fundamental_qcharacters():
    t0 = time.time()
    for n in range(1, 6):
        for s in range(-3, 4):
            lam = (1,) + (0,) * (n - 1)
            terms = qchar(MinAffSpec(n, lam, "inc", s)).terms()
            expected = {monomial_of_box(n, c, s) for c in range(1, n + 2)}
            assert set(terms) == expected and len(terms) == n + 1
            assert all(mult == 1 for mult in terms.values())
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "fundamental q-characters", t0)


def test_criterion_02_kr_oracle_equivalence():
    t0 = time.time()
    pairs = 0
    for n in range(1, 5):
        for k in range(1, 5):
            for r in range(-4, 5):
                tableau_side = qchar_kr(KRSpec(n, n, r, k))
                oracle_side = kr_qchar_by_partitions(n, r, k)
                assert tableau_side == oracle_side
                assert len(tableau_side) == comb(n + k, k)
                pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(2, "KR partition oracle", t0, f"{pairs} modules")


def test_criterion_03_dimension_law():
    t0 = time.time()
    count = 0
    for n in range(1, 5):
        for lam in all_weights(n, 4):
            for direction in ("inc", "dec"):
                dim = qchar(MinAffSpec(n, lam, direction)).dimension
                assert dim == weyl_dim(n, lam) == weyl_dim_oracle(n, lam)
                count += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, "Weyl dimension law", t0, f"{count} specs")


def test_criterion_04_kr_right_negativity():
    t0 = time.time()
    for n in range(1, 5):
        for k in range(1, 5):
            for r in range(-4, 5):
                top = y_string(n, n, r, k)
                close = set()
                for m in qchar_kr(KRSpec(n, n, r, k)).terms():
                    if m == top:
                        continue
                    r_max, neg = right_negativity(m)
                    assert neg
                    if r_max <= r + 2 * k:
                        close.add(m)
                        assert r_max == r + 2 * k
                expected = set()
                for s in range(k):
                    m = y_string(n, n, r, s) * y_string(
                        n, n, r + 2 * (s + 1), k - s
                    ).inverse()
                    if n >= 2:
                        m = m * y_string(n, n - 1, r + 2 * s + 1, k - s)
                    expected.add(m)
                assert close == expected
    _report(4, "right negativity of KR terms", t0)


def test_criterion_05_multiplicity_one_total_order():
    t0 = time.time()
    violations = 0
    points = 0
    for rep in _normal_reports():
        points += 1
        if not rep.totally_ordered or any(c != 1 for _, c in rep.D):
            violations += 1
    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(5, "multiplicity one / total order", t0, f"{points} points")


def test_criterion_06_classification_consistency():
    t0 = time.time()
    cases = {"irreducible": 0, "case_i": 0, "case_ii": 0}
    for rep in _normal_reports():
        cases[rep.tag.kind] += 1
        assert (len(rep.D) >= 2) == (rep.resonance is not None)
        assert [m for m, _ in rep.D] == expected_dominants(rep.spec, rep.kr, rep.resonance)
        if rep.tag.reducible:
            assert rep.lambda_prime is not None
            if rep.tag.kind == "case_ii":
                assert rep.lambda_prime == rep.D[-1][0]
            else:
                assert rep.lambda_prime == rep.D[rep.tag.kprime][0]
        else:
            assert rep.lambda_prime is None
    assert cases["case_i"] > 50 and cases["case_ii"] > 50
    _report(6, "classification consistency", t0, str(cases))


def test_criterion_07_worked_examples():
    t0 = time.time()
    rep = classify_normal(MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, -2, 1))
    assert rep.tag.kind == "case_i"
    assert rep.lambda_prime == LMonomial.identity(1)
    assert len(rep.D) == 2

    rep = classify_normal(MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 3, 1))
    assert rep.tag.kind == "case_ii"
    assert rep.lambda_prime == LMonomial.identity(2)

    rep = classify_normal(MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 0, 1))
    assert rep.tag.kind == "irreducible"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(7, "worked examples", t0)


def test_criterion_08_duality_laws_and_variants():
    t0 = time.time()
    rng = random.Random(20250810)
    for n in range(1, 5):
        h = n + 1
        for _ in range(1000):
            pairs = [
                ((rng.randint(1, n), rng.randint(-6, 6)), rng.choice((-1, 1)))
                for _ in range(rng.randint(0, 5))
            ]
            m = LMonomial(n, pairs)
            assert transform(transform(m, "minus"), "minus") == m
            assert transform(transform(m, "kappa"), "kappa") == m
            assert transform(transform(m, "star"), "star") == transform(m, "tau", -2 * h)
            assert transform(transform(m, "star"), "star_inv") == m

    mismatches = 0
    points = 0
    for variant in ("a", "b", "c"):
        for spec, kr in _sweep_points(variant):
            points += 1
            try:
                rep = classify_variant(spec, kr)
            except TheoremViolation:
                mismatches += 1
                continue
            if rep.tag.reducible:
                assert rep.lambda_prime in [m for m, _ in rep.D]
    # strict generator-level transforms leave no spectral-shift discrepancy
    assert mismatches == 0
    _report(8, "duality laws and variant classification", t0,
            f"{points} variant points, 0 transport discrepancies")


def test_criterion_09_q_factorization():
    t0 = time.time()
    count = 0
    for size in range(7):
        for combo in combinations_with_replacement(range(-4, 7), size):
            counts = {}
            for r in combo:
                counts[r] = counts.get(r, 0) + 1
            m = LMonomial(1, (((1, r), e) for r, e in counts.items()))
            result = q_factorize(m)
            assert result.expand(1) == m
            strings = result.strings
            for a in range(len(strings)):
                for b in range(a + 1, len(strings)):
                    assert in_general_position(strings[a], strings[b])
            valid = [
                part
                for part in run_partitions_topdown(counts)
                if all(
                    in_general_position(part[i], part[j])
                    for i in range(len(part))
                    for j in range(i + 1, len(part))
                )
            ]
            assert valid == [strings]
            count += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(9, "rank-1 q-factorization", t0, f"{count} monomials")


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "sweep.jsonl"
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "n_max": 2,
                "lambda_sum_max": 2,
                "k_max": 2,
                "r_window_pad": 2,
                "variants": ["normal"],
                "parallelism": 1,
                "output": str(out),
            }
        ),
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    first = out.read_bytes()
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert out.read_bytes() == first
    capsys.readouterr()
    _report(10, "sweep determinism", t0, f"{len(first.splitlines())} lines")
