"""Tests of the benchmark's own code: percentile rule, self-time arithmetic,
seed-independent work, and tracing wrappers that leave qcharlab untouched."""

import contextlib
import gc
import importlib
import io
import json

import pytest

from qcharlab import cli
from qcharlab.minaff import KRSpec, MinAffSpec
from qcharlab.tensor import TensorReport

from hostspeed import REFERENCE_PROBE_S, WINDOW_S, ProbedTimer, normalize, normalized_wall
from spans import SITES, Tracer, self_times
from stats import item_latency_summary, tail_percentile
from workloads import WORKLOADS, make_inputs, shift_monomials

WRAPPED_MODULES = ("qcharlab.cli", "qcharlab.tensor", "qcharlab.lweight", "qcharlab.minaff")


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (5820, (99.0, 58)),  # sweep: p99.9 has only 5 beyond
        (258, (95.0, 12)),  # qchar_cold: p99 has only 2 beyond
        (20, (50.0, 10)),
        (19, None),
        (4, None),  # big_product
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    values = list(range(n, 0, -1))
    tail = tail_percentile(values)
    if expected is None:
        assert tail is None
    else:
        p, value, beyond = tail
        assert (p, beyond) == expected
        assert sum(v > value for v in values) == beyond


def test_too_few_items_fall_back_to_the_slowest():
    summary = item_latency_summary([0.004, 0.001, 0.003, 0.002])
    assert summary["tail_p"] == 100.0 and summary["tail_beyond"] == 0
    assert summary["tail_ms"] == pytest.approx(4.0)
    assert summary["p50_ms"] == pytest.approx(2.5)


# -- host-speed normalisation -------------------------------------------------------


def _probe(t, k):
    return (t, t + 0.01, k)


def test_items_are_scaled_by_the_median_probe_near_them():
    slow = 2 * REFERENCE_PROBE_S
    probes = [_probe(0.0, slow), _probe(0.5, 9 * slow), _probe(1.0, slow), _probe(10.0, REFERENCE_PROBE_S)]
    items = [(0.1, 0.4), (1.1, 1.3), (5.0, 6.0)]
    # items 1 and 2: the window holds the outlier at 0.5 but the median is
    # slow; item 3: only the neighbours at 1.0 and 10.0
    expected = [0.3 / 2, 0.2 / 2, 1.0 * REFERENCE_PROBE_S / (1.5 * REFERENCE_PROBE_S)]
    assert normalize(items, probes) == pytest.approx(expected)
    assert WINDOW_S < 4.0


def test_round_wall_drops_probe_time_and_scales_like_its_items():
    assert normalized_wall(10.0, 0.5, [2.0, 3.0], [1.0, 1.5]) == pytest.approx(9.5 / 2)


def test_timer_probes_at_most_every_interval():
    timer = ProbedTimer(probe_every=3600.0)
    for _ in range(3):
        timer.start_item()
        timer.end_item()
    timer.probe(force=True)
    assert len(timer.items) == 3 and len(timer.probes) == 2
    assert timer.probe_seconds() == pytest.approx(sum(e - s for s, e, _ in timer.probes))
    assert len(normalize(timer.items, timer.probes)) == 3


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    #  0: root      [0, 100]
    #  1:   a       [10, 40]
    #  2:     a1    [15, 25]
    #  3:   b       [50, 70]
    #  4:   c       [60, 80]   overlaps b: the union 50..80 counts once
    #  5:   d       [90, 120]  runs past the root: clipped to 90..100
    start = [0, 10, 15, 50, 60, 90]
    end = [100, 40, 25, 70, 80, 120]
    parent = [-1, 0, 1, 0, 0, 0]
    assert self_times(start, end, parent) == [100 - 30 - 30 - 10, 30 - 10, 10, 20, 20, 30]


def test_self_times_of_a_real_trace_sum_to_the_root_span():
    tracer = Tracer()
    tracer.install()
    try:
        cli.main(["sweep", "--config", "/nonexistent/config.json"])  # exits 2 inside cmd_sweep
        tensor_report = cli.classify_variant(MinAffSpec(2, (1, 0)), KRSpec(2, 2, 3, 1))
    finally:
        tracer.restore()
    assert tensor_report.tag.kind == "case_ii"
    selfs = tracer.self_times()
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert sum(selfs) == sum(tracer.end[i] - tracer.start[i] for i in roots)
    layers, share = tracer.layer_metrics(selfs)
    assert layers["tensor.product_qchar.calls"] == 1
    assert layers["tensor.product_qchar.pairs"] == 3 * 3
    assert layers["cli.cmd_sweep.self_s"] > 0
    assert sum(share.values()) == pytest.approx(1.0)


# -- inputs --------------------------------------------------------------------


EXPECTED_SIZE = {"sweep": (5820, 1_470_612), "big_product": (4, 582_540), "qchar_cold": (258, 53_008)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_item_and_work_counts_do_not_depend_on_the_seed(workload):
    sizes = {(len(inp.items), inp.work) for inp in (make_inputs(workload, s) for s in (0, 1, 7, 12345))}
    assert sizes == {EXPECTED_SIZE[workload]}


def test_seeds_shift_the_spectral_parameter():
    assert len({make_inputs("qchar_cold", s).shift for s in range(8)}) > 1


def test_reports_transport_under_a_global_shift():
    def report(t):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["tensor", "--n", "2", "--lambda", "1,0", "--shift", str(t),
                             "--kr", f"2,{3 + t},1", "--json"])
        assert code == 0
        return json.loads(out.getvalue())

    base = report(0)
    assert base["case"] == "ii"
    del base["spec"], base["kr"]
    for t in (-7, 2, 5):
        shifted = report(t)
        assert shifted.pop("spec")["shift"] == t and shifted.pop("kr")["r"] == 3 + t
        assert shifted == shift_monomials(base, t)


# -- wrappers ------------------------------------------------------------------


def _snapshot():
    state = {name: dict(vars(importlib.import_module(name))) for name in WRAPPED_MODULES}
    state["TensorReport"] = dict(vars(TensorReport))
    return state


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[mod].keys() == b[mod].keys() and all(a[mod][k] is b[mod][k] for k in a[mod]) for mod in a
    )


def test_restore_leaves_qcharlab_attributes_identical():
    before = _snapshot()
    callbacks = list(gc.callbacks)
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing
    assert not _same(before, _snapshot())
    tracer.restore()
    assert _same(before, _snapshot())
    assert gc.callbacks == callbacks


def test_deleted_site_is_reported_as_null():
    sites = [s for s in SITES if s[2] != "tensor.product_qchar"]
    sites.append(("qcharlab.tensor", "product_qchar_gone", "tensor.product_qchar", "product"))
    sites.append(("qcharlab.no_such_module", "f", "cli.cmd_sweep", "call"))
    before = _snapshot()
    tracer = Tracer()
    tracer.install(sites)
    tracer.restore()
    assert _same(before, _snapshot())
    assert tracer.missing == ["qcharlab.tensor.product_qchar_gone", "qcharlab.no_such_module.f"]
    layers, _ = tracer.layer_metrics(tracer.self_times())
    for name in ("calls", "self_s", "pairs", "terms_out"):
        assert layers[f"tensor.product_qchar.{name}"] is None
    assert layers["tensor.useful_ratio"] is None
    assert layers["cli.cmd_sweep.self_s"] == 0.0  # its real site is still wrapped
    assert layers["tensor.dominant_spectrum.self_s"] == 0.0
