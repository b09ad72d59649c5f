"""Span tracing for the benchmark's traced run.

The library is never edited: timing wrappers replace its attributes at the
sites where callers look them up, and every original is put back by
``Tracer.restore``.  A site that no longer exists is skipped and the
per-layer metrics that depend only on it are reported as ``None``.

Spans are kept in flat in-memory arrays (name, start, end, parent, item) and
written out once, when the run ends.  Code under test is single-threaded, so
spans nest strictly; self time is still computed as duration minus the union
of the child intervals, which does not rely on that.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute looked up there, span name, wrapper kind)
SITES = (
    ("qcharlab.cli", "cmd_sweep", "cli.cmd_sweep", "call"),
    ("qcharlab.cli", "sweep_grid", "cli.sweep_grid", "iter"),
    ("qcharlab.cli", "resonance_window", "tensor.resonance_window", "call"),
    ("qcharlab.cli", "classify_variant", "tensor.classify_variant", "call"),
    ("qcharlab.tensor", "classify_normal", "tensor.classify_normal", "call"),
    ("qcharlab.tensor", "product_qchar", "tensor.product_qchar", "product"),
    ("qcharlab.tensor", "dominant_spectrum", "tensor.dominant_spectrum", "spectrum"),
    ("qcharlab.tensor", "expected_dominants", "tensor.expected_dominants", "call"),
    ("qcharlab.tensor", "family_S", "tensor.family_S", "call"),
    ("qcharlab.tensor", "family_T", "tensor.family_T", "call"),
    ("qcharlab.tensor", "le", "lweight.le", "call"),
    ("qcharlab.tensor", "transform", "lweight.transform", "call"),
    ("qcharlab.tensor", "recognize_minaff", "minaff.recognize_minaff", "call"),
    ("qcharlab.tensor", "recognize_kr", "minaff.recognize_kr", "call"),
    ("qcharlab.tensor", "qchar", "minaff.qchar", "qchar"),
    ("qcharlab.tensor", "qchar_kr", "minaff.qchar_kr", "call"),
    ("qcharlab.tensor", "TensorReport.to_json", "cli.to_json", "call"),
    ("qcharlab.lweight", "lroot_decompose", "lweight.lroot_decompose", "call"),
    ("qcharlab.minaff", "qchar", "minaff.qchar", "qchar"),
    ("qcharlab.minaff", "enumerate_semistandard", "tableaux.enumerate_semistandard", "iter"),
    ("qcharlab.minaff", "monomial_of_tableau", "tableaux.monomial_of_tableau", "call"),
    ("qcharlab.minaff", "monomial_sort_key", "lweight.monomial_sort_key", "call"),
    ("qcharlab.minaff", "kr_qchar_by_partitions", "minaff.kr_qchar_by_partitions", "call"),
)

# Per-layer metric -> (statistic, span names it is computed from).
# "calls" counts spans, "self_s" sums self time, "count" reads the counter
# of the same name that the span's wrapper keeps.
LAYER_METRICS = {
    "tensor.product_qchar.calls": ("calls", ("tensor.product_qchar",)),
    "tensor.product_qchar.self_s": ("self_s", ("tensor.product_qchar",)),
    "tensor.product_qchar.pairs": ("count", ("tensor.product_qchar",)),
    "tensor.product_qchar.terms_out": ("count", ("tensor.product_qchar",)),
    "tensor.dominant_spectrum.self_s": ("self_s", ("tensor.dominant_spectrum",)),
    "tensor.dominant_spectrum.dominant_out": ("count", ("tensor.dominant_spectrum",)),
    "tensor.families.self_s": ("self_s", ("tensor.family_S", "tensor.family_T")),
    "tensor.expected_dominants.self_s": ("self_s", ("tensor.expected_dominants",)),
    "tensor.classify.self_s": ("self_s", ("tensor.classify_variant", "tensor.classify_normal")),
    "lweight.le.calls": ("calls", ("lweight.le",)),
    "lweight.le.self_s": ("self_s", ("lweight.le",)),
    "lweight.lroot_decompose.calls": ("calls", ("lweight.lroot_decompose",)),
    "lweight.lroot_decompose.self_s": ("self_s", ("lweight.lroot_decompose",)),
    "lweight.monomial_sort_key.calls": ("calls", ("lweight.monomial_sort_key",)),
    "lweight.monomial_sort_key.self_s": ("self_s", ("lweight.monomial_sort_key",)),
    "lweight.transform.calls": ("calls", ("lweight.transform",)),
    "lweight.transform.self_s": ("self_s", ("lweight.transform",)),
    "minaff.qchar.calls": ("calls", ("minaff.qchar",)),
    "minaff.qchar.misses": ("count", ("minaff.qchar",)),
    "minaff.qchar.self_s": ("self_s", ("minaff.qchar",)),
    "minaff.qchar.terms_out": ("count", ("minaff.qchar",)),
    "minaff.kr_qchar_by_partitions.self_s": ("self_s", ("minaff.kr_qchar_by_partitions",)),
    "minaff.recognize.self_s": ("self_s", ("minaff.recognize_minaff", "minaff.recognize_kr")),
    "tableaux.enumerate_semistandard.yields": ("count", ("tableaux.enumerate_semistandard",)),
    "tableaux.enumerate_semistandard.self_s": ("self_s", ("tableaux.enumerate_semistandard",)),
    "tableaux.monomial_of_tableau.calls": ("calls", ("tableaux.monomial_of_tableau",)),
    "tableaux.monomial_of_tableau.self_s": ("self_s", ("tableaux.monomial_of_tableau",)),
    "cli.sweep_grid.self_s": ("self_s", ("cli.sweep_grid",)),
    "cli.to_json.self_s": ("self_s", ("cli.to_json",)),
    "cli.cmd_sweep.self_s": ("self_s", ("cli.cmd_sweep",)),
}


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def self_times(start, end, parent) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children (union of the child intervals, clipped)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0
        run_lo = run_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, lo_p), min(hi, hi_p)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def _resolve(module_name: str, attr: str):
    """Owner object and leaf name of a dotted attribute inside a module."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    vars(owner)[leaf]  # KeyError when the site is gone
    return owner, leaf


class Tracer:
    """Records spans and counters at the wrapped sites of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.span_item = array("l")
        self.item = -1  # current item id, set by the workload loop
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.cache_misses_known = True
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_t0 = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self.item)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_t0
            self.gc_collections += 1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        nid = self._name_id(name)
        open_, close, counters = self.open, self.close, self.counters

        if kind == "iter":
            yields = f"{name}.yields"

            @functools.wraps(fn)
            def iter_wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    it = iter(fn(*args, **kwargs))
                finally:
                    close(idx)
                while True:
                    idx = open_(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    counters[yields] += 1
                    yield value

            return iter_wrapper

        cache_info = getattr(fn, "cache_info", None) if kind == "qchar" else None
        if kind == "qchar" and cache_info is None:
            self.cache_misses_known = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if kind == "product":
                counters[f"{name}.pairs"] += len(args[0]) * len(args[1])
                counters[f"{name}.terms_out"] += len(result)
            elif kind == "spectrum":
                counters[f"{name}.dominant_out"] += len(result.entries)
            elif kind == "qchar" and (cache_info is None or cache_info().misses > misses):
                counters[f"{name}.misses"] += 1
                counters[f"{name}.terms_out"] += len(result)
            return result

        return wrapper

    def install(self, sites=SITES) -> None:
        """Wrap every site that exists; record the ones that do not."""
        for module_name, attr, name, kind in sites:
            try:
                owner, leaf = _resolve(module_name, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = vars(owner)[leaf]
            setattr(owner, leaf, self._wrap(name, original, kind))
            self._restore.append((owner, leaf, original))
            self.installed.add(name)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[int]:
        return self_times(self.start, self.end, self.parent)

    def layer_metrics(self, selfs: list[int]) -> tuple[dict, dict]:
        """Per-layer metrics, and the share of traced self time per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for nid, s in zip(self.name, selfs):
            calls[self.names[nid]] += 1
            self_ns[self.names[nid]] += s
        total = sum(self_ns.values()) or 1
        share = {name: ns / total for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])}
        out: dict[str, float | int | None] = {}
        for metric, (stat, spans) in LAYER_METRICS.items():
            if not any(s in self.installed for s in spans):
                out[metric] = None
            elif stat == "calls":
                out[metric] = sum(calls[s] for s in spans)
            elif stat == "self_s":
                out[metric] = sum(self_ns[s] for s in spans) / 1e9
            else:
                out[metric] = self.counters[metric]
        if not self.cache_misses_known:
            out["minaff.qchar.misses"] = None
        qcalls, qmisses = out["minaff.qchar.calls"], out["minaff.qchar.misses"]
        out["minaff.qchar.hit_ratio"] = (
            None if qmisses is None else _ratio(qcalls - qmisses, qcalls)
        )
        out["tensor.useful_ratio"] = _ratio(
            out["tensor.dominant_spectrum.dominant_out"], out["tensor.product_qchar.terms_out"]
        )
        out["runtime.gc_s"] = self.gc_ns / 1e9
        out["runtime.gc_collections"] = self.gc_collections
        return out, share

    def write(self, path, selfs: list[int]) -> None:
        """Write every span as a tab-separated, gzip-compressed table."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\tself_ns\n")
            for i, (nid, s, e, p, it, own) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.span_item, selfs)
            ):
                fh.write(f"{i}\t{self.names[nid]}\t{s - t0}\t{e - t0}\t{p}\t{it}\t{own}\n")
