"""The verification sweep: every point of a grid classified, one JSON line
per point.

A ``SweepConfig`` names the grid, which is walked once, in (n, lambda)
blocks (``_planned_blocks``).  ``run`` writes the lines through a
temporary file that replaces the output only when the sweep completes.
One worker runs the points in grid order; two or more take whole blocks.

A point's line is one of three.  At a loud anchor of its group
(``tensor._loud_anchors``) it is ``{"kr", "report", "spec"}`` (``_line``)
around the ``TensorReport.json_text`` of ``classify_variant(spec, kr,
whole_group=True)``.  At a quiet anchor, the only place where an anchor
skips the checks, it is the same line of the irreducible report of lambda,
filled into its row's template (``_quiet_template``) with no report built.
A point that raises is recorded as ``{"kr", "spec", "violation"}`` or
``{"error", "kr", "spec"}`` (``_sweep_point``), and the sweep goes on.

``clear_caches`` empties every cache that belongs to one command:
``tensor``'s, this module's, and ``lweight.le``'s answers per shift class.
``cli.main`` calls it before each command, so no command reads a
classification of an earlier one.  The q-characters, Drinfeld polynomials,
Weyl dimensions and shared specs cached in ``minaff`` persist, as pure
functions of their arguments.  Pool workers start with their own caches.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import signal
from collections import deque
from contextlib import ExitStack, closing, contextmanager, suppress
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

from .errors import InvalidInput, InvariantViolation
from .lweight import LMonomial, _peel_class
from .minaff import CACHE_SIZE, KRSpec, MinAffSpec, _shared_spec, drinfeld_of_spec
from .tensor import (
    _IRREDUCIBLE, VARIANTS, TensorReport, Variant, _check_point, _loud_anchors, _resonances,
    _socle_head, _transported_spec, _variant_of, classify_normal, classify_variant, family_S,
    family_T, resonance_window, spectra_by_anchor,
)


def _dumps(obj) -> str:
    # a config built in Python may hold a value that JSON cannot write
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Grid description for a verification sweep; identical configs produce
    byte-identical JSON-lines output.  The fields are the config's JSON keys,
    and a field with a default may be left out.  Every value has its exact
    type: ``True`` is no integer, and 2.5 or ``"2"`` is not 2."""

    n_max: int
    lambda_sum_max: int
    k_max: int
    output: str
    r_window_pad: int = 2
    variants: tuple[str, ...] = ("normal",)
    parallelism: int = 1

    def __post_init__(self):
        for name, value in vars(self).items():
            wanted, what = (str, "a string") if name == "output" else (int, "an integer")
            if name != "variants" and type(value) is not wanted:
                raise InvalidInput(f"sweep config {name} must be {what}, got {_dumps(value)}")
        for name in ("n_max", "lambda_sum_max", "k_max"):
            if getattr(self, name) < 1:
                raise InvalidInput(f"{name} must be at least 1")
        if self.r_window_pad < 0:
            raise InvalidInput("r_window_pad must be nonnegative")
        if self.parallelism < 1:
            raise InvalidInput("parallelism must be at least 1")
        variants = self.variants
        known = type(variants) is tuple and all(isinstance(v, str) and v in VARIANTS for v in variants)
        if not known or not variants or len(set(variants)) != len(variants):
            raise InvalidInput(f"variants must be distinct names from {'/'.join(VARIANTS)}, got {variants!r}")

    @classmethod
    def from_json(cls, data) -> "SweepConfig":
        """The config of a parsed JSON object, whose ``variants`` is a list."""
        if not isinstance(data, dict):
            raise InvalidInput(f"sweep config must be a JSON object, got {_dumps(data)}")
        fields = dataclasses.fields(cls)
        names = {f.name for f in fields}
        unknown = set(data) - names
        if unknown:
            raise InvalidInput(f"unknown sweep config keys: {sorted(unknown)}")
        missing = sorted(f.name for f in fields if f.name not in data and f.default is dataclasses.MISSING)
        if missing:
            raise InvalidInput(f"sweep config is missing keys {missing}")
        values = dict(data)
        if "variants" in values:
            variants = values["variants"]
            if type(variants) is not list:
                raise InvalidInput(f"sweep config variants must be a list of names, got {_dumps(variants)}")
            values["variants"] = tuple(variants)
        return cls(**values)


def _weights(n: int, sum_max: int):
    """Every weight vector of rank n with total at most sum_max, zero
    included, in lex order: each first entry in turn, then the rest."""
    if n == 0:
        yield ()
        return
    for first in range(sum_max + 1):
        for rest in _weights(n - 1, sum_max - first):
            yield (first, *rest)


def _lambdas(n: int, sum_max: int):
    """All nonzero weight vectors of rank n with total at most sum_max, lex
    order; only these are generated, not all (sum_max + 1)^n vectors."""
    weights = _weights(n, sum_max)
    next(weights)  # the zero vector, which comes first
    return weights


# The most points one sweep may visit, counted by ``_planned_blocks`` before
# the first is built.  The full n = 5 grid has 222,040.
SWEEP_POINT_BUDGET = 1_000_000


def _planned_blocks(cfg: SweepConfig, limit: float) -> tuple[int, list[list]]:
    """The number of points of the grid, summed over the groups' windows
    without building a point, and its (n, lambda) blocks in grid order, each
    a list of its groups (spec, KR module at anchor 0, window of anchors)
    and a contiguous run of the output.  The rows and lengths of a direction
    share one ``_shared_spec``.  Every group has an anchor, so the walk stops
    at the first group that takes the count past ``limit``: then the count
    is a lower bound, and at most ``limit + 1`` groups were visited."""
    count, blocks = 0, []
    for n in range(1, cfg.n_max + 1):
        for lam in _lambdas(n, cfg.lambda_sum_max):
            blocks.append(block := [])
            for name in cfg.variants:
                variant = VARIANTS[name]
                node = 1 if variant.first else n
                spec = _shared_spec(n, lam, variant.direction, 0)
                for k in range(1, cfg.k_max + 1):
                    window = resonance_window(spec, node, k, cfg.r_window_pad)
                    block.append((spec, KRSpec(n, node, 0, k), window))
                    count += len(window)
                    if count > limit:
                        return count, blocks
    return count, blocks


def _plan_points(groups):
    """The points (spec, kr) of the groups, in order."""
    for spec, kr, window in groups:
        for r in window:
            yield spec, kr._at(r)


def sweep_grid(cfg: SweepConfig):
    """Deterministic enumeration of (spec, kr) pairs for the sweep."""
    return _plan_points(chain.from_iterable(_planned_blocks(cfg, math.inf)[1]))


def _line(kr_text: str, report_text: str, spec_text: str) -> str:
    """A loud sweep point's JSON line ``{"kr", "report", "spec"}``."""
    return f'{{"kr":{kr_text},"report":{report_text},"spec":{spec_text}}}'


@lru_cache(maxsize=CACHE_SIZE)
def _quiet_template(variant: Variant, n: int) -> tuple[tuple[str, ...], itemgetter]:
    """The row's quiet sweep line at rank n, cut at the texts of the spec,
    the KR module and lambda: its literal pieces, and the getter that
    interleaves them with those three texts.  The line is
    ``"".join(getter((spec_text, kr_text, lam_text) + pieces))``.

    ``_line`` wraps the ``TensorReport.json_text`` of one quiet report of
    the row, with control characters, which JSON text never holds raw, in
    place of the three texts (the identity monomial's text stands for
    lambda's), so the schema stays written once.
    """
    lam = LMonomial.identity(n)
    spec = MinAffSpec(n, (1,) + (0,) * (n - 1), variant.direction)
    kr = KRSpec(n, 1 if variant.first else n, 0, 1)
    report = TensorReport(
        variant=variant.name, spec=spec, kr=kr, lam=lam, D=((lam, 1),), totally_ordered=True,
        tag=_IRREDUCIBLE, resonance=None, lambda_prime=None,
        socle_head=_socle_head(variant, _IRREDUCIBLE, lam, None),
    )
    text = _line("\x01", report.json_text(spec_text="\x00", kr_text="\x01"), "\x00")
    parts = re.split("([\x00-\x02])", text.replace(lam.json_text(), "\x02"))
    # a marker's code is its text's index; the pieces follow the three texts
    fields = [3]
    for j, marker in enumerate(parts[1::2], start=4):
        fields += (ord(marker), j)
    return tuple(parts[::2]), itemgetter(*fields)


@dataclasses.dataclass(frozen=True, eq=False)
class SweepGroup:
    """What every point of a sweep group (spec, node, k) writes that does
    not depend on its KR anchor r, built once per visit (``_sweep_group``).

    ``loud`` is the group's ``_loud_anchors``, and ``pieces`` and
    ``interleave`` are the row's ``_quiet_template``.  ``spec_text`` is
    the spec's ``json_text`` and ``kr_head`` the KR module's up to
    ``"r":``.  Lambda = omega * varpi is written from omega's JSON
    entries: those on the rows below the KR node, each followed by a
    comma, end ``lam_head``; those above it, each after a comma, start
    ``lam_tail``; those on the KR node's row are ``row``, its ``(r, e)``
    pairs, and ``row_text``, joined.  ``y_head`` is the ``"[node,"`` that
    opens an entry on that row, and ``k`` is varpi's string length.
    """

    loud: frozenset[int]
    pieces: tuple[str, ...]
    interleave: itemgetter
    spec_text: str
    kr_head: str
    lam_head: str
    y_head: str
    row: tuple[tuple[int, int], ...]
    row_text: str
    lam_tail: str
    k: int

    def lam_text(self, r: int) -> str:
        """The ``json_text`` of lambda = omega * varpi at anchor r, with no
        monomial built.  varpi = Y[node, r] Y[node, r + 2] ... Y[node, last]
        and omega are both dominant, so no exponent cancels, and only
        omega's row at the KR node takes varpi's keys."""
        last = r + 2 * self.k - 2
        row, y_head = self.row, self.y_head
        if row and row[0][0] <= last and r <= row[-1][0]:
            # the strings' spans overlap: merge them key by key
            exps = dict(row)
            for s in range(r, last + 1, 2):
                exps[s] = exps.get(s, 0) + 1
            ys = ",".join([f"{y_head}{s},{e}]" for s, e in sorted(exps.items())])
        else:
            # varpi lies on one side of omega's row, all its exponents 1
            ys = f"{y_head}{f',1],{y_head}'.join(map(str, range(r, last + 1, 2)))},1]"
            if row:
                ys = f"{ys},{self.row_text}" if last < row[0][0] else f"{self.row_text},{ys}"
        return f"{self.lam_head}{ys}{self.lam_tail}"


@lru_cache(maxsize=1)
def _sweep_group(spec: MinAffSpec, node: int, k: int) -> SweepGroup:
    """The ``SweepGroup`` of (spec, node, k).  Only the last group's record
    is held, since a sweep visits a group's anchors in a row and a
    worker takes whole (n, lambda) blocks."""
    pieces, interleave = _quiet_template(_variant_of(spec.direction, node != spec.n), spec.n)
    entries = drinfeld_of_spec(spec).items()
    row = tuple((s, e) for (i, s), e in entries if i == node)
    below = "".join([f"[{i},{s},{e}]," for (i, s), e in entries if i < node])
    above = "".join([f",[{i},{s},{e}]" for (i, s), e in entries if i > node])
    return SweepGroup(
        loud=_loud_anchors(spec, node, k),
        pieces=pieces,
        interleave=interleave,
        spec_text=spec.json_text(),
        kr_head=f'{{"k":{k},"n":{spec.n},"node":{node},"r":',
        lam_head=f'{{"Y":[{below}',
        y_head=f"[{node},",
        row=row,
        row_text=",".join([f"[{node},{s},{e}]" for s, e in row]),
        lam_tail=f'{above}],"n":{spec.n}}}',
        k=k,
    )


def sweep_group(spec: MinAffSpec, kr: KRSpec) -> SweepGroup:
    """The ``SweepGroup`` of (spec, kr.node, kr.k).  It raises what
    ``tensor._check_point`` raises for the point, and what ``_loud_anchors``
    raises for the group (the ``r_window`` check and the recognition of the
    transported problem)."""
    _check_point(spec, kr)
    return _sweep_group(spec, kr.node, kr.k)


def sweep_line(spec: MinAffSpec, kr: KRSpec) -> tuple[str, str]:
    """A sweep point's outcome, the ``CaseTag.kind`` of its report, and its
    loud or quiet line, every text of which that does not depend on r
    comes from the point's ``sweep_group`` record."""
    group = sweep_group(spec, kr)
    r, spec_text = kr.r, group.spec_text
    kr_text = f"{group.kr_head}{r}}}"
    if r in group.loud:
        rep = classify_variant(spec, kr, whole_group=True)
        report = rep.json_text(spec_text=spec_text, kr_text=kr_text)
        return rep.tag.kind, _line(kr_text, report, spec_text)
    texts = (spec_text, kr_text, group.lam_text(r))
    return "irreducible", "".join(group.interleave(texts + group.pieces))


def _sweep_point(point: tuple[MinAffSpec, KRSpec]) -> tuple[str, str]:
    """One point's count key and line: ``sweep_line``'s, or, when that
    raises (also while the group record is built), its failure record, a
    ``violation`` or an ``error`` (``"<Type>: <message>"``)."""
    spec, kr = point
    try:
        return sweep_line(spec, kr)
    except InvariantViolation as exc:
        head, tail = "", f',"violation":{_json_str(str(exc))}'
    except Exception as exc:
        # a message is arbitrary text, escaped as json.dumps escapes it
        head, tail = f'"error":{_json_str(f"{type(exc).__name__}: {exc}")},', ""
    return "violations", f'{{{head}"kr":{kr.json_text()},"spec":{spec.json_text()}{tail}}}'


# The blocks each worker of a sweep on two or more workers may have
# submitted and not yet read.
CHUNKS_PER_WORKER = 2


def _sweep_block(point, block: list) -> list[tuple[str, str]]:
    return [point(p) for p in _plan_points(block)]


def _pooled_results(pool, point, blocks, workers: int):
    """``point`` of each point of ``blocks``, in order, computed on ``pool``
    a whole block per task, with at most ``CHUNKS_PER_WORKER * workers``
    blocks submitted and not yet read, so a sweep holds the lines of a few
    blocks however large its grid.  Closing the generator cancels the
    blocks not yet started.  It runs within ``_sigterm_held``, and a held
    SIGTERM is handled after each block is read, outside the pool's
    code."""
    window = CHUNKS_PER_WORKER * workers
    pending: deque = deque()

    def read_block():
        lines = pending.popleft().result()
        _handle_held_sigterm()
        return lines

    try:
        for block in blocks:
            if len(pending) == window:
                yield from read_block()
            pending.append(pool.submit(_sweep_block, point, block))
        while pending:
            yield from read_block()
    finally:
        for future in pending:
            future.cancel()


def clamp_workers(requested: int, blocks: int) -> int:
    """Worker processes for a sweep: at most one per CPU and one per block."""
    return max(1, min(requested, os.cpu_count() or 1, blocks))


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


@contextmanager
def _sigterm_exits():
    """SIGTERM raises ``SystemExit`` within the block, so that the cleanup
    of enclosing ``finally`` blocks and context managers runs as on ^C.

    Signal handlers belong to the main thread, so the block must run there.
    """
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextmanager
def _sigterm_held():
    """SIGTERM is blocked within the block, in this thread and in every
    thread and process started from it, and a held SIGTERM is handled when
    the block ends or at ``_handle_held_sigterm``.

    A process pool needs this: a handler that raises inside the executor's
    own code (a ``submit`` half done, one of its locks taken and never
    released) can leave the pool's shutdown waiting forever.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _handle_held_sigterm():
    """Within ``_sigterm_held``: run the handler of a held SIGTERM here."""
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})


def _unwritable(path: str, exc: OSError) -> InvalidInput:
    # the OS names the private temporary file; the user gave ``path``
    return InvalidInput(f"cannot write output {path!r}: {exc.strerror}")


@contextmanager
def _replaced_on_success(path: str):
    """Text file handle on a temporary file beside ``path``.

    The temporary file replaces ``path`` when the block ends normally and is
    removed when it raises, so ``path`` never holds partial output.  An
    ``OSError`` of its open, close or replace is ``_unwritable``; one that
    the block raises passes through.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    in_block = False
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            in_block = True
            yield fh
            in_block = False
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and not in_block:
            raise _unwritable(path, exc) from exc
        raise


def run(cfg: SweepConfig, point) -> tuple[int, dict[str, int]]:
    """Write the line of ``point((spec, kr))`` at every point of the grid to
    ``cfg.output``, and return the number of points and the count of each
    outcome.  A grid of more than ``SWEEP_POINT_BUDGET`` points is refused
    before any point is built or any file is written.  On two or more
    workers ``_pooled_results`` submits a few blocks at a time, ``point``
    sent by name.  An ``OSError`` of the output file is ``InvalidInput``;
    any other, such as a pool that cannot start, passes through."""
    size, blocks = _planned_blocks(cfg, SWEEP_POINT_BUDGET)
    if size > SWEEP_POINT_BUDGET:
        raise InvalidInput(
            f"the sweep grid has at least {size:,} points, over the budget of "
            f"{SWEEP_POINT_BUDGET:,} points per sweep; lower n_max, lambda_sum_max, "
            "k_max or r_window_pad"
        )
    workers = clamp_workers(cfg.parallelism, len(blocks))
    counts = {"irreducible": 0, "case_i": 0, "case_ii": 0, "violations": 0}
    with ExitStack() as stack:
        stack.enter_context(_sigterm_exits())
        fh = stack.enter_context(_replaced_on_success(cfg.output))
        if workers == 1:
            results = map(point, _plan_points(chain.from_iterable(blocks)))
        else:
            # imported here: loading multiprocessing costs every start of
            # the tool, and only a sweep on two or more workers needs it
            from concurrent.futures import ProcessPoolExecutor

            # workers ignore SIGTERM, also one sent to the whole process group:
            # the parent's exit closes the results, which cancels the pending
            # blocks, and the pool's exit then waits for the running ones, so
            # only the parent ends the pool; the parent handles a SIGTERM
            # only between blocks, and after the pool's exit
            stack.enter_context(_sigterm_held())
            ignore_sigterm = (signal.SIGTERM, signal.SIG_IGN)
            pool = stack.enter_context(
                ProcessPoolExecutor(workers, initializer=signal.signal, initargs=ignore_sigterm)
            )
            results = stack.enter_context(closing(_pooled_results(pool, point, blocks, workers)))
        for outcome, line in results:
            try:
                fh.write(line + "\n")
            except OSError as exc:
                raise _unwritable(cfg.output, exc) from exc
            counts[outcome] += 1
    return size, counts


# Every cache that belongs to one command, bound here so that a wrapper
# that replaces one of them (a tracer, a test) leaves it reachable.
_CACHES = (
    classify_normal, spectra_by_anchor, _transported_spec, _resonances, family_S, family_T,
    _quiet_template, _sweep_group, _peel_class,
)


def clear_caches() -> None:
    """Empty every cache that belongs to one command (see the module notes)."""
    for cached in _CACHES:
        cached.cache_clear()
