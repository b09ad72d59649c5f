"""Command-line front end.

Commands: ``qchar`` (q-characters of affinization/KR specs), ``tensor``
(classify one tensor product), ``sweep`` (grid verification run driven by a
JSON config, JSON-lines output), ``factorize`` (rank-1 q-factorization) and
``transform`` (duality maps on monomials).

Exit codes: 0 success (also when the reader closes stdout early, as
``| head`` does), 1 usage error, 2 invalid input, 3 theorem violation, 4
internal error (any other exception from a command, reported in one line),
and 143 when SIGTERM stops a sweep (its temporary file is removed).  All output
is deterministic: terms are printed descending along the loop-root order
with lexicographic tie-breaks, and JSON is emitted with sorted keys.  Each
JSON value is written by its type's ``json_text``, and every output is
assembled from those pieces in sorted-key order, byte-identical to
``json.dumps(sort_keys=True, separators=(",", ":"))``; free text is escaped
as ``json.dumps`` escapes it.  Monomial input must be a JSON object with
exactly the keys ``n`` and ``Y``, and must use JSON integers.  Integer
arguments (``--n``, ``--shift``, ``--t``, and each part of ``--lambda`` and
``--kr``) are an optional minus sign and ASCII digits.

``main`` may be called repeatedly in one process.  The parser is built once.
Every call first empties the caches of ``tensor`` (``tensor.clear_caches``:
its reports, spectra, transports, resonance tables, report templates,
family members and sweep group records, and ``lweight.le``'s answers per
shift class of quotients), so no command reads a classification of an
earlier one.  The q-characters, Drinfeld polynomials and shared specs
cached in ``minaff`` persist, but they are pure functions of their
arguments and change no output.  Each command is looked up by name
when it is called, so a wrapper set on ``cli.cmd_*`` applies.

A sweep walks its grid once (``_planned_blocks``), in (n, lambda) blocks:
the walk sizes the grid and holds each block's groups, whose specs are one
``minaff._shared_spec`` per direction.  One worker runs the points in grid
order; two or more take whole blocks, the pool's unit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import signal
import sys
from collections import deque
from contextlib import ExitStack, closing, contextmanager, suppress
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

from .errors import InvalidInput, InvariantViolation
from .lweight import _TRANSFORM_KINDS, LMonomial, transform
from .minaff import (
    KRSpec,
    MinAffSpec,
    _shared_spec,
    drinfeld_of_spec,
    kr_qchar_by_partitions,
    qchar,
    qchar_kr,
)
from .sl2fact import q_factorize
from .tensor import (
    VARIANTS,
    TensorReport,
    classify_variant,
    clear_caches,
    resonance_window,
    sweep_line,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _object_text(fields: dict[str, str]) -> str:
    """A JSON object of encoded values with its keys in ``_dumps`` order;
    the keys are plain names that need no escaping."""
    return "{" + ",".join([f'"{key}":{text}' for key, text in sorted(fields.items())]) + "}"


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """An optional minus sign and ASCII digits, nothing else: ``int()`` would
    also take underscores, a plus sign, surrounding spaces and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _int_argument(text: str) -> int:
    """``_integer`` for argparse, which reports a bad value as a usage error."""
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        return tuple(_integer(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"cannot parse weight vector {text!r}") from exc


def _parse_kr(n: int, text: str) -> KRSpec:
    try:
        node, r, k = (_integer(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"cannot parse KR triple {text!r} (want node,r,k)") from exc
    return KRSpec(n, node, r, k)


def _parse_monomial(text: str) -> LMonomial:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"monomial is not valid JSON: {exc}") from exc
    try:
        return LMonomial.from_json(data)
    except InvalidInput as exc:
        raise InvalidInput(f"monomial JSON does not match the schema: {exc}") from exc


def _minaff_from_args(args) -> MinAffSpec:
    return MinAffSpec(args.n, _parse_lambda(args.lam), args.direction or "inc", args.shift or 0)


def _spec_from_args(args) -> MinAffSpec | KRSpec:
    if args.kr is not None and args.lam is not None:
        raise InvalidInput("give either --lambda or --kr, not both")
    if args.kr is not None:
        if args.shift is not None:
            raise InvalidInput("--shift applies to --lambda specs; shift a KR module through its anchor r")
        if args.direction is not None:
            raise InvalidInput("--dir applies to --lambda specs; a KR module has no direction")
        return _parse_kr(args.n, args.kr)
    if args.lam is None:
        raise InvalidInput("one of --lambda or --kr is required")
    return _minaff_from_args(args)


def cmd_qchar(args) -> int:
    spec = _spec_from_args(args)
    partitions = args.oracle == "partitions"
    if partitions and not (isinstance(spec, KRSpec) and spec.node == spec.n):
        raise InvalidInput("the partition oracle applies to last-node KR modules")
    if isinstance(spec, KRSpec):
        qc = kr_qchar_by_partitions(spec.n, spec.r, spec.k) if partitions else qchar_kr(spec)
        key, drinfeld = "kr", spec.drinfeld()
    else:
        qc = qchar(spec)
        key, drinfeld = "spec", drinfeld_of_spec(spec)
    if args.json:
        print(_object_text({key: spec.json_text(), "n": str(qc.n), "terms": qc.json_text()}))
        return EXIT_OK
    print(f"{key}: {spec.json_text()}")
    print(f"drinfeld: {drinfeld}")
    print(f"terms: {qc.dimension}")
    dominants = qc.dominant_terms()
    print(f"dominant ({len(dominants)}):")
    for m, c in dominants:
        print(f"  {m}" + (f"  x{c}" if c != 1 else ""))
    if args.full:
        print("all terms:")
        for m, c in qc.sorted_terms():
            print(f"  {m}" + (f"  x{c}" if c != 1 else ""))
    return EXIT_OK


def _print_report(rep: TensorReport, as_json: bool):
    if as_json:
        print(rep.json_text())
        return
    print(f"variant: {rep.variant}")
    print(f"lambda: {rep.lam}")
    if rep.tag.reducible:
        print(f"verdict: reducible (case {rep.tag.case_json()}, p={rep.tag.p}, k'={rep.tag.kprime})")
        print(f"lambda_prime: {rep.lambda_prime}")
    else:
        print("verdict: irreducible")
    chain = "chain" if rep.totally_ordered else "NOT totally ordered"
    print(f"D ({len(rep.D)} terms, {chain}):")
    for m, c in rep.D:
        print(f"  {m}" + (f"  x{c}" if c != 1 else ""))
    print("socle/head:")
    for order in ("V", "Vprime"):
        socle, head = rep.socle_head[order]
        print(f"  {order}: socle={socle}  head={head}")


def cmd_tensor(args) -> int:
    spec = _minaff_from_args(args)
    kr = _parse_kr(args.n, args.kr)
    rep = classify_variant(spec, kr)
    _print_report(rep, args.json)
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Grid description for a verification sweep; identical configs produce
    byte-identical JSON-lines output.  The fields are the config's JSON keys,
    and a field with a default may be left out."""

    n_max: int
    lambda_sum_max: int
    k_max: int
    output: str
    r_window_pad: int = 2
    variants: tuple[str, ...] = ("normal",)
    parallelism: int = 1

    def __post_init__(self):
        for name in ("n_max", "lambda_sum_max", "k_max"):
            if getattr(self, name) < 1:
                raise InvalidInput(f"{name} must be at least 1")
        if self.r_window_pad < 0:
            raise InvalidInput("r_window_pad must be nonnegative")
        if self.parallelism < 1:
            raise InvalidInput("parallelism must be at least 1")
        known = all(isinstance(v, str) and v in VARIANTS for v in self.variants)
        if not known or not self.variants or len(set(self.variants)) != len(self.variants):
            raise InvalidInput(
                f"variants must be distinct names from {'/'.join(VARIANTS)}, got {self.variants!r}"
            )

    @classmethod
    def from_json(cls, data) -> "SweepConfig":
        if not isinstance(data, dict):
            raise InvalidInput(f"sweep config must be a JSON object, got {_dumps(data)}")
        fields = dataclasses.fields(cls)
        names = {f.name for f in fields}
        unknown = set(data) - names
        if unknown:
            raise InvalidInput(f"unknown sweep config keys: {sorted(unknown)}")
        defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
        missing = sorted(names - set(data) - set(defaults))
        if missing:
            raise InvalidInput(f"sweep config is missing keys {missing}")
        values = {**defaults, **data}
        kinds = {"output": (str, "a string"), "variants": (list, "a list of names")}
        for key, value in values.items():
            # exact types of the given values: true is not 1, and 2.7 or "2" is not 2
            wanted, what = kinds.get(key, (int, "an integer"))
            if key in data and type(value) is not wanted:
                raise InvalidInput(f"sweep config {key} must be {what}, got {_dumps(value)}")
        values["variants"] = tuple(values["variants"])
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


def _sweep_plan(cfg: SweepConfig):
    """The sweep grid as its (n, lambda) blocks in grid order, each an
    iterator of its groups (spec, KR module at anchor 0, window of anchors)
    and a contiguous run of the output.  The weight is checked once per
    direction, by the ``_shared_spec`` that the direction's rows and lengths
    share, and each group's window is found when the walk reaches it."""
    for n in range(1, cfg.n_max + 1):
        for lam in _lambdas(n, cfg.lambda_sum_max):
            yield _block_groups(cfg, n, lam)


def _block_groups(cfg: SweepConfig, n: int, lam: tuple[int, ...]):
    for name in cfg.variants:
        variant = VARIANTS[name]
        node = 1 if variant.first else n
        spec = _shared_spec(n, lam, variant.direction)
        for k in range(1, cfg.k_max + 1):
            yield spec, KRSpec(n, node, 0, k), resonance_window(spec, node, k, cfg.r_window_pad)


def _plan_points(blocks):
    """The points (spec, kr) of the blocks' groups, in grid order."""
    for spec, kr, window in chain.from_iterable(blocks):
        for r in window:
            yield spec, kr._at(r)


def sweep_grid(cfg: SweepConfig):
    """Deterministic enumeration of (spec, kr) pairs for the sweep."""
    return _plan_points(_sweep_plan(cfg))


# The most points one sweep may visit, counted by ``sweep_size`` before the
# first is built.  The full n = 5 grid has 222,040.
SWEEP_POINT_BUDGET = 1_000_000


def _planned_blocks(cfg: SweepConfig, limit: int) -> tuple[int, list[list]]:
    """The number of points of ``sweep_grid(cfg)``, summed over the groups'
    windows without building a point, and the plan's blocks as lists of
    their groups.  Every group has at least one anchor, so the walk stops
    at the first group that takes the count past ``limit``: then the count
    is a lower bound, the last block is cut short, and at most ``limit +
    1`` groups were visited however large the grid."""
    count, blocks = 0, []
    for groups in _sweep_plan(cfg):
        blocks.append(block := [])
        for group in groups:
            block.append(group)
            count += len(group[2])
            if count > limit:
                return count, blocks
    return count, blocks


def sweep_size(cfg: SweepConfig, limit: int) -> int:
    """The count of ``_planned_blocks``: exact up to ``limit``, a lower bound past it."""
    return _planned_blocks(cfg, limit)[0]


def _sweep_point(point: tuple[MinAffSpec, KRSpec]) -> tuple[str, str]:
    """One sweep point: its summary count key and its JSON line, written by
    ``sweep_line``.  A theorem violation is recorded as ``violation``, any
    other exception as ``error`` (``"<Type>: <message>"``), one raised
    while the point's group record is built too, with the spec and KR
    texts encoded by ``json_text``; both count as violations, and the
    sweep goes on with the next point.
    """
    spec, kr = point
    try:
        return sweep_line(spec, kr)
    except InvariantViolation as exc:
        key, message = "violation", str(exc)
    except Exception as exc:
        key, message = "error", f"{type(exc).__name__}: {exc}"
    # a message is arbitrary text, escaped as json.dumps escapes it
    fields = {"kr": kr.json_text(), "spec": spec.json_text(), key: _json_str(message)}
    return "violations", _object_text(fields)


# The blocks each worker of a sweep on two or more workers may have
# submitted and not yet read.
CHUNKS_PER_WORKER = 2


def _sweep_block(block: list) -> list[tuple[str, str]]:
    return [_sweep_point(point) for point in _plan_points([block])]


def _pooled_results(pool, blocks, workers: int):
    """``_sweep_point`` of each point of ``blocks``, in order, computed on
    ``pool`` a whole block per task, with at most ``CHUNKS_PER_WORKER *
    workers`` blocks submitted and not yet read, so a sweep holds the lines
    of a few blocks however large its grid.  Closing the generator cancels
    the blocks not yet started.  It runs within ``_sigterm_held``, and a
    held SIGTERM is handled after each block is read, outside the pool's
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
            pending.append(pool.submit(_sweep_block, block))
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


@contextmanager
def _replaced_on_success(path: str):
    """Text file handle on a temporary file beside ``path``.

    The temporary file replaces ``path`` when the block ends normally and is
    removed when it raises, so ``path`` never holds partial output.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def cmd_sweep(args) -> int:
    """Classify every point of the config's grid, one JSON line per point.

    A grid of more than ``SWEEP_POINT_BUDGET`` points (``sweep_size``) is
    refused as invalid input before any point is built or any file is
    written.  Under the budget that count is exact, and the walk that
    counted it holds the plan's blocks, whose points are built one at a
    time, never listed: on one worker each goes to ``_sweep_point``, looked
    up here, and on two or more ``_pooled_results`` submits a few blocks
    at a time.
    """
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"config is not valid JSON: {exc}") from exc
    cfg = SweepConfig.from_json(data)
    size, blocks = _planned_blocks(cfg, SWEEP_POINT_BUDGET)
    if size > SWEEP_POINT_BUDGET:
        raise InvalidInput(
            f"the sweep grid has at least {size:,} points, over the budget of "
            f"{SWEEP_POINT_BUDGET:,} points per sweep; lower n_max, lambda_sum_max, "
            "k_max or r_window_pad"
        )
    workers = clamp_workers(cfg.parallelism, len(blocks))
    counts = {"irreducible": 0, "case_i": 0, "case_ii": 0, "violations": 0}
    try:
        with ExitStack() as stack:
            stack.enter_context(_sigterm_exits())
            fh = stack.enter_context(_replaced_on_success(cfg.output))
            if workers == 1:
                results = map(_sweep_point, _plan_points(blocks))
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
                results = stack.enter_context(closing(_pooled_results(pool, blocks, workers)))
            for outcome, line in results:
                fh.write(line + "\n")
                counts[outcome] += 1
    except OSError as exc:
        # the OS names the private temporary file; the user gave ``output``
        print(f"error: cannot write output {cfg.output!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID
    print(f"points: {size}")
    print(
        "irreducible: {irreducible}  case_i: {case_i}  case_ii: {case_ii}  "
        "violations: {violations}".format(**counts)
    )
    print(f"output: {cfg.output}")
    return EXIT_VIOLATION if counts["violations"] else EXIT_OK


def cmd_factorize(args) -> int:
    m = _parse_monomial(args.monomial)
    result = q_factorize(m)
    if args.json:
        print(result.json_text())
    else:
        print("strings: " + " ".join(f"({r},{k})" for r, k in result.strings))
    return EXIT_OK


def cmd_transform(args) -> int:
    if args.t is not None and args.kind != "tau":
        raise InvalidInput(f"--t shifts only --kind tau, not {args.kind}")
    m = _parse_monomial(args.monomial)
    out = transform(m, args.kind, args.t or 0)
    if args.json:
        print(out.json_text())
    else:
        print(str(out))
    return EXIT_OK


# the help text's description; the module docstring is for library readers
_DESCRIPTION = (
    "Compute q-characters of type-A minimal affinizations and extreme-node "
    "Kirillov-Reshetikhin modules, classify the tensor product of one of each, "
    "and verify the classification over a grid of such products. Exit codes: "
    "0 success, 1 usage error, 2 invalid input, 3 theorem violation, 4 internal "
    "error, 143 when SIGTERM stops a sweep."
)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qcharlab", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p, required: bool):
        p.add_argument("--n", type=_int_argument, required=True, help="rank of the diagram")
        p.add_argument(
            "--lambda", dest="lam", required=required, help="weight vector, e.g. 1,0,2"
        )
        p.add_argument(
            "--dir", dest="direction", choices=("inc", "dec"), help="direction of the --lambda spec (default inc)"
        )
        p.add_argument("--shift", type=_int_argument, help="global spectral shift of the --lambda spec (default 0)")
        p.add_argument("--kr", required=required, help="KR triple node,r,k")

    p_qchar = sub.add_parser("qchar", help="compute a q-character")
    add_spec_args(p_qchar, required=False)
    p_qchar.add_argument("--oracle", choices=("tableaux", "partitions"), default="tableaux")
    p_qchar.add_argument("--full", action="store_true", help="list every term")
    p_qchar.add_argument("--json", action="store_true")

    p_tensor = sub.add_parser("tensor", help="classify a tensor product")
    add_spec_args(p_tensor, required=True)
    p_tensor.add_argument("--json", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run a verification sweep from a JSON config")
    p_sweep.add_argument("--config", required=True, help="path to the sweep config JSON")

    p_fact = sub.add_parser("factorize", help="q-factorize a rank-1 dominant monomial")
    p_fact.add_argument("monomial", help='monomial JSON, e.g. {"n":1,"Y":[[1,0,1]]}')
    p_fact.add_argument("--json", action="store_true")

    p_tr = sub.add_parser("transform", help="apply a duality map to a monomial")
    p_tr.add_argument("monomial", help="monomial JSON")
    p_tr.add_argument("--kind", required=True, choices=_TRANSFORM_KINDS)
    p_tr.add_argument("--t", type=_int_argument, help="shift amount for tau (default 0)")
    p_tr.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    # no command reads a report, spectrum or recognition cached by an earlier one
    clear_caches()
    try:
        # looked up by name at each call, so a wrapper set on ``cmd_*`` applies
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe shows here when the output fit in the buffer
        return code
    except BrokenPipeError:
        # the reader stopped reading (say, ``| head``); what is still buffered
        # goes to the null device, so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvariantViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except Exception as exc:
        # a bug or an exhausted resource, not a wrong command line; SystemExit
        # (SIGTERM's 143) and KeyboardInterrupt are no Exception and pass through
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
