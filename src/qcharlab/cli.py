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
Every call first empties the caches that belong to one command
(``sweep.clear_caches``, whose module notes tell which persist), and each
command is looked up by name when it is called, so a wrapper set on
``cli.cmd_*`` applies.  The sweep itself is ``qcharlab.sweep``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .errors import InvalidInput, InvariantViolation
from .lweight import _TRANSFORM_KINDS, LMonomial, transform
from .minaff import KRSpec, MinAffSpec, drinfeld_of_spec, kr_qchar_by_partitions, qchar, qchar_kr
from .sl2fact import q_factorize
from .sweep import SweepConfig, _sweep_point, clear_caches, run
from .tensor import TensorReport, classify_variant

# not used here, but read, patched or wrapped in this module by the
# benchmark (``perfbench/workloads.py``, ``perfbench/spans.py``), as are
# ``SweepConfig``, ``_sweep_point`` and ``classify_variant`` above
from .sweep import sweep_grid  # noqa: F401
from .tensor import resonance_window  # noqa: F401

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


def _object_text(fields: dict[str, str]) -> str:
    """A JSON object of encoded values with its keys in sorted order; the
    keys are plain names that need no escaping."""
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


def cmd_sweep(args) -> int:
    """Classify every point of the config's grid, one JSON line per point
    (``sweep.run``).  ``_sweep_point`` is looked up here when the sweep
    starts, so a wrapper set on ``cli._sweep_point`` sees every point of a
    sweep on one worker."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"config is not valid JSON: {exc}") from exc
    cfg = SweepConfig.from_json(data)
    size, counts = run(cfg, _sweep_point)
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
