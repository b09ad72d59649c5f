"""Fast paths against their references on the golden, n <= 4 and n = 5 grids."""

import io
import json
import random
import shlex
from collections import Counter
from contextlib import redirect_stdout
from hashlib import sha256

import oracles
from qcharlab import KRSpec, LMonomial, MinAffSpec, classify_variant, cli, drinfeld_of_spec, le, lroot_decompose
from qcharlab import minaff, qchar, qchar_kr, semistandard_fillings, snake_shape, sweep, tensor, transform
from qcharlab.lweight import _peel_class
from qcharlab.tableaux import filling_pairs, longer_at_end, mirrored_terms


def test_every_sweep_line_is_the_one_anchor_report(golden_lines, grid4):
    """A single point searches only the affinization terms its KR module
    can cover.  Its report must be the golden sweep line's at each golden
    point, and the whole-group report at each n <= 4 point.  Both reports
    run every check at every anchor; only the sweep answers a quiet anchor
    from group data.  Every n <= 4 sweep line, which ``sweep.sweep_line``
    writes from its group's record (from its row's template at the quiet
    points), is the one-point report's line."""
    for line in golden_lines:
        point = json.loads(line)
        s, k = point["spec"], point["kr"]
        spec = MinAffSpec(s["n"], tuple(s["lambda"]), s["dir"], s["shift"])
        kr = KRSpec(k["n"], k["node"], k["r"], k["k"])
        report = classify_variant(spec, kr).json_text()
        assert line == f'{{"kr":{kr.json_text()},"report":{report},"spec":{spec.json_text()}}}\n', line
    assert len(golden_lines) == 5820
    quiet = 0
    for spec, kr in grid4.points:
        one = classify_variant(spec, kr)
        assert one == classify_variant(spec, kr, whole_group=True), (spec, kr)
        line = f'{{"kr":{kr.json_text()},"report":{one.json_text()},"spec":{spec.json_text()}}}'
        assert sweep._sweep_point((spec, kr)) == (one.tag.kind, line), (spec, kr)
        quiet += kr.r not in sweep.sweep_group(spec, kr).loud
    assert len(grid4.points) == 38368
    assert quiet == 25654


def test_cold_qchars_are_frenkel_mukhin(grid4):
    """The benchmark's qchar_cold items: the 242 affinizations of the n <= 4
    grid (|lambda| <= 4, both directions) and 16 last-node KR modules
    (n, k <= 4), each equal to its strict Frenkel-Mukhin character."""
    items = [(drinfeld_of_spec(spec), qchar(spec)) for spec in dict.fromkeys(g[0] for g in grid4.groups)]
    items += [(kr.drinfeld(), qchar_kr(kr)) for kr in (KRSpec(n, n, 0, k) for n in range(1, 5) for k in range(1, 5))]
    assert len(items) == 258
    assert not [str(m) for m, qc in items if oracles.fm_reference(m) != qc.terms()]


def test_tableau_search_at_n5(shapes5):
    """Tier-1 compares the search with the old one up to n = 4; this takes
    every n = 5 affinization with |lambda| <= 3 and KR(5, k <= 3).  qchar,
    which keeps the search's exponent tuples, has the reference search's
    monomials as its terms, each once (in the search's order only where
    qchar does not search from the other end)."""
    specs = [(spec, shape) for spec, (_, shape) in shapes5.items() if spec.total <= 3]
    krs = [KRSpec(5, 5, 0, k).as_minaff() for k in (1, 2, 3)]
    specs += [(spec, snake_shape(drinfeld_of_spec(spec))) for spec in krs]
    terms = 0
    for spec, shape in specs:
        fast = [(list(c), m) for c, m in semistandard_fillings(5, shape)]
        slow = [(list(c), m) for c, m in oracles.semistandard_fillings_reference(5, shape)]
        assert fast == slow, spec
        monos = [m for _, m in slow]
        assert len(qchar(spec)) == len(monos), spec
        assert qchar(spec).terms() == dict.fromkeys(monos, 1), spec
        if not longer_at_end(shape):
            assert list(qchar(spec).terms()) == monos, spec
        terms += len(fast)
    assert (len(specs), terms) == (113, 51561)


def test_longer_end_search_at_n5(shapes5):
    """Tier-1 checks the mirrored search up to n = 4.  At n = 5 the mirror
    yields the term set of filling_pairs, each term once, and a whole search
    (``_searched_terms``, with its checks) lists the mirrored terms exactly
    where the last column is the longer one."""
    mirrored = terms = 0
    for spec, (omega, shape) in shapes5.items():
        ordered = [t for _, t in filling_pairs(5, shape)]
        found = mirrored_terms(5, shape)
        assert len(found) == len(set(found)) == len(ordered), spec
        assert set(found) == set(ordered), spec
        assert list(minaff._searched_terms(omega)) == (found if longer_at_end(shape) else ordered), spec
        mirrored += longer_at_end(shape)
        terms += len(found)
    assert (len(shapes5), mirrored, terms) == (250, 105, 558556)


def test_loop_root_peel_at_n4(grid4):
    """Tier-1 compares the peel with the old decomposition on consecutive
    golden D pairs; this takes every ordered pair of D at every anchor of
    every n <= 4 group, each also moved by tau_t, as le keeps one answer
    per shift class."""
    sweep.clear_caches()
    pairs, outcomes = 0, set()
    for spec, node, k in grid4.groups:
        for terms in tensor.spectra_by_anchor(spec, node, k).values():
            for a, _ in terms:
                for b, _ in terms:
                    ref = oracles.lroot_decompose_reference(b / a)
                    assert lroot_decompose(b / a) == ref, (a, b)
                    assert le(a, b) == (ref is not None), (a, b)
                    for t in (-5, 7):
                        assert le(transform(a, "tau", t), transform(b, "tau", t)) == (ref is not None), (a, b, t)
                    outcomes.add(ref is not None)
                    pairs += 1
    assert outcomes == {True, False}
    assert pairs == 116800
    assert _peel_class.cache_info().misses == 2098


def test_join_at_n4(grid4):
    """Tier-1 compares the one-pass join with the old join at every golden
    group and every 97th n <= 4 group; this takes every n <= 4 group,
    products and multiplicities included."""
    products = 0
    for spec, node, k in grid4.groups:
        w0 = qchar_kr(KRSpec(spec.n, node, 0, k))
        joined = minaff.anchor_join(qchar(spec), w0)
        assert joined == oracles.sorted_join_reference(oracles.anchor_join_reference(qchar(spec), w0)), (spec, node, k)
        products += sum(len(found) for found in joined.values())
    assert (len(grid4.groups), products) == (1904, 34864)


def test_closed_forms_and_transports_at_n4(grid4):
    """Tier-1 compares them at every golden loud point; this takes every
    n <= 4 loud point: the transported KR module, moved by r from its
    group's anchor 0, against the point's own recognition, and the
    closed-form D, merged as exponent tuples from anchor-0 gap members,
    against LMonomial products of the members at the point's own anchor."""
    rows, resonant = Counter(), 0
    for spec, kr in grid4.loud:
        variant = tensor._variant_of(spec.direction, kr.node != spec.n)
        if variant.inverse is not None:
            problem = tensor._transported(variant, spec, kr)
            assert problem == oracles.transported_reference(variant, spec, kr), (spec, kr)
            spec, _, kr = problem
        res = tensor._resonance(tensor.VARIANTS["normal"], spec, kr)
        expected = oracles.expected_dominants_reference(spec, kr, res)
        assert tensor.expected_dominants(spec, kr, res) == expected, (spec, kr)
        rows[variant.name] += 1
        resonant += res is not None
    assert sum(rows.values()) == 38368 - 25654
    assert rows == {"normal": 2806, "a": 2646, "b": 3539, "c": 3723}
    assert resonant == 10904


def test_loop_root_peel_on_random_monomials():
    """The peel has no factor budget: it stops by the top row + n + 1
    (Coxeter periodicity, see ``lweight._peel``).  Seeded random monomials
    check that it still gives the old weight-and-rescan decomposition's
    answers."""
    rng = random.Random(26)
    cone = 0
    for _ in range(200_000):
        n = rng.randint(1, 6)
        pairs = [((rng.randint(1, n), rng.randint(-4, 4)), rng.randint(-3, 4)) for _ in range(rng.randint(0, 8))]
        m = LMonomial(n, pairs)
        ref = oracles.lroot_decompose_reference(m)
        assert lroot_decompose(m) == ref, m
        assert le(LMonomial.identity(n), m) == (ref is not None), m
        cone += ref is not None
    assert cone == 25679


def test_many_commands_in_one_process():
    """``cli.main`` called again and again in one process, as the benchmark
    and notebooks call it: the parser is built once, and the output has the
    sha that CI pins for the installed command's output."""
    outputs = {
        "c1f7556c3f5f36f7b69851a21967ea7acfb2b2a7c2d3b4cad22e7c30b972e0b7": [
            "qchar --n 3 --lambda 1,0,1 --dir dec --shift 2 --json",
            "qchar --n 2 --kr 2,0,2 --oracle partitions --json",
            "qchar --n 2 --kr 1,-3,2 --json",
            "qchar --n 2 --lambda 1,1",
            """transform '{"n":2,"Y":[[1,0,1],[2,3,-1]]}' --kind kappa --json""",
            """factorize '{"n":1,"Y":[[1,0,1],[1,4,1]]}' --json""",
        ],
        "54d16ddc903e64660e732d28076940ff492de3d46190b4b9a4c9f54cae5146c0": [
            "tensor --n 3 --lambda 0,1,1 --kr 3,-2,1",
            "tensor --n 3 --lambda 0,1,1 --dir dec --kr 1,4,2 --json",
            "tensor --n 3 --lambda 0,1,2 --kr 1,3,2",
            "tensor --n 3 --lambda 0,1,1 --dir dec --kr 3,-2,2 --json",
        ],
    }
    for sha, commands in outputs.items():
        with redirect_stdout(io.StringIO()) as out:
            for command in commands:
                assert cli.main(shlex.split(command)) == 0, command
        assert sha256(out.getvalue().encode("utf-8")).hexdigest() == sha
    assert cli._build_parser.cache_info().misses == 1
