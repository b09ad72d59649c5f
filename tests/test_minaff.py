import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_weights,
    characters,
    dominant_monomials,
    fm_reference,
    kr_json_reference,
    product_qchar_reference,
    qchar_json_reference,
    recognize_kr_reference,
    recognize_minaff_reference,
    spec_json_reference,
    weyl_dim_oracle,
)
from qcharlab import cli, minaff
from qcharlab import (
    InvalidInput,
    InvariantViolation,
    KRSpec,
    LMonomial,
    MinAffSpec,
    QChar,
    drinfeld_of_spec,
    held_qchar,
    highest_tableau,
    is_dominant,
    is_semistandard,
    kr_qchar_by_partitions,
    monomial_of_box,
    monomial_of_tableau,
    product_qchar,
    qchar,
    qchar_kr,
    recognize_kr,
    recognize_minaff,
    restrict,
    right_negativity,
    transform,
    weyl_dim,
    y_string,
)


def Y(n, i, r, e=1):
    return LMonomial.y(n, i, r, e)


def small_specs(n_max=3, total_max=3):
    for n in range(1, n_max + 1):
        for lam in all_weights(n, total_max):
            for direction in ("inc", "dec"):
                yield MinAffSpec(n, lam, direction)


class TestSpecs:
    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: KRSpec(n, 1.5, 0, 1),
            lambda n: MinAffSpec(n, None),
            lambda n: weyl_dim(n, None),
        ],
        ids=["KRSpec", "MinAffSpec", "weyl_dim"],
    )
    def test_the_rank_is_checked_first(self, build, n):
        # one rule (errors.require_rank), ahead of the fields that depend on the rank
        with pytest.raises(InvalidInput, match="rank must be positive"):
            build(n)

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidInput):
            MinAffSpec(2, (0, 0))

    def test_interior_kr_node_rejected(self):
        with pytest.raises(InvalidInput):
            KRSpec(3, 2, 0, 1)

    def test_kr_length_positive(self):
        with pytest.raises(InvalidInput):
            KRSpec(2, 2, 0, 0)

    @pytest.mark.parametrize(
        "spec", [MinAffSpec(3, (1, 0, 12), "dec", -4), MinAffSpec(1, (2,)), KRSpec(3, 1, -5, 2), KRSpec(2, 2, 13, 1)]
    )
    def test_spec_json_text_is_the_sorted_compact_dump(self, spec):
        reference = kr_json_reference(spec) if isinstance(spec, KRSpec) else spec_json_reference(spec)
        assert spec.json_text() == cli._dumps(reference)

    @pytest.mark.parametrize(
        "cls, args",
        [
            (MinAffSpec, (2, (1.5, 1))),
            (MinAffSpec, (2, ("1", 1))),
            (MinAffSpec, (2, (True, 1))),
            (MinAffSpec, (2.0, (1, 1))),
            (MinAffSpec, (True, (1,))),
            (MinAffSpec, (2, (1, 1), "inc", 0.5)),
            (MinAffSpec, (2, (1, 1), "inc", False)),
            (MinAffSpec, (2, "11")),
            (MinAffSpec, (2, range(1, 3))),
            (KRSpec, (2, 2, 0.5, 1)),
            (KRSpec, (2, 2, "0", 1)),
            (KRSpec, (2, 2, 0, 1.0)),
            (KRSpec, (2, True, 0, 1)),
            (KRSpec, (2.0, 2, 0, 1)),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
    )
    def test_non_integers_rejected(self, cls, args):
        with pytest.raises(InvalidInput, match="must be"):
            cls(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((True, 3, -2, 2), "rank must be an integer, got True"),
            ((3.0, 3, -2, 2), "rank must be an integer, got 3.0"),
            ((3, True, -2, 2), "KR node must be an integer, got True"),
            ((3, 2.0, -2, 2), "KR node must be an integer, got 2.0"),
            ((2, True, 0, 1), "KR node must be an integer, got True"),
            ((3, 3, True, 2), "KR anchor must be an integer, got True"),
            ((3, 3, 2.0, 2), "KR anchor must be an integer, got 2.0"),
            ((3, 3, -2, True), "string length must be an integer, got True"),
            ((3, 3, -2, 2.0), "string length must be an integer, got 2.0"),
            ((0, 1, 0, 1), "rank must be positive, got 0"),
            ((3, 3, 0, 0), "string length must be positive, got 0"),
            ((3, 2, 0, 1), "node must be extreme (1 or 3), got 2"),
            ((1, 1, 0, 1), None),
        ],
        ids=repr,
    )
    def test_kr_spec_messages(self, args, message):
        # valid fields pass one test in __post_init__; any other field runs
        # the per-field checks, whose messages are pinned here
        if message is None:
            assert KRSpec(*args).json_text() == '{"k":1,"n":1,"node":1,"r":0}'
            return
        with pytest.raises(InvalidInput) as info:
            KRSpec(*args)
        assert str(info.value) == message

    def test_list_weight_stored_as_tuple(self):
        spec = MinAffSpec(2, [1, 1])
        assert spec.lam == (1, 1) and spec == MinAffSpec(2, (1, 1))
        assert hash(spec) == hash(MinAffSpec(2, (1, 1)))

    def test_kr_as_minaff_drinfeld(self):
        for node, r, k in ((1, -3, 2), (2, 4, 3)):
            kr = KRSpec(2, node, r, k)
            assert drinfeld_of_spec(kr.as_minaff()) == kr.drinfeld()


SPECS = [MinAffSpec(3, (1, 0, 2), "dec", -4), MinAffSpec(1, (2,)), KRSpec(3, 1, -5, 2), KRSpec(2, 2, 13, 1)]

# pickles the specs under one hash seed; the test unpickles them under another
PICKLE_SPECS = """
import pickle, sys
from qcharlab import KRSpec, MinAffSpec
specs = [MinAffSpec(3, (1, 0, 2), "dec", -4), MinAffSpec(1, (2,)), KRSpec(3, 1, -5, 2), KRSpec(2, 2, 13, 1)]
sys.stdout.write(pickle.dumps(specs).hex())
"""
UNPICKLE_SPECS = """
import pickle, sys
from qcharlab import KRSpec, MinAffSpec
specs = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = [MinAffSpec(3, (1, 0, 2), "dec", -4), MinAffSpec(1, (2,)), KRSpec(3, 1, -5, 2), KRSpec(2, 2, 13, 1)]
assert specs == fresh and [hash(s) for s in specs] == [hash(s) for s in fresh]
assert dict.fromkeys(fresh, 1) == dict.fromkeys(specs, 1)
"""


class TestSpecIdentity:
    """``MinAffSpec`` hashes its fields once, at construction; a copy or a
    pickle is rebuilt through the constructor, so it hashes as a fresh
    equal spec in any process.  Nothing else about the dataclasses shows."""

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    @pytest.mark.parametrize(
        "roundtrip", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))], ids=["copy", "deepcopy", "pickle"]
    )
    def test_roundtrips_hash_as_a_fresh_spec(self, spec, roundtrip):
        fresh = type(spec)(*(getattr(spec, f.name) for f in dataclasses.fields(spec)))
        again = roundtrip(spec)
        assert again == fresh and hash(again) == hash(fresh) == hash(spec)
        assert {fresh: 1}[again] == 1

    def test_unpickled_under_another_hash_seed(self):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(minaff.__file__))}
        dumped = subprocess.run(
            [sys.executable, "-c", PICKLE_SPECS], capture_output=True, text=True, check=True,
            env={**env, "PYTHONHASHSEED": "1"}, timeout=60,
        ).stdout
        loaded = subprocess.run(
            [sys.executable, "-c", UNPICKLE_SPECS], input=dumped, capture_output=True, text=True,
            env={**env, "PYTHONHASHSEED": "2"}, timeout=60,
        )
        assert loaded.returncode == 0, loaded.stderr

    def test_dataclass_surface_is_unchanged(self):
        spec, kr = MinAffSpec(2, (1, 1), "dec", 3), KRSpec(2, 2, 0, 1)
        assert [f.name for f in dataclasses.fields(spec)] == ["n", "lam", "direction", "shift"]
        assert [f.name for f in dataclasses.fields(kr)] == ["n", "node", "r", "k"]
        assert repr(spec) == "MinAffSpec(n=2, lam=(1, 1), direction='dec', shift=3)"
        assert repr(kr) == "KRSpec(n=2, node=2, r=0, k=1)"
        assert hash(spec) == hash((2, (1, 1), "dec", 3))
        moved = replace(spec, shift=1)
        assert moved == MinAffSpec(2, (1, 1), "dec", 1) and hash(moved) == hash(MinAffSpec(2, (1, 1), "dec", 1))
        assert replace(kr, r=4) == KRSpec(2, 2, 4, 1)
        for other in ("x", None, (2, (1, 1), "dec", 3), kr):
            assert spec != other and not spec == other
        assert kr != (2, 2, 0, 1) and kr != spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.shift = 2

    def test_kr_module_moved_from_a_checked_one(self):
        kr = KRSpec(3, 1, 0, 2)
        for r in (-5, 0, 7):
            moved = kr._at(r)
            assert moved == KRSpec(3, 1, r, 2) and repr(moved) == repr(KRSpec(3, 1, r, 2))
            assert hash(moved) == hash(KRSpec(3, 1, r, 2)) and moved.drinfeld() == y_string(3, 1, r, 2)
        assert kr.r == 0
        for r in (True, 1.0, "1", None):
            with pytest.raises(InvalidInput, match="KR anchor must be an integer"):
                kr._at(r)


class TestDrinfeld:
    def test_increasing_two_nodes(self):
        assert drinfeld_of_spec(MinAffSpec(2, (1, 1), "inc")) == Y(2, 1, -3) * Y(2, 2, 0)

    def test_decreasing_two_nodes(self):
        assert drinfeld_of_spec(MinAffSpec(2, (1, 1), "dec")) == Y(2, 1, 3) * Y(2, 2, 0)

    def test_single_node(self):
        assert drinfeld_of_spec(MinAffSpec(2, (1, 0), "inc")) == Y(2, 1, 0)

    def test_shift_moves_all_anchors(self):
        base = drinfeld_of_spec(MinAffSpec(2, (1, 1), "inc"))
        shifted = drinfeld_of_spec(MinAffSpec(2, (1, 1), "inc", 7))
        assert shifted == transform(base, "tau", 7)


class TestHighestTableau:
    def test_kr_block_shape(self):
        t = highest_tableau(MinAffSpec(2, (0, 2), "inc"))
        assert t.shape.columns == ((2, 0), (2, -2))
        assert monomial_of_tableau(t) == y_string(2, 2, -1, 2)

    def test_rank_one(self):
        t = highest_tableau(MinAffSpec(1, (1,), "inc"))
        assert t.shape.columns == ((1, 0),) and t.cols == ((1,),)

    def test_monomial_roundtrip_sweep(self):
        for spec in small_specs():
            t = highest_tableau(spec)
            assert monomial_of_tableau(t) == drinfeld_of_spec(spec)
            assert is_semistandard(t)

    def test_stairs_step_by_two(self):
        # increasing: bottom supports descend by 2; decreasing: top supports do
        for spec in small_specs():
            shape = highest_tableau(spec).shape
            if spec.direction == "inc":
                edge = [s for _, s in shape]
            else:
                edge = [s + 2 * (k - 1) for k, s in shape]
            assert all(a - b == 2 for a, b in zip(edge, edge[1:]))


def any_character(n: int):
    """A random character of rank ``n``: built by ``QChar`` from monomials
    (``characters``), or by ``qchar`` from the search's exponent tuples."""
    lam = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) <= 3)
    spec = st.builds(MinAffSpec, st.just(n), lam.map(tuple), st.sampled_from(("inc", "dec")), st.integers(-3, 3))
    return st.one_of(characters(n), spec.map(qchar))


class TestTermStorage:
    """A character holds exponent tuples however it was built, and rebuilding
    it from its monomials changes nothing a caller can read."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[any_character(n)] * 2, st.booleans(), st.booleans())))
    def test_rebuilt_characters_agree(self, data):
        a, b, rebuild_a, rebuild_b = data
        for qc in (a, b):
            copy = QChar(qc.n, qc.terms())
            assert qc == copy and copy == qc
            assert len(copy) == len(qc) and copy.dimension == qc.dimension
            assert list(copy.terms().items()) == list(qc.terms().items())
            assert copy.sorted_terms() == qc.sorted_terms()
            assert copy.dominant_terms() == qc.dominant_terms()
            assert copy.json_text() == qc.json_text()
        x = QChar(a.n, a.terms()) if rebuild_a else a
        y = QChar(b.n, b.terms()) if rebuild_b else b
        assert product_qchar(x, y).dominant_terms() == product_qchar_reference(x, y).dominant_terms()


class TestHeldQChar:
    """``held_qchar`` runs the search on its first full read and then
    answers as ``qchar`` does; ``qchar`` is that form searched at once."""

    SPECS = [MinAffSpec(n, lam, d, 2) for n in (1, 2, 3) for lam in all_weights(n, 3) for d in ("inc", "dec")]

    @pytest.mark.parametrize(
        "read",
        [len, lambda qc: qc.dimension, lambda qc: qc.terms(), lambda qc: qc.dominant_terms(),
         lambda qc: qc.sorted_terms(), lambda qc: qc._join_index().exps],
        ids=["len", "dimension", "terms", "dominant_terms", "sorted_terms", "join_index"],
    )
    def test_each_first_read_equals_qchar(self, read):
        for spec in self.SPECS:
            held = held_qchar(spec)
            assert held._terms is None
            assert read(held) == read(qchar(spec)), spec
            assert held._terms is not None

    def test_equal_both_ways(self):
        for spec in self.SPECS:
            assert held_qchar(spec) == qchar(spec) and qchar(spec) == held_qchar(spec)
            other = held_qchar(replace(spec, shift=spec.shift + 2))
            assert held_qchar(spec) != other and other != qchar(spec)

    def test_qchar_is_searched_at_once(self):
        spec = MinAffSpec(2, (1, 1), "dec", 1)
        assert qchar.__wrapped__(spec)._terms is not None


class TestQChar:
    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    def test_rank_and_multiplicities_must_be_ints(self, value):
        with pytest.raises(InvalidInput, match="multiplicity must be an integer"):
            QChar(1, {Y(1, 1, 0): value})
        with pytest.raises(InvalidInput, match="rank must be an integer"):
            QChar(value, {})

    @pytest.mark.parametrize("terms", [[1], None, (), "ab"], ids=repr)
    def test_terms_must_be_a_dict(self, terms):
        with pytest.raises(InvalidInput, match="terms must be a dict"):
            QChar(2, terms)

    @pytest.mark.parametrize("key", [(1, 2), "Y[1,0]", (((1, 0), 1),)], ids=repr)
    def test_keys_must_be_monomials(self, key):
        with pytest.raises(InvalidInput, match="a term must be an LMonomial"):
            QChar(2, {key: 1})

    @pytest.mark.parametrize("n", [0, -3])
    def test_rank_must_be_positive(self, n):
        with pytest.raises(InvalidInput, match="rank must be positive"):
            QChar(n, {})

    def test_fundamental_matches_box_sum(self):
        qc = qchar(MinAffSpec(2, (1, 0), "inc"))
        expected = {Y(2, 1, 0), Y(2, 1, 2, -1) * Y(2, 2, 1), Y(2, 2, 3, -1)}
        assert set(qc.terms()) == expected
        assert all(c == 1 for c in qc.terms().values())

    def test_adjoint_has_eight_terms_one_dominant(self):
        qc = qchar(MinAffSpec(2, (1, 1), "inc"))
        assert qc.dimension == 8
        assert len(qc.dominant_terms()) == 1

    def test_rank_one_string_of_length_two(self):
        qc = qchar(MinAffSpec(1, (2,), "inc"))
        assert qc.dimension == 3

    def test_shift_equivariance(self):
        for t in (-3, 2):
            base = qchar(MinAffSpec(2, (1, 1), "dec", 0))
            shifted = qchar(MinAffSpec(2, (1, 1), "dec", t))
            assert {transform(m, "tau", t) for m in base.terms()} == set(shifted.terms())

    def test_dimension_law_small(self):
        for spec in small_specs():
            dim = qchar(spec).dimension
            assert dim == weyl_dim(spec.n, spec.lam) == weyl_dim_oracle(spec.n, spec.lam)

    @pytest.mark.parametrize(
        "n, lam",
        [(2, (1,)), (1, (1, 1)), (2, (-1, 0)), (2, (0.5, 0)), (2, (True, 0)), (2.0, (1, 0)), (0, ()), (2, 3)],
        ids=repr,
    )
    def test_weyl_dim_checks_the_weight(self, n, lam):
        with pytest.raises(InvalidInput):
            weyl_dim(n, lam)

    def test_weyl_dim_of_the_zero_weight(self):
        assert weyl_dim(3, (0, 0, 0)) == 1

    @pytest.mark.parametrize(
        "n, lam, message",
        [
            (2, (True, 0), "weight entry must be an integer, got True"),
            (2, (1, -1), "weight entries must be nonnegative"),
            (2, (1, 0, 0), "weight vector length must equal the rank"),
            (2, [True, False], "weight entry must be an integer, got True"),
        ],
        ids=repr,
    )
    def test_weyl_dim_checks_ahead_of_its_cache(self, n, lam, message):
        # the weight's plain-int twin is cached first; the invalid one still
        # fails the check with its message and never reads the cache
        twin = tuple(abs(int(v)) for v in lam)
        assert weyl_dim(len(twin), twin) == weyl_dim_oracle(len(twin), twin)
        before = minaff._weyl_dim.cache_info()
        with pytest.raises(InvalidInput, match=re.escape(message)):
            weyl_dim(n, lam)
        assert minaff._weyl_dim.cache_info() == before

    def test_weyl_dim_equals_its_oracle(self):
        weights = [(n, lam) for n in range(1, 5) for lam in ((0,) * n, *all_weights(n, 4))]
        assert len(weights) == 125
        for n, lam in weights * 2:  # the second pass reads the cache
            assert weyl_dim(n, lam) == weyl_dim(n, list(lam)) == weyl_dim_oracle(n, lam), (n, lam)

    def test_memoized(self):
        assert qchar(MinAffSpec(2, (1, 1), "inc")) is qchar(MinAffSpec(2, (1, 1), "inc"))

    def test_thinness_error_names_the_repeated_term(self, monkeypatch):
        spec = MinAffSpec(2, (1, 1), "inc", 3)
        fillings = minaff.filling_pairs
        found = [t for _, t in fillings(spec.n, highest_tableau(spec).shape)]
        # the fourth term comes again after the sixth; the first repeat is the fourth
        order = [0, 1, 2, 3, 4, 5, 3, 6, 1, 7]

        def repeating(n, shape, bound=None):
            return (([], found[i]) for i in order)

        monkeypatch.setattr(minaff, "filling_pairs", repeating)
        qchar.cache_clear()
        try:
            # the duplicate is named as a monomial, Y[...], not as its tuple
            message = f"thinness violated: duplicate term {LMonomial(spec.n, found[3])}"
            with pytest.raises(InvariantViolation, match=re.escape(message) + "$"):
                qchar(spec)
        finally:
            qchar.cache_clear()

    @pytest.mark.parametrize("fault", ["thinness violated", "expected a unique dominant term"])
    def test_a_bounded_search_runs_the_same_checks(self, fault, monkeypatch):
        # the held factor of a product is searched under its partner's bound
        spec, kr = MinAffSpec(2, (1, 1), "inc", 3), KRSpec(2, 2, 5, 1)
        partner = qchar_kr(kr)
        if fault == "thinness violated":
            fillings = minaff.filling_pairs
            monkeypatch.setattr(
                minaff, "filling_pairs",
                lambda n, shape, bound=None: [f for f in fillings(n, shape, bound) for _ in (0, 1)],
            )
        else:
            monkeypatch.setattr(minaff, "dominant_exps", lambda exps: True)
        with pytest.raises(InvariantViolation, match=fault):
            product_qchar(held_qchar(spec), partner).dominant_terms()

    @pytest.mark.parametrize("fault", ["thinness violated", "expected a unique dominant term"])
    @pytest.mark.parametrize("read", ["qchar", "held"])
    def test_a_mirrored_search_runs_the_same_checks(self, fault, read, monkeypatch):
        # a whole dec character whose last column is the longer one is
        # searched from that end: a repeated term, or a second dominant term,
        # pushed through that search must still be caught
        spec = MinAffSpec(2, (1, 1), "dec", 3)
        shape = highest_tableau(spec).shape
        assert shape.columns[-1][0] > shape.columns[0][0]
        mirrored = minaff.mirrored_terms
        if fault == "thinness violated":
            def faulty(n, shape):
                found = mirrored(n, shape)
                return [*found, found[len(found) // 2]]
        else:
            def faulty(n, shape):
                return [*mirrored(n, shape), Y(n, 1, 99).items()]
        monkeypatch.setattr(minaff, "mirrored_terms", faulty)
        qchar.cache_clear()
        try:
            with pytest.raises(InvariantViolation, match=fault):
                qchar(spec) if read == "qchar" else len(held_qchar(spec))
        finally:
            qchar.cache_clear()

    @pytest.mark.parametrize("other", [5, None, "x", [1]], ids=repr)
    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_a_product_factor_must_be_a_character(self, other, first):
        qc = qchar(MinAffSpec(2, (1, 1), "inc"))
        factors = (other, qc) if first else (qc, other)
        for build in (product_qchar, QChar.product):
            with pytest.raises(InvalidInput, match="must be a QChar"):
                build(*factors)

    @pytest.mark.parametrize("anchor", [1.0, "x", True, [0]], ids=repr)
    def test_the_join_anchor_must_be_an_integer(self, anchor):
        walked, indexed = qchar(MinAffSpec(2, (1, 1), "inc")), qchar_kr(KRSpec(2, 2, 0, 1))
        with pytest.raises(InvalidInput, match="join anchor must be an integer"):
            minaff.anchor_join(walked, indexed, anchor)
        assert list(minaff.anchor_join(walked, indexed, 1)) == [1]

    @pytest.mark.parametrize("other", [5, None, "x", [1]], ids=repr)
    @pytest.mark.parametrize("first", [True, False], ids=["walked", "indexed"])
    def test_joined_characters_must_be_characters(self, other, first):
        qc = qchar(MinAffSpec(2, (1, 1), "inc"))
        factors = (other, qc) if first else (qc, other)
        for anchor in (None, 0):
            with pytest.raises(InvalidInput, match="must be a QChar"):
                minaff.anchor_join(*factors, anchor)

    @given(st.integers(1, 3).flatmap(characters))
    def test_json_text_is_the_sorted_compact_dump(self, qc):
        assert qc.json_text() == cli._dumps(qchar_json_reference(qc))

    def test_caches_are_bounded(self):
        # the n_max = 4 four-variant sweep requests 1,196 distinct specs
        for fn in (qchar, drinfeld_of_spec):
            assert fn.cache_info().maxsize == minaff.CACHE_SIZE >= 1196
        spec = MinAffSpec(2, (1, 1), "inc")
        qchar(spec)
        qchar.cache_clear()
        assert qchar.cache_info().currsize == 0
        assert qchar(spec) == qchar(spec)


def _pair_counts(qc):
    """Distinct ``(key, e)`` objects and distinct values among the terms of ``qc``."""
    pairs = [kv for m in qc.terms() for kv in m.items()]
    return len({id(kv) for kv in pairs}), len(set(pairs))


class TestSharedPairs:
    """Each distinct ``((i, r), e)`` pair of a character is one object."""

    def test_affinization_terms_share_their_pairs(self):
        for spec in small_specs():
            objects, values = _pair_counts(qchar(spec))
            assert objects == values, spec

    def test_last_node_kr_terms_share_their_pairs(self):
        for n in range(1, 4):
            for k in range(1, 4):
                objects, values = _pair_counts(qchar_kr(KRSpec(n, n, 0, k)))
                assert objects == values, (n, k)

    def test_join_needs_are_the_terms_own_negative_pairs(self):
        for spec in small_specs():
            index = minaff._JoinIndex(qchar(spec)._all_terms())
            for t, need in zip(index.exps, index.needs):
                negative = [kv for kv in t if kv[1] < 0]
                assert len(need) == len(negative)
                assert all(a is b for a, b in zip(need, negative))


class TestKRPartitionOracle:
    def test_rank_one_length_two(self):
        qc = kr_qchar_by_partitions(1, 0, 2)
        expected = {
            Y(1, 1, 0) * Y(1, 1, 2),
            Y(1, 1, 0) * Y(1, 1, 4, -1),
            Y(1, 1, 2, -1) * Y(1, 1, 4, -1),
        }
        assert set(qc.terms()) == expected

    def test_term_count(self):
        assert len(kr_qchar_by_partitions(2, 0, 2)) == 6

    def test_highest_term_is_the_string(self):
        for n, r, k in ((1, 3, 2), (2, -1, 3), (3, 0, 2)):
            qc = kr_qchar_by_partitions(n, r, k)
            assert qc.dominant_terms() == [(y_string(n, n, r, k), 1)]

    @pytest.mark.parametrize(
        "args",
        [(2, 0.5, 1), (2, True, 1), (2, 0, 2.0), (2, 0, True), (2.0, 0, 1), (2, 0, 0), (0, 0, 1)],
        ids=repr,
    )
    def test_arguments_checked_as_by_krspec(self, args):
        with pytest.raises(InvalidInput) as excinfo:
            kr_qchar_by_partitions(*args)
        with pytest.raises(InvalidInput) as expected:
            KRSpec(args[0], args[0], *args[1:])
        assert str(excinfo.value) == str(expected.value)

    def test_long_string_walks_without_recursion(self):
        # one string step per part, past the interpreter's default recursion limit of 1,000
        assert kr_qchar_by_partitions(1, 0, 1010) == qchar_kr(KRSpec(1, 1, 0, 1010))

    def test_oracle_equivalence_small(self):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                for r in (-3, 0, 2):
                    assert qchar_kr(KRSpec(n, n, r, k)) == kr_qchar_by_partitions(n, r, k)

    def test_node_one_kr_against_kappa_partner(self):
        """q-character of a first-node KR module, checked against the
        partition oracle of its kappa partner pulled back termwise."""
        for n in (2, 3):
            for r, k in ((0, 1), (-2, 2), (3, 2)):
                direct = qchar_kr(KRSpec(n, 1, r, k))
                partner = kr_qchar_by_partitions(n, -r - (n + 1) - 2 * (k - 1), k)
                pulled = {transform(m, "minus").inverse() for m in partner.terms()}
                assert set(direct.terms()) == pulled


class TestFrenkelMukhinOracle:
    def test_minimal_affinizations(self):
        for spec in small_specs():
            assert fm_reference(drinfeld_of_spec(spec)) == qchar(spec).terms()

    def test_extreme_node_kr_modules(self):
        for n in (1, 2, 3):
            for node in {1, n}:
                for k in (1, 2, 3):
                    kr = KRSpec(n, node, -1, k)
                    assert fm_reference(kr.drinfeld()) == qchar_kr(kr).terms()

    @pytest.mark.parametrize(
        "m, reason",
        [
            (Y(1, 1, 0, 2) * Y(1, 1, 2), "reaches the dominant"),
            (Y(2, 1, 0, 2) * Y(2, 2, 3), "is not 1-dominant"),
            (Y(2, 1, 0, -1), "dominant monomial"),
        ],
        ids=["second-dominant", "colour-break", "not-dominant"],
    )
    def test_strict_failures_raise(self, m, reason):
        with pytest.raises(InvalidInput, match=reason):
            fm_reference(m)


class TestKRRightNegativity:
    def test_non_highest_terms_right_negative(self):
        for node, n, r, k in ((2, 2, 0, 2), (1, 2, -1, 2), (3, 3, 1, 2), (1, 3, 0, 3)):
            kr = KRSpec(n, node, r, k)
            top = kr.drinfeld()
            for m in qchar_kr(kr).terms():
                if m != top:
                    assert right_negativity(m)[1]

    def test_close_terms_match_closed_form(self):
        for node, n, r, k in ((2, 2, 0, 3), (1, 3, -2, 2), (3, 3, 1, 2)):
            kr = KRSpec(n, node, r, k)
            top = kr.drinfeld()
            close = {
                m
                for m in qchar_kr(kr).terms()
                if m != top and right_negativity(m)[0] <= r + 2 * k
            }
            expected = set()
            for s in range(k):
                m = y_string(n, node, r, s) * y_string(n, node, r + 2 * (s + 1), k - s).inverse()
                for j in (node - 1, node + 1):
                    if 1 <= j <= n:
                        m = m * y_string(n, j, r + 2 * s + 1, k - s)
                expected.add(m)
            assert close == expected
            assert all(right_negativity(m)[0] == r + 2 * k for m in close)


class TestRecognition:
    def test_recognizes_increasing_pair(self):
        m = Y(2, 1, -3) * Y(2, 2, 0)
        assert recognize_minaff(m, "inc") == MinAffSpec(2, (1, 1), "inc", 0)
        assert recognize_minaff(m, "dec") is None

    def test_two_strings_at_one_node_rejected(self):
        for direction in ("inc", "dec"):
            assert recognize_minaff(Y(1, 1, 0) * Y(1, 1, 4), direction) is None

    def test_singleton_support_reports_both(self):
        for direction in ("inc", "dec"):
            spec = recognize_minaff(y_string(3, 2, 5, 2), direction)
            assert spec == MinAffSpec(3, (0, 2, 0), direction, 6)

    def test_non_dominant_rejected(self):
        with pytest.raises(InvalidInput):
            recognize_minaff(Y(1, 1, 0, -1), "inc")
        with pytest.raises(InvalidInput):
            recognize_kr(Y(1, 1, 0, -1))

    @pytest.mark.parametrize(
        "m",
        [Y(1, 1, 0, 2), LMonomial.identity(1), Y(1, 1, 0)],
        ids=["no_candidate", "identity", "candidate"],
    )
    def test_direction_checked_before_anything_else(self, m):
        # only the last monomial has a candidate spec, the only place the direction was checked
        with pytest.raises(InvalidInput, match="direction must be 'inc' or 'dec', got 'up'"):
            recognize_minaff(m, "up")

    def test_roundtrip_over_specs(self):
        for spec in small_specs():
            assert recognize_minaff(drinfeld_of_spec(spec), spec.direction) == spec

    def test_mismatched_ladder_rejected(self):
        # anchors off the ladder by one step at node 1
        for direction in ("inc", "dec"):
            assert recognize_minaff(Y(2, 1, -2) * Y(2, 2, 0), direction) is None

    def test_recognize_kr(self):
        assert recognize_kr(y_string(3, 3, -1, 2)) == KRSpec(3, 3, -1, 2)
        assert recognize_kr(y_string(3, 2, -1, 2)) is None
        assert recognize_kr(Y(2, 1, 0) * Y(2, 2, 3)) is None


def assert_recognizers_agree(m):
    """``recognize_minaff`` in both directions and ``recognize_kr`` give what
    the anchor-ladder recognizer of ``oracles`` gives."""
    ref = recognize_minaff_reference(m)
    for direction, eps in (("inc", -1), ("dec", 1)):
        expected = None
        if ref is not None and eps in ref[1]:
            lam, _, anchor = ref
            i0 = max(i for i in range(1, m.n + 1) if lam[i - 1])
            expected = MinAffSpec(m.n, lam, direction, anchor - (1 - lam[i0 - 1]))
        assert recognize_minaff(m, direction) == expected, (m, direction)
    expected_kr = None
    if ref is not None:
        lam, _, anchor = ref
        supp = [i for i in range(1, m.n + 1) if lam[i - 1]]
        if len(supp) == 1 and supp[0] in (1, m.n):
            expected_kr = KRSpec(m.n, supp[0], anchor, lam[supp[0] - 1])
    assert recognize_kr(m) == expected_kr, m


class TestRecognitionAgainstLadder:
    """Rebuilding the candidate's Drinfeld polynomial accepts exactly what
    the pairwise anchor ladder accepts."""

    def test_every_small_unit_monomial(self):
        seen = 0
        for n in (1, 2, 3):
            variables = [(i, r) for i in range(1, n + 1) for r in range(-4, 5)]
            for size in range(5):
                for chosen in combinations(variables, size):
                    m = LMonomial(n, [(key, 1) for key in chosen])
                    assert_recognizers_agree(m)
                    seen += recognize_minaff(m, "inc") is not None
        assert seen > 100

    @settings(max_examples=300, deadline=None)
    @given(dominant_monomials(max_n=3, max_factors=6, row_span=4))
    @example(Y(1, 1, 0, 2))
    @example(Y(2, 1, -3, 2) * Y(2, 2, 0))
    def test_random_monomials(self, m):
        assert_recognizers_agree(m)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_drinfeld_polynomials_with_one_factor_changed(self, data):
        """Near misses: a Drinfeld polynomial with one variable multiplied
        in (an exponent 2 where it is already present) or divided out."""
        n = data.draw(st.integers(1, 3))
        lam = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        direction = data.draw(st.sampled_from(("inc", "dec")))
        m = drinfeld_of_spec(MinAffSpec(n, tuple(lam), direction, data.draw(st.integers(-4, 4))))
        assert_recognizers_agree(m)
        exps = dict(m.items())
        key = data.draw(st.sampled_from(sorted(exps) + [(1, 0), (n, 1)]))
        change = data.draw(st.sampled_from((1, -1) if key in exps else (1,)))
        assert_recognizers_agree(m * Y(n, *key, change))


class TestRecognizeKrOneCandidate:
    """``recognize_kr`` builds its one candidate at the first variable and
    answers as the row-by-row reference does."""

    def test_every_kr_string(self):
        for n in range(1, 5):
            for node in sorted({1, n}):
                for k in range(1, 5):
                    for r in (-3, 0, 2):
                        kr = KRSpec(n, node, r, k)
                        assert recognize_kr(kr.drinfeld()) == recognize_kr_reference(kr.drinfeld()) == kr

    def test_identity(self):
        assert recognize_kr(LMonomial.identity(3)) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_strings_with_one_change(self, data):
        """A string at any node (interior ones too) with a repeated
        exponent, a variable at a second node, or a gap."""
        n = data.draw(st.integers(1, 4))
        node = data.draw(st.integers(1, n))
        m = y_string(n, node, data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 4)))
        keys = [key for key, _ in m.items()]
        change = data.draw(st.sampled_from(("none", "repeat", "second_node", "gap")))
        if change == "repeat":
            m = m * Y(n, *data.draw(st.sampled_from(keys)))
        elif change == "second_node":
            m = m * Y(n, data.draw(st.integers(1, n)), data.draw(st.integers(-6, 10)))
        elif change == "gap" and len(keys) > 2:
            m = m / Y(n, *data.draw(st.sampled_from(keys[1:-1])))
        assert recognize_kr(m) == recognize_kr_reference(m), m

    @settings(max_examples=300, deadline=None)
    @given(dominant_monomials(max_n=4, max_factors=5, row_span=4))
    def test_random_dominant_monomials(self, m):
        assert recognize_kr(m) == recognize_kr_reference(m), m


class TestFundamentalAgainstClosedForm:
    def test_qchar_of_first_fundamental(self):
        """The n+1 terms of the first fundamental module, every rank and shift."""
        for n in range(1, 5):
            for s in (-3, 0, 1):
                spec = MinAffSpec(n, (1,) + (0,) * (n - 1), "inc", s)
                terms = set(qchar(spec).terms())
                expected = {monomial_of_box(n, c, s) for c in range(1, n + 2)}
                assert terms == expected


class TestJDominantTerms:
    def test_j_dominant_terms_form_the_raised_family(self):
        """Dropping the last node, the only terms of an increasing spec that
        stay dominant are the ones with raised columns."""
        from qcharlab import family_S

        for n in (2, 3):
            for lam in all_weights(n, 2):
                spec = MinAffSpec(n, lam, "inc")
                J = set(range(1, n))
                jdom = {
                    m
                    for m in qchar(spec).terms()
                    if is_dominant(restrict(m, J))
                }
                family = {
                    family_S(spec, 1, f, n + 1)[1] for f in range(spec.total + 1)
                }
                assert jdom == family
