import json
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    add_weights,
    all_weights,
    dominant_monomials,
    in_lroot_cone_bruteforce,
    le_reference,
    lmonomials,
    lroot_decompose_reference,
    lroot_products,
    lroot_quotients,
    monomial_json_reference,
    right_negative_monomials,
    root_height,
    scaled_root_coords,
    simple_root_coords,
)
from qcharlab import (
    InvalidInput,
    LMonomial,
    LRootDecomposition,
    MinAffSpec,
    Weight,
    expand_lroot_path,
    expand_simple_lroot,
    is_dominant,
    le,
    lroot_decompose,
    restrict,
    right_negativity,
    transform,
    weight_of,
    y_string,
)
from qcharlab import cli, tensor
from qcharlab.lweight import _peel_class, monomial_sort_key
from qcharlab.tensor import VARIANTS, spectra_by_anchor


def Y(n, i, r, e=1):
    return LMonomial.y(n, i, r, e)


class TestLMonomial:
    def test_pickle_roundtrip(self):
        m = Y(3, 1, 0) * Y(3, 3, -2, -2)
        back = pickle.loads(pickle.dumps(m))
        assert back == m and hash(back) == hash(m)

    def test_canonical_form_drops_zeros(self):
        m = LMonomial(2, (((1, 0), 1), ((1, 0), -1), ((2, 3), 2)))
        assert m.items() == (((2, 3), 2),)

    def test_equality_and_hash(self):
        a = Y(2, 1, 0) * Y(2, 2, 3)
        b = Y(2, 2, 3) * Y(2, 1, 0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Y(2, 1, 0)

    def test_inverse_and_division(self):
        m = Y(3, 1, 0) * Y(3, 2, 1, -2)
        assert (m * m.inverse()).is_identity
        assert m / m == LMonomial.identity(3)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            Y(1, 1, 0) * Y(2, 1, 0)

    @pytest.mark.parametrize("c", [True, False, 0.0], ids=repr)
    def test_power_must_be_an_int(self, c):
        with pytest.raises(InvalidInput, match="exponent must be an integer"):
            Y(2, 1, 0) ** c

    def test_node_range_checked(self):
        with pytest.raises(InvalidInput):
            LMonomial(2, (((3, 0), 1),))

    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    def test_rank_and_pairs_must_be_ints(self, value):
        for n, pair in (
            (value, ((1, 0), 1)),
            (1, ((value, 0), 1)),
            (1, ((1, value), 1)),
            (1, ((1, 0), value)),
        ):
            with pytest.raises(InvalidInput, match="must be an integer"):
                LMonomial(n, (pair,))

    @pytest.mark.parametrize(
        "pairs",
        [[(1, 2)], "ab", 5, None, [((1, 0, 1), 1)], [((1,), 1)], [((1, 0), 1, 2)], [((1, 0),)]],
        ids=repr,
    )
    def test_malformed_pairs_rejected(self, pairs):
        with pytest.raises(InvalidInput, match=r"pairs must be \(\(i, r\), e\) pairs"):
            LMonomial(2, pairs)

    def test_str(self):
        assert str(LMonomial.identity(2)) == "1"
        assert str(Y(2, 1, 0) * Y(2, 2, 3, -1)) == "Y[1,0] Y[2,3]^-1"

    def test_json_roundtrip(self):
        m = Y(3, 2, -1, 2) * Y(3, 3, 4, -1)
        assert LMonomial.from_json(json.loads(m.json_text())) == m
        assert monomial_json_reference(m) == {"n": 3, "Y": [[2, -1, 2], [3, 4, -1]]}

    @given(lmonomials())
    def test_json_text_is_the_sorted_compact_dump(self, m):
        assert m.json_text() == cli._dumps(monomial_json_reference(m))
        assert LMonomial.from_json(json.loads(m.json_text())) == m

    @given(lmonomials(), lmonomials())
    def test_product_reuses_the_pairs_of_one_operand(self, a, b):
        # a key found in one operand only keeps that operand's (key, e) object
        b = LMonomial(a.n, (kv for kv in b.items() if kv[0][0] <= a.n))
        mine = {kv[0]: kv for kv in a.items()}
        theirs = {kv[0]: kv for kv in b.items()}
        for kv in (a * b).items():
            key = kv[0]
            if key not in theirs:
                assert kv is mine[key]
            elif key not in mine:
                assert kv is theirs[key]

    def test_product_pairs_example(self):
        a = Y(2, 1, 0) * Y(2, 2, 3, -1)
        b = Y(2, 1, 4, 2) * Y(2, 2, 3)
        first, second = (a * b).items()
        assert first is a.items()[0] and second is b.items()[0]


class TestYString:
    def test_two_step_string(self):
        assert y_string(2, 2, 0, 2) == Y(2, 2, 0) * Y(2, 2, 2)

    def test_empty_string_is_identity(self):
        assert y_string(3, 1, 5, 0).is_identity

    def test_single_factor(self):
        assert y_string(1, 1, -2, 1) == Y(1, 1, -2)

    def test_node_out_of_range(self):
        with pytest.raises(InvalidInput):
            y_string(2, 3, 0, 1)

    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    @pytest.mark.parametrize("slot", range(4))
    def test_arguments_must_be_ints(self, slot, value):
        args = [1, 1, 0, 2]
        args[slot] = value
        with pytest.raises(InvalidInput, match="must be an integer"):
            y_string(*args)


class TestExpandSimpleLRoot:
    def test_interior_node(self):
        expected = Y(4, 2, 2) * Y(4, 2, 4) * Y(4, 1, 3, -1) * Y(4, 3, 3, -1)
        assert expand_simple_lroot(4, 2, 3) == expected

    def test_rank_one_boundary(self):
        assert expand_simple_lroot(1, 1, 0) == Y(1, 1, -1) * Y(1, 1, 1)

    def test_top_node_boundary(self):
        expected = Y(2, 2, 1) * Y(2, 2, 3) * Y(2, 1, 2, -1)
        assert expand_simple_lroot(2, 2, 2) == expected

    def test_every_node_matches_generator_product(self):
        for n in range(1, 6):
            for i in range(1, n + 1):
                expected = Y(n, i, -1) * Y(n, i, 1)
                for j in (i - 1, i + 1):
                    if 1 <= j <= n:
                        expected = expected * Y(n, j, 0, -1)
                assert expand_simple_lroot(n, i, 0) == expected

    def test_node_out_of_range(self):
        for i in (0, 3):
            with pytest.raises(InvalidInput, match=f"node {i} out of range 1..2"):
                expand_simple_lroot(2, i, 0)

    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    @pytest.mark.parametrize("slot", range(3))
    def test_arguments_must_be_ints(self, slot, value):
        args = [2, 1, 0]
        args[slot] = value
        what = ("rank", "node", "spectral parameter")[slot]
        with pytest.raises(InvalidInput, match=f"^{what} must be an integer, got {re.escape(repr(value))}$"):
            expand_simple_lroot(*args)


class TestExpandLRootPath:
    def test_ascending_telescopes(self):
        # A[1,1] * A[2,2] over n=2 collapses to Y[1,0] Y[2,3]
        assert expand_lroot_path(2, 1, 2, 0) == Y(2, 1, 0) * Y(2, 2, 3)

    def test_single_node_path(self):
        assert expand_lroot_path(1, 1, 1, -2) == expand_simple_lroot(1, 1, -1)

    def test_descending_matches_factorwise_product(self):
        expected = (
            expand_simple_lroot(3, 3, 1)
            * expand_simple_lroot(3, 2, 2)
            * expand_simple_lroot(3, 1, 3)
        )
        assert expand_lroot_path(3, 3, 1, 0) == expected

    def test_node_out_of_range(self):
        with pytest.raises(InvalidInput):
            expand_lroot_path(2, 0, 2, 0)

    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    @pytest.mark.parametrize("slot", range(4))
    def test_arguments_must_be_ints(self, slot, value):
        args = [2, 1, 2, 0]
        args[slot] = value
        with pytest.raises(InvalidInput, match="must be an integer"):
            expand_lroot_path(*args)


class TestWeight:
    def test_weight_of_product_of_fundamentals(self):
        assert weight_of(Y(2, 1, 0) * Y(2, 2, 3)) == Weight(2, (1, 1))

    def test_weight_of_simple_lroot_is_cartan_column(self):
        assert weight_of(expand_simple_lroot(2, 1, 1)) == Weight(2, (2, -1))
        for n in range(1, 5):
            for i in range(1, n + 1):
                coords = tuple(
                    2 if j == i else (-1 if abs(j - i) == 1 else 0)
                    for j in range(1, n + 1)
                )
                assert weight_of(expand_simple_lroot(n, i, 0)) == Weight(n, coords)

    def test_weight_of_identity(self):
        assert weight_of(LMonomial.identity(3)) == Weight(3, (0, 0, 0))

    @pytest.mark.parametrize(
        "n, coords",
        [(2, (0.5, True)), (2, (1, 2.0)), (2, (1, "1")), (0, ()), (-1, ()), (True, (1,)), (2.0, (1, 1)),
         (2, (1,)), (2, 3), (2, "12")],
        ids=repr,
    )
    def test_rank_and_coordinates_are_checked(self, n, coords):
        with pytest.raises(InvalidInput):
            Weight(n, coords)

    def test_coordinates_are_stored_as_a_tuple(self):
        assert Weight(2, [1, -2]) == Weight(2, (1, -2))

    @given(lmonomials(), lmonomials())
    def test_weight_additive(self, a, b):
        if a.n != b.n:
            return
        assert weight_of(a * b) == add_weights(weight_of(a), weight_of(b))


class TestDominance:
    def test_examples(self):
        assert is_dominant(Y(2, 1, 0) * Y(2, 2, 3))
        assert not is_dominant(Y(2, 1, 2, -1) * Y(2, 2, 1))
        assert is_dominant(LMonomial.identity(2))

    @given(lmonomials(exponents=(-3, -2, -1, 1, 2, 3)))
    @example(LMonomial.identity(1))
    @example(LMonomial.identity(4))
    @settings(max_examples=200)
    def test_early_exit_agrees_with_every_exponent_positive(self, m):
        assert is_dominant(m) == all(e > 0 for _, e in m.items())


class TestRightNegativity:
    def test_dominant_string_not_right_negative(self):
        assert right_negativity(y_string(2, 2, 0, 2)) == (2, False)

    def test_top_row_inverted(self):
        assert right_negativity(Y(2, 1, 2, -1) * Y(2, 2, 1)) == (2, True)

    def test_single_positive(self):
        assert right_negativity(Y(1, 1, 0)) == (0, False)

    def test_identity_rejected(self):
        with pytest.raises(InvalidInput):
            right_negativity(LMonomial.identity(1))

    @given(dominant_monomials())
    def test_dominant_never_right_negative(self, m):
        if m.is_identity:
            return
        assert right_negativity(m)[1] is False

    @given(right_negative_monomials(), right_negative_monomials())
    @settings(max_examples=60)
    def test_product_of_right_negative_is_right_negative(self, a, b):
        if a.n != b.n:
            return
        assert right_negativity(a)[1] and right_negativity(b)[1]
        assert right_negativity(a * b)[1]


class TestLRootDecompose:
    def test_two_factor_example(self):
        d = lroot_decompose(expand_lroot_path(2, 1, 2, 0))
        assert d is not None
        assert d.factors == (((1, 1), 1), ((2, 2), 1))

    def test_fundamental_is_not_in_cone(self):
        assert lroot_decompose(Y(2, 1, 0)) is None

    def test_identity_has_empty_decomposition(self):
        d = lroot_decompose(LMonomial.identity(2))
        assert d is not None and d.factors == ()

    @pytest.mark.parametrize("m", ["x", None, LRootDecomposition(1, ())], ids=repr)
    def test_argument_must_be_a_monomial(self, m):
        with pytest.raises(InvalidInput, match="must be an LMonomial"):
            lroot_decompose(m)

    @pytest.mark.parametrize(
        "n, factors",
        [
            (2, (((1, 0.5), 1.5),)),
            (2, (((1, 0), 1.5),)),
            (2, (((1, 0), True),)),
            (2, (((True, 0), 1),)),
            (2, (((1, "0"), 1),)),
            (2, (((3, 0), 1),)),
            (2, (((0, 0), 1),)),
            (2, (((1, 0), 0),)),
            (2, (((1, 0), -1),)),
            (0, ()),
            (2.0, ()),
            (True, ()),
            (2, 5),
            (2, ((1, 2),)),
            (2, (((1, 0, 1), 1),)),
        ],
        ids=repr,
    )
    def test_decomposition_fields_are_checked(self, n, factors):
        with pytest.raises(InvalidInput):
            LRootDecomposition(n, factors)

    def test_decomposition_of_plain_ints(self):
        d = LRootDecomposition(2, [((1, 1), 2), ((2, 2), 1)])
        assert d.factors == (((1, 1), 2), ((2, 2), 1)) and d.total == 3
        assert d.expand() == expand_simple_lroot(2, 1, 1) ** 2 * expand_simple_lroot(2, 2, 2)

    @given(lroot_products())
    def test_roundtrip_and_uniqueness(self, data):
        n, m, factors = data
        d = lroot_decompose(m)
        assert d is not None
        assert dict(d.factors) == factors
        assert d.expand() == m

    @given(
        lroot_products(max_n=2, max_factors=2, row_span=2),
        lmonomials(max_n=2, max_factors=1, row_span=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce_membership(self, data, noise):
        n, m, _ = data
        if noise.n != n:
            return
        probe = m * noise
        got = lroot_decompose(probe)
        expected = in_lroot_cone_bruteforce(probe, max_total=3)
        assert (got is not None) == expected
        if got is not None:
            assert got.expand() == probe


def assert_peel_agrees(a, b):
    """``lroot_decompose(b / a)`` is the reference decomposition (or None
    with it), and ``le(a, b)`` says whether there is one."""
    q = b / a
    ref = lroot_decompose_reference(q)
    assert lroot_decompose(q) == ref, q
    assert le(a, b) == (ref is not None), (a, b)


class TestPeelAgainstReference:
    """The one bottom-up peel behind ``le`` and ``lroot_decompose`` gives
    the answers of the weight-test-and-rescan reference."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_quotients(self, data):
        q = data.draw(lroot_quotients())
        a = data.draw(lmonomials(min_n=q.n, max_n=q.n, exponents=(-2, -1, 1, 2)))
        assert_peel_agrees(a, a * q)
        assert_peel_agrees(a * q, a)

    @pytest.mark.parametrize(
        "q",
        [
            LMonomial.identity(3),
            Y(1, 1, 0),  # row 0 + n + 1 = 2 is left at Y[1,2]^-1
            Y(3, 2, 0),  # root coordinates not multiples of n + 1
            Y(1, 1, 0, 2),  # row 2 is left at Y[1,2]^-2
            Y(4, 3, 3, 5),  # row 3 + n + 1 = 8 is left at Y[2,8]^-5, node 3 flipped
            expand_simple_lroot(2, 1, 0) * Y(2, 1, 5, -1) * Y(2, 1, 7),  # fails on a high row
            expand_lroot_path(4, 1, 4, 0) ** 3,  # a cascade through every node
            expand_lroot_path(4, 4, 1, 2) ** 2 * expand_lroot_path(4, 1, 4, 0),
            expand_lroot_path(4, 1, 4, 0) / expand_simple_lroot(4, 4, 4),
            # rank 8, named apart from the rank-1 Y[1,0] above
            pytest.param(Y(8, 1, 0), id="n=8 Y[1,0]"),  # decided only at row 0 + n + 1 = 9, the bound
            pytest.param(Y(8, 5, 0), id="n=8 Y[5,0]"),  # likewise, left at Y[4,9]^-1
            pytest.param(expand_lroot_path(8, 1, 8, 0), id="n=8 path 1..8"),  # in the cone, a cascade through all eight nodes
        ],
        ids=str,
    )
    def test_examples(self, q):
        one = LMonomial.identity(q.n)
        assert_peel_agrees(one, q)
        assert_peel_agrees(q, one)
        base = Y(q.n, 1, 3) * Y(q.n, q.n, -2, -1)
        assert_peel_agrees(base, base * q)

    def test_consecutive_golden_spectra(self):
        """Every consecutive pair of D over the golden grid, both ways round."""
        outcomes = set()
        for n in range(1, 4):
            for lam in all_weights(n, 3):
                for direction in ("inc", "dec"):
                    spec = MinAffSpec(n, lam, direction, 0)
                    for node in {1, n}:
                        for k in range(1, 4):
                            for terms in spectra_by_anchor(spec, node, k).values():
                                for (hi, _), (lo, _) in zip(terms, terms[1:]):
                                    assert_peel_agrees(lo, hi)
                                    assert_peel_agrees(hi, lo)
                                    outcomes.update((le(lo, hi), le(hi, lo)))
        assert outcomes == {True, False}


GOLDEN_SWEEP = {"n_max": 3, "lambda_sum_max": 3, "k_max": 3, "r_window_pad": 2,
                "variants": ["normal", "a", "b", "c"], "parallelism": 1}


def assert_le_agrees(a, b):
    """``le`` equals its memo-free reference on (a, b) and on the pair moved
    by tau_t, whose quotient lies in the same shift class."""
    ref = le_reference(a, b)
    for t in (-7, 0, 5):
        ta, tb = transform(a, "tau", t), transform(b, "tau", t)
        assert le(ta, tb) == le_reference(ta, tb) == ref, (a, b, t)


class TestShiftClassMemo:
    """``le`` decides a quotient moved to row 0 and keeps one answer per
    shift class (``_peel_class``); every answer is that of the reference."""

    def test_every_ordered_pair_of_golden_spectra(self):
        pairs, outcomes = 0, set()
        for n in range(1, 4):
            for lam in all_weights(n, 3):
                for direction in ("inc", "dec"):
                    spec = MinAffSpec(n, lam, direction, 0)
                    for node in {1, n}:
                        for k in range(1, 4):
                            for terms in spectra_by_anchor(spec, node, k).values():
                                for a, _ in terms:
                                    for b, _ in terms:
                                        assert_le_agrees(a, b)
                                        outcomes.add(le(a, b))
                                        pairs += 1
        assert outcomes == {True, False} and pairs > 10_000

    def test_seeded_random_pairs(self):
        rng = random.Random(40)
        outcomes = set()
        for _ in range(3_000):
            n = rng.randint(1, 5)
            a = LMonomial(n, [((rng.randint(1, n), rng.randint(-4, 4)), rng.randint(-2, 3)) for _ in range(rng.randint(0, 6))])
            q = LMonomial.identity(n)
            for _ in range(rng.randint(0, 4)):
                q = q * expand_simple_lroot(n, rng.randint(1, n), rng.randint(-3, 5)) ** rng.choice((1, 1, -1))
            assert_le_agrees(a, a * q)
            assert_le_agrees(a * q, a)
            outcomes.add(le(a, a * q))
        assert outcomes == {True, False}

    def test_one_golden_sweep_asks_few_classes(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(tensor, "le", lambda a, b: calls.append(1) or le(a, b))
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**GOLDEN_SWEEP, "output": str(tmp_path / "out.jsonl")}))
        assert cli.main(["sweep", "--config", str(config)]) == 0
        assert len(calls) == 2502
        assert _peel_class.cache_info().misses == 26

    def test_emptied_by_clear_caches(self):
        assert _peel_class in tensor._CACHES
        assert le(Y(2, 1, 0) / expand_simple_lroot(2, 1, 1), Y(2, 1, 0))
        assert _peel_class.cache_info().currsize == 1
        tensor.clear_caches()
        assert _peel_class.cache_info().currsize == 0


class TestPartialOrder:
    def test_single_step(self):
        lower = Y(1, 1, 0) / expand_simple_lroot(1, 1, 1)
        assert le(lower, Y(1, 1, 0))
        assert not le(Y(1, 1, 0), lower)

    def test_reflexive_on_examples(self):
        assert le(Y(1, 1, 0), Y(1, 1, 0))

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInput):
            le(Y(1, 1, 0), Y(2, 1, 0))

    @pytest.mark.parametrize("other", ["x", None, 1, ((1, 0), 1)], ids=repr)
    def test_arguments_must_be_monomials(self, other):
        for args in ((Y(1, 1, 0), other), (other, Y(1, 1, 0))):
            with pytest.raises(InvalidInput, match="must be an LMonomial"):
                le(*args)

    @given(lmonomials(max_n=3, max_factors=4))
    def test_reflexive(self, m):
        assert le(m, m)

    @given(lroot_products(max_n=3), lroot_products(max_n=3))
    @settings(max_examples=60)
    def test_antisymmetric(self, a, b):
        na, ma, _ = a
        nb, mb, _ = b
        if na != nb:
            return
        base = LMonomial.identity(na)
        x = base * ma
        y = base * mb
        if le(x, y) and le(y, x):
            assert x == y

    @given(lroot_products(max_n=2, max_factors=2), lroot_products(max_n=2, max_factors=2))
    @settings(max_examples=60)
    def test_transitive_along_cone_steps(self, a, b):
        na, ma, _ = a
        nb, mb, _ = b
        if na != nb:
            return
        low = LMonomial.identity(na)
        mid = low * ma
        high = mid * mb
        assert le(low, mid) and le(mid, high) and le(low, high)

    @given(lroot_products(max_n=3))
    def test_height_monotone(self, data):
        n, m, factors = data
        base = Y(n, 1, 0)
        higher = base * m
        assert root_height(higher) - root_height(base) == Fraction(sum(factors.values()))

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(st.integers(-5, 5), min_size=n, max_size=n)
        )
    )
    def test_scaled_root_coords_solve_the_cartan_system(self, coords):
        n, h = len(coords), len(coords) + 1
        w = Weight(n, tuple(coords))
        x = scaled_root_coords(w)
        assert all(isinstance(t, int) for t in x)
        assert x == tuple(h * t for t in simple_root_coords(w))
        padded = (0, *x, 0)
        assert [2 * padded[i] - padded[i - 1] - padded[i + 1] for i in range(1, h)] == [
            h * c for c in coords
        ]

    @given(lmonomials(max_n=5, max_factors=8))
    def test_sort_key_is_minus_twice_the_height(self, m):
        key = monomial_sort_key(m)
        assert isinstance(key[0], int)
        assert Fraction(-key[0], 2) == root_height(m)
        assert key[1] == m.items()


class TestRestrict:
    def test_projection_relabels(self):
        m = Y(2, 1, 0) * Y(2, 2, 3)
        assert restrict(m, {2}) == Y(1, 1, 3)

    def test_full_restriction_is_identity_map(self):
        m = Y(2, 1, 0) * Y(2, 2, 3)
        assert restrict(m, {1, 2}) == m

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            restrict(Y(2, 1, 0), set())

    @pytest.mark.parametrize("value", [1.0, 2.0, True, "1"], ids=repr)
    def test_nodes_must_be_ints(self, value):
        with pytest.raises(InvalidInput, match="node must be an integer"):
            restrict(Y(2, 1, 0) * Y(2, 2, 3), [value])


class TestTransform:
    def test_star_rank_one(self):
        assert transform(Y(1, 1, 0), "star") == Y(1, 1, -2)

    def test_kappa_generator(self):
        assert transform(Y(2, 1, 0), "kappa") == Y(2, 2, -3)

    def test_tau(self):
        assert transform(Y(2, 1, 0) * Y(2, 2, 3), "tau", 5) == Y(2, 1, 5) * Y(2, 2, 8)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            transform(Y(1, 1, 0), "sigma")

    @pytest.mark.parametrize("kind", ["tau", "star"])
    @pytest.mark.parametrize("m", ["x", None, {"n": 1, "Y": [[1, 0, 1]]}], ids=repr)
    def test_argument_must_be_a_monomial(self, m, kind):
        with pytest.raises(InvalidInput, match="must be an LMonomial"):
            transform(m, kind, 1)

    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    def test_shift_must_be_an_int(self, value):
        with pytest.raises(InvalidInput, match="shift must be an integer"):
            transform(Y(1, 1, 0), "tau", value)

    @given(lmonomials())
    def test_involutions_and_composites(self, m):
        assert transform(transform(m, "minus"), "minus") == m
        assert transform(transform(m, "kappa"), "kappa") == m
        assert transform(transform(m, "star"), "star_inv") == m
        double_star = transform(transform(m, "star"), "star")
        assert double_star == transform(m, "tau", -2 * (m.n + 1))
        assert transform(transform(m, "minus"), "star") == transform(m, "kappa")

    @given(lmonomials())
    def test_star_reverses_weight(self, m):
        w = weight_of(m)
        assert weight_of(transform(m, "star")).coords == w.coords[::-1]

    @given(lmonomials(), lmonomials())
    def test_multiplicative(self, a, b):
        if a.n != b.n:
            return
        for kind in ("star", "star_inv", "minus", "kappa"):
            assert transform(a * b, kind) == transform(a, kind) * transform(b, kind)


_MAP_KINDS = ("star", "star_inv", "minus", "kappa")


class TestShiftAfterEveryMap:
    """``transform(m, kind, t)`` is the map and then tau_t, in one pass."""

    @settings(max_examples=150)
    @given(lmonomials(exponents=tuple(range(-3, 4))), st.integers(-6, 6))
    def test_shift_follows_the_map(self, m, t):
        for kind in (*_MAP_KINDS, "tau"):
            assert transform(m, kind, t) == transform(transform(m, kind), "tau", t)
            _assert_canonical(transform(m, kind, t))

    @given(lmonomials(exponents=tuple(range(-3, 4))))
    def test_zero_shift_is_the_map_alone(self, m):
        for kind in (*_MAP_KINDS, "tau"):
            assert transform(m, kind, 0) == transform(m, kind)
        assert transform(m, "tau", 0) is m

    @settings(max_examples=150)
    @given(lmonomials(exponents=tuple(range(-3, 4))), st.integers(-6, 6))
    def test_back_map_of_each_variant_row(self, m, t):
        # tensor._classify carries a monomial back by forward(tau_t(m)) in one
        # call: the shift keeps its sign on the unflipped rows and flips it on
        # rows b and c, whose maps negate r
        for row in VARIANTS.values():
            if row.forward is None:
                continue
            back_t = -t if row.flipped else t
            assert transform(m, row.forward, back_t) == transform(transform(m, "tau", t), row.forward)
        assert {row.name for row in VARIANTS.values() if row.flipped} == {"b", "c"}


def _assert_canonical(m):
    """``m`` is what the validated constructor makes of its own pairs."""
    ref = LMonomial(m.n, m.items())
    assert m.items() == ref.items() and m == ref and hash(m) == hash(ref)


class TestCanonicalByConstruction:
    """``transform``, ``y_string`` and ``expand_lroot_path`` build their results
    through ``LMonomial._make``, without the constructor's sort and merge."""

    @settings(max_examples=150)
    @given(lmonomials(exponents=tuple(range(-3, 4))), st.integers(-10, 10))
    def test_every_transform_kind(self, m, t):
        for kind in ("star", "star_inv", "minus", "kappa"):
            _assert_canonical(transform(m, kind))
        _assert_canonical(transform(m, "tau", t))

    @settings(max_examples=150)
    @given(st.data())
    def test_strings_and_root_paths(self, data):
        n = data.draw(st.integers(1, 4))
        i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        r = data.draw(st.integers(-8, 8))
        _assert_canonical(y_string(n, i, r, data.draw(st.integers(0, 6))))
        _assert_canonical(expand_lroot_path(n, i, j, r))
