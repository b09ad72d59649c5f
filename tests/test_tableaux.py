import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_weights,
    column_gaps,
    cover_bound_reference,
    fm_reference,
    highest_shape_reference,
    monomial_of_tableau_reference,
    raise_box,
    semistandard_fillings_reference,
    snakes,
    within_bound_reference,
)
from qcharlab import (
    InvalidInput,
    KRSpec,
    LMonomial,
    MinAffSpec,
    Shape,
    Tableau,
    drinfeld_of_spec,
    enumerate_semistandard,
    highest_tableau,
    is_dominant,
    is_semistandard,
    monomial_of_box,
    monomial_of_tableau,
    qchar,
    qchar_kr,
    semistandard_fillings,
    snake_shape,
    y_string,
)
from qcharlab.tableaux import filling_pairs, longer_at_end, mirrored_terms, raise_bound


def Y(n, i, r, e=1):
    return LMonomial.y(n, i, r, e)


def stairs_specs(n_max=3, total_max=3):
    for n in range(1, n_max + 1):
        for lam in all_weights(n, total_max):
            for direction in ("inc", "dec"):
                yield MinAffSpec(n, lam, direction)


class TestShape:
    def test_rejects_increasing_starts(self):
        with pytest.raises(InvalidInput):
            Shape(((1, 0), (1, 2)))

    def test_rejects_parity_mismatch(self):
        with pytest.raises(InvalidInput):
            Shape(((1, 0), (1, -1)))

    def test_rejects_disconnected(self):
        # second column tops out two rows below the first column's bottom
        with pytest.raises(InvalidInput):
            Shape(((1, 0), (1, -4)))

    def test_corner_touching_allowed(self):
        Shape(((1, 0), (1, -2)))

    def test_empty_shape(self):
        assert len(Shape(())) == 0


class TestSnakeShape:
    def test_one_column_per_variable(self):
        m = Y(3, 1, 0) * Y(3, 3, 4) * Y(3, 2, 9)
        assert snake_shape(m).columns == ((2, 8), (3, 2), (1, 0))

    def test_kr_string(self):
        assert snake_shape(y_string(2, 2, -1, 2)).columns == ((2, 0), (2, -2))
        kr = KRSpec(3, 1, 4, 3)
        assert snake_shape(kr.drinfeld()).columns == ((1, 8), (1, 6), (1, 4))

    def test_identity_has_no_columns(self):
        assert snake_shape(LMonomial.identity(2)) == Shape(())

    @pytest.mark.parametrize(
        "m",
        [
            Y(2, 1, 0, -1),
            Y(2, 1, 0) * Y(2, 2, 3, -1),
            Y(2, 1, 0, 2),
            Y(2, 1, 0) * Y(2, 2, 0),
            Y(2, 1, 0) * Y(2, 2, 2),
            Y(2, 1, 0) * Y(2, 1, 1),
        ],
        ids=["inverse", "mixed", "square", "same-row", "too-close", "adjacent"],
    )
    def test_rejects_non_snakes(self, m):
        with pytest.raises(InvalidInput, match="snake"):
            snake_shape(m)

    def test_shape_rules_still_apply(self):
        with pytest.raises(InvalidInput, match="parity"):
            snake_shape(Y(2, 1, 0) * Y(2, 1, 3))
        with pytest.raises(InvalidInput, match="disconnected"):
            snake_shape(Y(2, 1, 0) * Y(2, 1, 4))

    def test_matches_the_anchor_ladder(self):
        """Every spec with n <= 5 and |lambda| <= 4, both directions, at
        shifts 0 and 3: the Drinfeld polynomial's snake shape is the shape
        read off the anchor ladder."""
        count = 0
        for n in range(1, 6):
            for lam in all_weights(n, 4):
                for direction in ("inc", "dec"):
                    for shift in (0, 3):
                        spec = MinAffSpec(n, lam, direction, shift)
                        assert snake_shape(drinfeld_of_spec(spec)) == highest_shape_reference(spec)
                        count += 1
        assert count == 984


@given(snakes())
@settings(max_examples=60, deadline=None)
def test_snake_fillings_are_the_frenkel_mukhin_character(m):
    monos = [mono for _, mono in semistandard_fillings(m.n, snake_shape(m))]
    assert fm_reference(m) == dict.fromkeys(monos, 1)
    assert len(monos) == len(set(monos))


class TestExactIntegers:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Shape(((2.7, 0.0),)),
            lambda: Shape(((1, "0"),)),
            lambda: Shape(((True, 0),)),
            lambda: Shape(((1, 0), (1, 2.0 - 4))),
            lambda: Tableau(1, Shape(((1, 0),)), (("1",),)),
            lambda: Tableau(1, Shape(((1, 0),)), ((1.9,),)),
            lambda: Tableau(1, Shape(((1, 0),)), ((True,),)),
            lambda: Tableau(1.0, Shape(((1, 0),)), ((1,),)),
            lambda: Tableau(1, ((1, 0),), ((1,),)),
            lambda: Shape(((1,),)),
            lambda: Shape(((1, 0, 2),)),
            lambda: Shape(5),
            lambda: Tableau(1, Shape(((1, 0),)), (1,)),
            lambda: Tableau(1, Shape(((1, 0),)), 1),
            lambda: Tableau(0, Shape(((1, 0),)), ((1,),)),
            lambda: Tableau(-1, Shape(()), ()),
        ],
        ids=[
            "float-shape",
            "str-support",
            "bool-length",
            "float-support",
            "str-content",
            "float-content",
            "bool-content",
            "float-rank",
            "tuple-shape",
            "short-column",
            "long-column",
            "int-columns",
            "int-content-column",
            "int-contents",
            "zero-rank",
            "negative-rank",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(InvalidInput, match="must be"):
            build()

    @pytest.mark.parametrize(
        "search, n",
        [
            (semistandard_fillings, 0),
            (semistandard_fillings, -2),
            (semistandard_fillings, True),
            (semistandard_fillings, 1.0),
            (enumerate_semistandard, 0),
            (enumerate_semistandard, -2),
        ],
        ids=["fillings-0", "fillings-neg", "fillings-bool", "fillings-float", "tableaux-0", "tableaux-neg"],
    )
    def test_search_rejects_the_rank(self, search, n):
        with pytest.raises(InvalidInput, match="rank must be"):
            list(search(n, Shape(((1, 0),))))

    def test_search_rejects_a_plain_tuple(self):
        # as a Shape this pair is disconnected; the search must not take it unchecked
        with pytest.raises(InvalidInput, match="Shape"):
            list(semistandard_fillings(2, ((1, 0), (1, -6))))

    def test_lists_are_stored_as_tuples(self):
        t = Tableau(2, Shape([[2, 0], [1, -2]]), [[1, 2], [3]])
        assert t.shape.columns == ((2, 0), (1, -2))
        assert t.cols == ((1, 2), (3,))
        assert t == Tableau(2, Shape(((2, 0), (1, -2))), ((1, 2), (3,)))
        assert hash(t) == hash(Tableau(2, Shape(((2, 0), (1, -2))), ((1, 2), (3,))))


class TestBoxMonomial:
    def test_first_content_has_no_inverse(self):
        assert monomial_of_box(2, 1, 0) == Y(2, 1, 0)

    def test_last_content_is_pure_inverse(self):
        assert monomial_of_box(2, 3, 0) == Y(2, 2, 3, -1)

    def test_middle_content(self):
        assert monomial_of_box(2, 2, 0) == Y(2, 1, 2, -1) * Y(2, 2, 1)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            monomial_of_box(2, 4, 0)


class TestTableauMonomial:
    def test_increasing_column_gives_fundamental(self):
        for n in (2, 3):
            for i in range(1, n + 1):
                for s in (-3, 0, 2):
                    t = Tableau(n, Shape(((i, s),)), (tuple(range(1, i + 1)),))
                    assert monomial_of_tableau(t) == Y(n, i, s + i - 1)

    def test_full_column_is_trivial(self):
        t = Tableau(2, Shape(((3, 1),)), ((1, 2, 3),))
        assert monomial_of_tableau(t).is_identity

    def test_two_column_kr_string(self):
        spec = MinAffSpec(2, (0, 2), "inc")
        t = highest_tableau(spec)
        assert monomial_of_tableau(t) == y_string(2, 2, -1, 2)

    def test_str_mentions_all_supports(self):
        text = str(highest_tableau(MinAffSpec(2, (1, 1), "inc")))
        assert "s=1" in text and "s=-3" in text


class TestBoxProduct:
    def test_hand_built_tableau_matches_reference(self):
        t = Tableau(3, Shape(((3, 2), (2, 0), (1, -2))), ((1, 3, 4), (2, 4), (3,)))
        assert monomial_of_tableau(t) == monomial_of_tableau_reference(t)

    def test_raised_tableau_matches_reference(self):
        t = highest_tableau(MinAffSpec(3, (1, 1, 1), "dec", 2))
        t2, path = raise_box(t, 2, 1, 3)
        assert monomial_of_tableau(t2) == monomial_of_tableau_reference(t2)
        assert monomial_of_tableau(t2) == monomial_of_tableau(t) * path.inverse()

    def test_equal_tableaux_are_interchangeable(self):
        spec = MinAffSpec(2, (1, 1), "inc", -1)
        fresh = highest_tableau(spec)
        used = highest_tableau(spec)
        monomial_of_tableau(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.loads(pickle.dumps(used)) == fresh


@st.composite
def minaff_specs(draw, max_n=4, max_total=4):
    n = draw(st.integers(1, max_n))
    lam = draw(
        st.lists(st.integers(0, max_total), min_size=n, max_size=n).filter(
            lambda v: 0 < sum(v) <= max_total
        )
    )
    return MinAffSpec(
        n, tuple(lam), draw(st.sampled_from(("inc", "dec"))), draw(st.integers(-6, 6))
    )


@given(minaff_specs())
@settings(max_examples=40, deadline=None)
def test_enumerated_monomials_match_the_box_product(spec):
    shape = highest_tableau(spec).shape
    count = 0
    for t in enumerate_semistandard(spec.n, shape):
        assert monomial_of_tableau(t) == monomial_of_tableau_reference(t)
        checked = Tableau(spec.n, shape, t.cols)
        assert t == checked and hash(t) == hash(checked)
        count += 1
    assert count > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_both_views_of_the_search_agree(n):
    """Over every spec with |lambda| <= 4 at rank n, both directions, shifted:
    the fillings' monomials are the box products of the enumerated tableaux,
    in order; they are the terms of ``qchar``, each once; and the listed
    tableaux are distinct and semi-standard, so none aliases the search's
    buffer."""
    for lam in all_weights(n, 4):
        for direction in ("inc", "dec"):
            spec = MinAffSpec(n, lam, direction, 5)
            shape = highest_tableau(spec).shape
            monos = [m for _, m in semistandard_fillings(n, shape)]
            tableaux = list(enumerate_semistandard(n, shape))
            assert monos == [monomial_of_tableau_reference(t) for t in tableaux]
            assert len(qchar(spec)) == len(monos)
            assert qchar(spec).terms() == dict.fromkeys(monos, 1)
            assert len(set(tableaux)) == len(tableaux)
            assert all(map(is_semistandard, tableaux))


def assert_same_search(n, shape):
    """The search and its reference yield the same fillings and monomials, in order."""
    fast = [(list(contents), m) for contents, m in semistandard_fillings(n, shape)]
    slow = [(list(contents), m) for contents, m in semistandard_fillings_reference(n, shape)]
    assert fast == slow
    return fast


class TestSearchAgainstReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_spec_shape(self, n):
        for lam in all_weights(n, 4):
            for direction in ("inc", "dec"):
                shape = snake_shape(drinfeld_of_spec(MinAffSpec(n, lam, direction)))
                assert assert_same_search(n, shape)

    @given(snakes())
    @settings(max_examples=60, deadline=None)
    def test_touching_snakes(self, m):
        assert assert_same_search(m.n, snake_shape(m))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edge_shapes(self, n):
        identity = LMonomial.identity(n)
        assert assert_same_search(n, Shape(())) == [([], identity)]
        one_box = assert_same_search(n, Shape(((1, 0),)))
        assert [contents for contents, _ in one_box] == [[c] for c in range(1, n + 2)]
        column = assert_same_search(n, Shape(((n, 1),)))
        assert len(column) == n + 1
        # a column of length n + 1 has its contents forced, and a longer one none
        assert assert_same_search(n, Shape(((n + 1, 0),))) == [(list(range(1, n + 2)), identity)]
        assert assert_same_search(n, Shape(((n + 2, 0),))) == []


def assert_same_mirrored_search(n, shape):
    """The mirrored search yields each filling's tuple once: the tuples of
    ``filling_pairs`` and of the reference search, as many and as a set."""
    found = mirrored_terms(n, shape)
    ordered = [t for _, t in filling_pairs(n, shape)]
    reference = [m.items() for _, m in semistandard_fillings_reference(n, shape)]
    assert len(found) == len(set(found)) == len(ordered) == len(reference)
    assert set(found) == set(ordered) == set(reference)
    return found, ordered


class TestMirroredSearch:
    """``mirrored_terms``, the search from the other end of a shape, and the
    rule by which ``qchar`` takes it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_spec_shape(self, n):
        """Every spec with |lambda| <= 4, both directions, at shifts 0 and
        5: the mirror finds the left-to-right terms, and ``qchar``, which
        mirrors exactly the shapes whose last column is longer, is the
        character of the left-to-right search."""
        mirrored = reordered = 0
        for lam in all_weights(n, 4):
            for direction in ("inc", "dec"):
                for shift in (0, 5):
                    spec = MinAffSpec(n, lam, direction, shift)
                    shape = snake_shape(drinfeld_of_spec(spec))
                    found, ordered = assert_same_mirrored_search(n, shape)
                    monos = [m for _, m in semistandard_fillings(n, shape)]
                    assert qchar(spec).terms() == dict.fromkeys(monos, 1)
                    columns = shape.columns
                    assert longer_at_end(shape) == (columns[-1][0] > columns[0][0])
                    if longer_at_end(shape):
                        assert direction == "dec"
                        assert list(qchar(spec)._all_terms()) == found
                        mirrored += 1
                        reordered += found != ordered
                    else:
                        assert list(qchar(spec)._all_terms()) == ordered
        if n > 1:
            assert reordered == mirrored > 0

    @given(snakes())
    @settings(max_examples=60, deadline=None)
    def test_touching_snakes(self, m):
        found, _ = assert_same_mirrored_search(m.n, snake_shape(m))
        assert found

    def test_a_mirrored_search_starts_from_the_lowest_term(self):
        # placed contents 1, 2, ... from the bottom are n + 1, n, ... : every
        # box at its largest content, the term with no positive exponent,
        # where the left-to-right search ends
        spec = MinAffSpec(3, (1, 0, 2), "dec")
        shape = snake_shape(drinfeld_of_spec(spec))
        assert longer_at_end(shape)
        found, ordered = assert_same_mirrored_search(3, shape)
        assert ordered[0] == drinfeld_of_spec(spec).items()
        assert found[0] == ordered[-1] and all(e < 0 for _, e in found[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edge_shapes(self, n):
        assert mirrored_terms(n, Shape(())) == [()]
        assert not longer_at_end(Shape(()))
        assert not longer_at_end(Shape(((n, 1),)))
        assert len(assert_same_mirrored_search(n, Shape(((1, 0),)))[0]) == n + 1
        assert mirrored_terms(n, Shape(((n + 1, 0),))) == [()]
        assert mirrored_terms(n, Shape(((n + 2, 0),))) == []

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput, match="rank must be"):
            mirrored_terms(0, Shape(((1, 0),)))
        with pytest.raises(InvalidInput, match="Shape"):
            mirrored_terms(2, ((1, 0), (2, -2)))
        with pytest.raises(InvalidInput, match="Shape"):
            longer_at_end(((1, 0), (2, -2)))


def bounded_search(n, shape, bound):
    return [(list(contents), t) for contents, t in filling_pairs(n, shape, bound)]


def full_search_reference(n, shape):
    return [(list(contents), m.items()) for contents, m in semistandard_fillings_reference(n, shape)]


class TestBoundedSearch:
    """``filling_pairs`` under a bound yields exactly the full search's
    fillings that clear it, in the same order."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kr_bounds_at_several_anchors(self, n):
        bounds = [
            cover_bound_reference(qchar_kr(KRSpec(n, node, r, k)))
            for node in sorted({1, n})
            for k in (1, 2, 3)
            for r in (-6, -3, -1, 0, 2, 5)
        ]
        kept = total = 0
        for lam in all_weights(n, 3):
            for direction in ("inc", "dec"):
                shape = snake_shape(drinfeld_of_spec(MinAffSpec(n, lam, direction)))
                full = full_search_reference(n, shape)
                for bound in bounds:
                    found = bounded_search(n, shape, bound)
                    assert found == within_bound_reference(full, bound), (lam, direction, bound)
                    kept += len(found)
                    total += len(full)
        assert 0 < kept < total

    @given(snakes(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_bounds(self, m, data):
        shape = snake_shape(m)
        full = full_search_reference(m.n, shape)
        keys = sorted({key for _, t in full for key, _ in t})
        bound = data.draw(st.dictionaries(st.sampled_from(keys), st.integers(0, 3)))
        assert bounded_search(m.n, shape, bound) == within_bound_reference(full, bound)

    def test_an_empty_bound_keeps_the_dominant_fillings(self):
        shape = snake_shape(drinfeld_of_spec(MinAffSpec(3, (1, 0, 2), "dec")))
        found = bounded_search(3, shape, {})
        assert [t for _, t in found] == [drinfeld_of_spec(MinAffSpec(3, (1, 0, 2), "dec")).items()]

    @pytest.mark.parametrize(
        "bound, message",
        # the one box at support 0 moves the keys (1, 0) and (1, 2)
        [([((1, 2), 1)], "must be a dict"), ({(1, 2): 1.0}, "must be an integer"),
         ({(1, 2): True}, "must be an integer"), ({(1, 2): -1}, "must be nonnegative")],
        ids=["list", "float", "bool", "negative"],
    )
    def test_rejects_a_malformed_bound(self, bound, message):
        with pytest.raises(InvalidInput, match=message):
            list(filling_pairs(1, Shape(((1, 0),)), bound))


class TestRaiseBound:
    """``raise_bound`` counts the boxes that can raise each key, which bounds
    every filling's exponent there."""

    def test_bounds_every_character(self):
        specs = [
            MinAffSpec(n, lam, direction)
            for n in range(1, 5)
            for lam in all_weights(n, 4)
            for direction in ("inc", "dec")
        ]
        specs += [
            KRSpec(n, node, 0, k).as_minaff()
            for n in range(1, 5)
            for node in sorted({1, n})
            for k in range(1, 5)
        ]
        for spec in specs:
            bound = raise_bound(spec.n, snake_shape(drinfeld_of_spec(spec)))
            top = cover_bound_reference(qchar(spec))
            assert all(bound.get(key, 0) >= e for key, e in top.items()), spec

    def test_counts_the_boxes(self):
        # one box at support 0 takes every content and raises (c, c - 1) for c <= n
        assert raise_bound(2, Shape(((1, 0),))) == {(1, 0): 1, (2, 1): 1}
        # a column of length n + 1 is forced to 1..n+1, and each box raises its own key
        assert raise_bound(2, Shape(((3, 0),))) == {(1, 4): 1, (2, 3): 1}
        # two boxes at support 0: the second column's, in row 2, takes contents
        # 2 and 3 only, so both raise (2, 1) and only the first raises (1, 0)
        assert raise_bound(2, Shape(((1, 0), (2, 0)))) == {(1, 0): 1, (2, 1): 2, (1, 2): 1, (2, 3): 1}
        assert raise_bound(3, Shape(())) == {}

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput, match="needs a Shape"):
            raise_bound(2, ((1, 0),))
        with pytest.raises(InvalidInput):
            raise_bound(0, Shape(((1, 0),)))


class TestSemistandard:
    def test_highest_tableaux_are_semistandard(self):
        for spec in stairs_specs():
            assert is_semistandard(highest_tableau(spec))

    def test_decreasing_column_rejected(self):
        t = Tableau(1, Shape(((2, 0),)), ((2, 1),))
        assert not is_semistandard(t)

    def test_diagonal_condition(self):
        t = Tableau(2, Shape(((1, 0), (1, -2))), ((1,), (2,)))
        assert not is_semistandard(t)
        t2 = Tableau(2, Shape(((1, 0), (1, -2))), ((2,), (1,)))
        assert is_semistandard(t2)


class TestEnumerate:
    def test_rank_one_single_box(self):
        got = list(enumerate_semistandard(1, Shape(((1, 0),))))
        assert [t.cols for t in got] == [((1,),), ((2,),)]

    def test_kr_rectangle_count(self):
        shape = highest_tableau(MinAffSpec(2, (0, 2), "inc")).shape
        assert sum(1 for _ in enumerate_semistandard(2, shape)) == 6

    def test_adjoint_count(self):
        shape = highest_tableau(MinAffSpec(2, (1, 1), "inc")).shape
        assert sum(1 for _ in enumerate_semistandard(2, shape)) == 8

    def test_empty_shape_yields_empty_tableau(self):
        got = list(enumerate_semistandard(3, Shape(())))
        assert len(got) == 1 and monomial_of_tableau(got[0]).is_identity

    def test_all_results_semistandard_and_deterministic(self):
        shape = highest_tableau(MinAffSpec(3, (1, 0, 1), "dec")).shape
        first = list(enumerate_semistandard(3, shape))
        second = list(enumerate_semistandard(3, shape))
        assert first == second
        assert all(is_semistandard(t) for t in first)
        contents = [sum(t.cols, ()) for t in first]
        assert contents == sorted(contents)

    def test_stairs_monomials_distinct(self):
        for spec in stairs_specs():
            shape = highest_tableau(spec).shape
            monomials = [
                monomial_of_tableau(t) for t in enumerate_semistandard(spec.n, shape)
            ]
            assert len(set(monomials)) == len(monomials)

    def test_exactly_one_dominant_in_stab(self):
        for spec in stairs_specs():
            shape = highest_tableau(spec).shape
            dominants = [
                t
                for t in enumerate_semistandard(spec.n, shape)
                if is_dominant(monomial_of_tableau(t))
            ]
            assert len(dominants) == 1
            assert dominants[0] == highest_tableau(spec)


class TestColumnGaps:
    def test_gap_free(self):
        assert column_gaps((1, 2, 3)) == []

    def test_interior_gap(self):
        assert column_gaps((1, 3)) == [(2, 1)]

    def test_first_row_gap(self):
        assert column_gaps((2,)) == [(1, 1)]

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidInput):
            column_gaps((2, 2))


class TestGapContributions:
    def test_gap_factors_survive_in_stairs_tableaux(self):
        """Each column gap injects one inverted and (above row one) one plain
        Y-factor that no other column cancels."""
        checked = 0
        for spec in stairs_specs(n_max=3, total_max=2):
            shape = highest_tableau(spec).shape
            for t in enumerate_semistandard(spec.n, shape):
                mono = monomial_of_tableau(t)
                for j, ((k, s), col) in enumerate(zip(shape, t.cols), start=1):
                    for row, _size in column_gaps(col):
                        c = col[row - 1]
                        supp = s + 2 * (k - row)
                        if c - 1 >= 1:
                            assert mono.exponent(c - 1, supp + c) < 0
                        if row >= 2:
                            prev = col[row - 2]
                            prev_supp = s + 2 * (k - row + 1)
                            assert mono.exponent(prev, prev_supp + prev - 1) > 0
                        if row == k and c <= spec.n:
                            assert mono.exponent(c, s + c - 1) > 0
                        checked += 1
        assert checked > 100


class TestRaiseBox:
    def test_rank_one_example(self):
        t = Tableau(1, Shape(((1, -2),)), ((1,),))
        t2, path = raise_box(t, 1, 1, 1)
        assert t2.cols == ((2,),)
        assert path == Y(1, 1, -2) * Y(1, 1, 0)
        assert monomial_of_tableau(t2) == monomial_of_tableau(t) * path.inverse()

    def test_raise_to_top_node(self):
        t = Tableau(2, Shape(((1, 0),)), ((1,),))
        t2, path = raise_box(t, 1, 1, 2)
        assert t2.cols == ((3,),)
        assert monomial_of_tableau(t2) == monomial_of_tableau(t) * path.inverse()

    def test_target_below_content_rejected(self):
        t = Tableau(2, Shape(((1, 0),)), ((2,),))
        with pytest.raises(InvalidInput):
            raise_box(t, 1, 1, 1)

    def test_content_at_maximum_rejected(self):
        t = Tableau(1, Shape(((1, 0),)), ((2,),))
        with pytest.raises(InvalidInput):
            raise_box(t, 1, 1, 1)

    def test_exactness_exhaustive_on_small_stabs(self):
        for spec in stairs_specs(n_max=3, total_max=2):
            shape = highest_tableau(spec).shape
            for t in enumerate_semistandard(spec.n, shape):
                base = monomial_of_tableau(t)
                for col in range(1, len(t.cols) + 1):
                    for row in range(1, len(t.cols[col - 1]) + 1):
                        content = t.cols[col - 1][row - 1]
                        if content > spec.n:
                            continue
                        for target in range(content, spec.n + 1):
                            t2, path = raise_box(t, col, row, target)
                            assert monomial_of_tableau(t2) == base * path.inverse()
