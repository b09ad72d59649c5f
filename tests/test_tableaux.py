import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_weights, column_gaps, monomial_of_tableau_reference, raise_box
from qcharlab import (
    InvalidInput,
    LMonomial,
    MinAffSpec,
    Shape,
    Tableau,
    enumerate_semistandard,
    highest_tableau,
    is_dominant,
    is_semistandard,
    monomial_of_box,
    monomial_of_tableau,
    qchar,
    semistandard_fillings,
    y_string,
)


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


class TestMonomialMemo:
    def test_hand_built_tableau_matches_reference(self):
        t = Tableau(3, Shape(((3, 2), (2, 0), (1, -2))), ((1, 3, 4), (2, 4), (3,)))
        assert t._monomial is None
        assert monomial_of_tableau(t) == monomial_of_tableau_reference(t)
        assert monomial_of_tableau(t) is monomial_of_tableau(t)

    def test_raised_tableau_matches_reference(self):
        t = highest_tableau(MinAffSpec(3, (1, 1, 1), "dec", 2))
        t2, path = raise_box(t, 2, 1, 3)
        assert monomial_of_tableau(t2) == monomial_of_tableau_reference(t2)
        assert monomial_of_tableau(t2) == monomial_of_tableau(t) * path.inverse()

    def test_memo_is_invisible(self):
        spec = MinAffSpec(2, (1, 1), "inc", -1)
        fresh = highest_tableau(spec)
        memo = highest_tableau(spec)
        monomial_of_tableau(memo)
        assert memo._monomial is not None and fresh._monomial is None
        assert memo == fresh and hash(memo) == hash(fresh)
        assert repr(memo) == repr(fresh) and "_monomial" not in repr(memo)
        assert pickle.loads(pickle.dumps(memo)) == fresh


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
        assert t._monomial is not None
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
