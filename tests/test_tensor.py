import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import groupby
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_weights,
    anchor_join_reference,
    characters,
    dominant_join_reference,
    expected_dominants_reference,
    kr_json_reference,
    lmonomials,
    minaff_kr_pairs,
    monomial_json_reference,
    product_qchar_reference,
    report_json_reference,
    resonance_reference,
    spec_json_reference,
    sweep_points,
    transported_reference,
)
from qcharlab import (
    CaseTag,
    InvalidInput,
    InvariantViolation,
    KRSpec,
    LMonomial,
    MinAffSpec,
    QChar,
    TheoremViolation,
    classify_normal,
    classify_variant,
    dominant_spectrum,
    drinfeld_of_spec,
    expand_lroot_path,
    expected_dominants,
    family_S,
    family_T,
    held_qchar,
    highest_tableau,
    kr_qchar_by_partitions,
    product_qchar,
    qchar,
    qchar_kr,
    recognize_kr,
    recognize_minaff,
    resonance_window,
    restrict,
    transform,
    y_string,
)
from qcharlab import cli, minaff, sweep, tensor
from qcharlab.lweight import monomial_sort_key
from qcharlab.minaff import _seg
from qcharlab.tensor import VARIANTS, DominantSpectrum, Resonance, _resonance


def Y(n, i, r, e=1):
    return LMonomial.y(n, i, r, e)


def normal_grid(n_max=2, total_max=2, k_max=2, pad=2):
    for n in range(1, n_max + 1):
        for lam in all_weights(n, total_max):
            spec = MinAffSpec(n, lam, "inc")
            for k in range(1, k_max + 1):
                for r in resonance_window(spec, n, k, pad):
                    yield spec, KRSpec(n, n, r, k)


def assert_same_character(prod: QChar, reference: QChar):
    assert prod == reference
    assert prod.terms() == reference.terms()
    assert len(prod) == len(reference)
    assert prod.dimension == reference.dimension
    assert prod.dominant_terms() == reference.dominant_terms()


class TestProductQChar:
    def test_rank_one_two_by_two(self):
        prod = product_qchar(
            qchar(MinAffSpec(1, (1,), "inc")),
            qchar(MinAffSpec(1, (1,), "inc", -2)),
        )
        assert prod.dimension == 4
        dominants = {m for m, _ in prod.dominant_terms()}
        assert dominants == {Y(1, 1, 0) * Y(1, 1, -2), LMonomial.identity(1)}

    def test_identity_character_is_neutral(self):
        one = QChar(2, {LMonomial.identity(2): 1})
        for qc in (qchar(MinAffSpec(2, (1, 0), "inc")), qchar_kr(KRSpec(2, 1, 4, 2)), one):
            assert_same_character(product_qchar(qc, one), qc)
            assert_same_character(product_qchar(one, qc), qc)

    def test_dimension_multiplies(self):
        a = qchar(MinAffSpec(2, (1, 0), "inc"))
        b = qchar(MinAffSpec(2, (0, 1), "inc", 3))
        assert product_qchar(a, b).dimension == 9

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInput):
            product_qchar(
                qchar(MinAffSpec(1, (1,), "inc")), qchar(MinAffSpec(2, (1, 0), "inc"))
            )
        prod = product_qchar(qchar(MinAffSpec(1, (1,), "inc")), qchar_kr(KRSpec(1, 1, 0, 1)))
        with pytest.raises(InvalidInput):
            product_qchar(prod, qchar(MinAffSpec(2, (1, 0), "inc")))


class TestPackedProduct:
    """The product, held as its two factors, against the monomial-by-monomial reference."""

    @settings(max_examples=60, deadline=None)
    @given(minaff_kr_pairs())
    def test_matches_reference(self, pair):
        spec, kr = pair
        a, b = qchar(spec), qchar_kr(kr)
        assert_same_character(product_qchar(a, b), product_qchar_reference(a, b))
        assert_same_character(product_qchar(b, a), product_qchar_reference(b, a))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_join_matches_reference(self, data):
        # random terms with exponents up to +-3 and multiplicities up to 3,
        # the identity character, and products as factors
        n = data.draw(st.integers(1, 3))

        def factor():
            kind = data.draw(st.sampled_from(("terms", "identity", "product")))
            if kind == "identity":
                return QChar(n, {LMonomial.identity(n): 1})
            if kind == "product":
                return product_qchar(data.draw(characters(n)), data.draw(characters(n)))
            return data.draw(characters(n))

        a, b = factor(), factor()
        for x, y in ((a, b), (b, a)):
            assert product_qchar(x, y).dominant_terms() == product_qchar_reference(x, y).dominant_terms()

    def test_convolution_builds_no_monomial(self, monkeypatch):
        # the full product multiplies the factors' exponent tuples
        a, b = qchar(MinAffSpec(2, (1, 1), "dec")), qchar_kr(KRSpec(2, 2, 1, 2))
        expected = len(product_qchar_reference(a, b))
        made = []
        make, init = LMonomial._make, LMonomial.__init__
        monkeypatch.setattr(LMonomial, "_make", staticmethod(lambda n, exps: made.append(1) or make(n, exps)))
        monkeypatch.setattr(LMonomial, "__init__", lambda m, *args: made.append(1) or init(m, *args))
        assert len(product_qchar(a, b)) == expected
        assert made == []

    def test_packed_times_plain(self):
        # a product as one factor of another product
        a = qchar(MinAffSpec(2, (1, 1), "dec"))
        b = qchar_kr(KRSpec(2, 2, 1, 2))
        c = qchar(MinAffSpec(2, (0, 1), "inc", 3))
        ab = product_qchar(a, b)
        ab_ref = product_qchar_reference(a, b)
        assert_same_character(product_qchar(ab, c), product_qchar_reference(ab_ref, c))
        assert_same_character(product_qchar(c, ab), product_qchar_reference(c, ab_ref))

    def test_factor_reused_across_layouts(self):
        # one factor's index serves partners of other exponents and rows
        a = qchar_kr(KRSpec(2, 1, 0, 2))
        for other in (
            QChar(2, {Y(2, 1, -6, 5): 1, Y(2, 2, 0): 2}),
            QChar(2, {Y(2, 2, 9): 2}),
            qchar_kr(KRSpec(2, 2, 3, 3)),
        ):
            assert_same_character(product_qchar(a, other), product_qchar_reference(a, other))
            assert_same_character(product_qchar(other, a), product_qchar_reference(other, a))

    def test_dominant_terms_leave_the_product_unformed(self):
        # uncached characters, so that no other test has indexed them; the
        # join indexes the smaller factor only, in either order
        for first_is_larger in (True, False):
            big = qchar.__wrapped__(MinAffSpec(3, (1, 0, 2), "inc", 7))
            small = qchar.__wrapped__(KRSpec(3, 3, 4, 2).as_minaff())
            assert len(big) > len(small)
            assert big._index is None and small._index is None  # qchar builds no index
            a, b = (big, small) if first_is_larger else (small, big)
            prod = product_qchar(a, b)
            assert prod.dominant_terms() == product_qchar_reference(a, b).dominant_terms()
            assert prod._terms is None
            assert small._index is not None and big._index is None

    def test_a_held_factor_is_walked_unsearched(self):
        """A held affinization is searched only for the terms its partner can
        cover, and those are walked: the product's dominant terms are the
        full product's at both extreme nodes, in either order, and the held
        factor is left unsearched and unindexed.  Of two held factors,
        neither is searched whole, and both are left unsearched."""
        for spec in (MinAffSpec(3, (1, 0, 2), "inc", 7), MinAffSpec(3, (2, 1, 0), "dec", -1),
                     MinAffSpec(2, (1, 2), "inc")):
            full = qchar(spec)
            for node in sorted({1, spec.n}):
                for r in resonance_window(spec, node, 2, 2):
                    kr = KRSpec(spec.n, node, r, 2)
                    partner = qchar_kr(kr)
                    expected = product_qchar_reference(full, partner).dominant_terms()
                    for held_first in (True, False):
                        held = held_qchar(spec)
                        prod = product_qchar(held, partner) if held_first else product_qchar(partner, held)
                        assert prod.dominant_terms() == expected
                        assert held._terms is None and held._index is None and prod._terms is None
                    held, other = held_qchar(spec), held_qchar(kr.as_minaff())
                    assert product_qchar(held, other).dominant_terms() == expected
                    assert held._unsearched() and other._unsearched()
                    assert held._index is None and other._index is None

    @settings(max_examples=150, deadline=None)
    @given(sweep_points(), st.data())
    def test_two_held_factors_are_searched_only_for_what_meets(self, point, data):
        """Of two held factors, the second is searched under the first's raise
        bound and the first under the terms found: in both orders, with
        shifts, the dominant terms are the reference product's, every search
        runs under a bound, and both factors are left unsearched."""
        spec, kr = point
        n = spec.n
        lam = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
        partner = data.draw(st.sampled_from((
            kr.as_minaff(),
            MinAffSpec(n, tuple(lam), data.draw(st.sampled_from(("inc", "dec"))), data.draw(st.integers(-6, 6))),
        )))
        bounds, shapes = [], []
        searched, shape_of = minaff._searched_terms, minaff.snake_shape

        def recorded(omega, bound=None, shape=None):
            bounds.append(bound)
            return searched(omega, bound, shape)

        def counted(m):
            shapes.append(m)
            return shape_of(m)

        for a, b in ((spec, partner), (partner, spec)):
            expected = product_qchar_reference(qchar(a), qchar(b)).dominant_terms()
            x, y = held_qchar(a), held_qchar(b)
            with patch.object(minaff, "_searched_terms", recorded), patch.object(minaff, "snake_shape", counted):
                assert product_qchar(x, y).dominant_terms() == expected
            assert x._unsearched() and y._unsearched()
        assert len(bounds) == 4 and None not in bounds
        # each factor's shape is read off its Drinfeld polynomial once per product
        omegas = [drinfeld_of_spec(spec), drinfeld_of_spec(partner)]
        assert shapes == omegas + omegas[::-1]

    def test_factors_of_equal_size(self):
        a, b = qchar_kr(KRSpec(2, 1, 0, 2)), qchar_kr(KRSpec(2, 2, -3, 2))
        assert len(a) == len(b)
        for x, y in ((a, b), (b, a)):
            dominants = product_qchar(x, y).dominant_terms()
            assert dominants == product_qchar_reference(x, y).dominant_terms()
            assert len(dominants) == 3

    def test_smaller_factor_first(self):
        a, b = qchar_kr(KRSpec(3, 3, -3, 1)), qchar(MinAffSpec(3, (1, 1, 0), "inc"))
        assert len(a) < len(b)
        dominants = product_qchar(a, b).dominant_terms()
        assert dominants == product_qchar_reference(a, b).dominant_terms()
        assert len(dominants) == 3

    def test_dominant_multiplicities_add_up(self):
        # Y[1,0] Y[1,2] comes from two pairs: 1 * 3 + 2 * 1
        q1 = QChar(1, {Y(1, 1, 0): 1, Y(1, 1, 2): 2})
        q2 = QChar(1, {Y(1, 1, 2): 3, Y(1, 1, 0): 1, Y(1, 1, 4, -1): 1})
        for x, y in ((q1, q2), (q2, q1)):
            dominants = product_qchar(x, y).dominant_terms()
            assert dominants == product_qchar_reference(x, y).dominant_terms()
            assert (Y(1, 1, 0) * Y(1, 1, 2), 5) in dominants

    def test_large_exponents(self):
        q1 = QChar(2, {Y(2, 1, 0, 1000) * Y(2, 2, 1, -1000): 1, Y(2, 1, 0, -999): 3})
        q2 = QChar(2, {Y(2, 1, 0, -1000) * Y(2, 2, 1, 1000): 2, Y(2, 1, 0, 1000) * Y(2, 1, 5, 7): 1})
        prod = product_qchar(q1, q2)
        assert_same_character(prod, product_qchar_reference(q1, q2))
        assert prod.dominant_terms() == [
            (Y(2, 1, 0) * Y(2, 1, 5, 7), 3),
            (LMonomial.identity(2), 2),
        ]


class TestDominantSpectrum:
    def test_resonant_rank_one_product(self):
        prod = product_qchar(
            qchar(MinAffSpec(1, (1,), "inc")), qchar_kr(KRSpec(1, 1, 0, 2))
        )
        spec = dominant_spectrum(prod)
        assert spec.totally_ordered
        assert [m for m, _ in spec.entries] == [
            Y(1, 1, 0, 2) * Y(1, 1, 2),
            Y(1, 1, 0),
        ]

    def test_three_tensor_threebar(self):
        prod = product_qchar(
            qchar(MinAffSpec(2, (1, 0), "inc")), qchar_kr(KRSpec(2, 2, 3, 1))
        )
        spec = dominant_spectrum(prod)
        assert [m for m, _ in spec.entries] == [
            Y(2, 1, 0) * Y(2, 2, 3),
            LMonomial.identity(2),
        ]

    def test_single_affinization_is_its_top_term(self):
        ma = MinAffSpec(2, (1, 1), "dec")
        spec = dominant_spectrum(qchar(ma))
        assert spec.entries == ((drinfeld_of_spec(ma), 1),)

    def test_incomparable_pair_flagged(self):
        qc = QChar(2, {Y(2, 1, 0): 1, Y(2, 2, 0): 1})
        spec = dominant_spectrum(qc)
        assert len(spec.entries) == 2 and not spec.totally_ordered


class TestFamilyS:
    def test_sl3_single_column_raise(self):
        spec = MinAffSpec(2, (1, 0), "inc")
        t, mono = family_S(spec, 1, 1, 3)
        assert t.cols == ((3,),)
        assert mono == Y(2, 2, 3, -1)

    def test_conventions_return_highest(self):
        spec = MinAffSpec(2, (1, 1), "inc")
        omega = drinfeld_of_spec(spec)
        for c, f, p in ((2, 1, 3), (3, 3, 3), (1, 2, 0)):
            t, mono = family_S(spec, c, f, p)
            assert mono == omega

    def test_f_clamped_to_column_count(self):
        spec = MinAffSpec(2, (1, 1), "inc")
        assert family_S(spec, 1, 9, 3)[1] == family_S(spec, 1, 2, 3)[1]

    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    def test_arguments_must_be_ints(self, value):
        spec = MinAffSpec(2, (1, 1), "inc")
        for args in ((value, 2, 3), (1, value, 3), (1, 2, value)):
            with pytest.raises(InvalidInput, match="must be an integer"):
                family_S(spec, *args)

    def test_shallow_p_rejected(self):
        spec = MinAffSpec(2, (1, 1), "inc")
        with pytest.raises(InvalidInput):
            family_S(spec, 1, 1, 2)  # column 1 has length 2 already

    def test_restriction_to_last_node_closed_form(self):
        """Dropping all but the last node, the raised family collapses to an
        explicit pair of strings."""
        for n in (2, 3):
            for lam in all_weights(n, 3):
                spec = MinAffSpec(n, lam, "inc")
                anchors = spec.anchors()
                i0 = spec.i0
                lengths = [k for k, _ in highest_tableau(spec).shape]
                for f in range(1, spec.total + 1):
                    pi = restrict(family_S(spec, 1, f, n + 1)[1], {n})
                    lf = lengths[f - 1]
                    if lf < n:
                        anchor = anchors[i0] + 2 * (spec.lam[i0 - 1] - f + 1) + n - i0
                        expected = y_string(1, 1, anchor, f).inverse()
                    else:
                        expected = y_string(1, 1, anchors[n], spec.lam[n - 1] - f) * y_string(
                            1, 1, anchors[n] + 2 * (spec.lam[n - 1] - f + 1), f
                        ).inverse()
                    assert pi == expected


class TestFamilyT:
    def test_rank_one_gap(self):
        kr = KRSpec(1, 1, -2, 1)
        t, mono = family_T(kr, 1, 1)
        assert mono == Y(1, 1, 0, -1)
        assert mono == kr.drinfeld() * expand_lroot_path(1, 1, 1, -2).inverse()

    def test_no_gaps_returns_top(self):
        kr = KRSpec(2, 2, 0, 2)
        assert family_T(kr, 0, 1)[1] == kr.drinfeld()
        assert family_T(kr, 2, 3)[1] == kr.drinfeld()

    def test_m_clamps(self):
        kr = KRSpec(2, 2, 0, 2)
        assert family_T(kr, 5, 1)[1] == family_T(kr, 2, 1)[1]

    def test_partition_correspondence(self):
        for n, r, k in ((2, 0, 2), (3, -1, 3)):
            kr = KRSpec(n, n, r, k)
            terms = set(kr_qchar_by_partitions(n, r, k).terms())
            for p in range(1, n + 1):
                for m in range(k + 1):
                    mono = family_T(kr, m, p)[1]
                    assert mono in terms
                    explicit = kr.drinfeld()
                    for l in range(1, m + 1):
                        explicit = explicit * expand_lroot_path(
                            n, n, p, r + 2 * (k - l)
                        ).inverse()
                    assert mono == explicit

    def test_interior_node_rejected(self):
        with pytest.raises(InvalidInput):
            family_T(KRSpec(2, 1, 0, 1), 1, 1)

    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    def test_arguments_must_be_ints(self, value):
        kr = KRSpec(2, 2, 0, 2)
        for args in ((value, 2), (1, value)):
            with pytest.raises(InvalidInput, match="must be an integer"):
                family_T(kr, *args)


class TestClassifyWorkedExamples:
    def test_sl2_case_i(self):
        rep = classify_normal(MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, -2, 1))
        assert rep.tag.kind == "case_i" and (rep.tag.p, rep.tag.kprime) == (1, 1)
        assert rep.lambda_prime == LMonomial.identity(1)
        assert [m for m, _ in rep.D] == [Y(1, 1, 0) * Y(1, 1, -2), LMonomial.identity(1)]
        # condition (i): the affinization-first order is highest-loop-weight
        assert rep.socle_head["V"] == (LMonomial.identity(1), rep.lam)
        assert rep.socle_head["Vprime"] == (rep.lam, LMonomial.identity(1))

    def test_sl3_case_ii(self):
        rep = classify_normal(MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 3, 1))
        assert rep.tag.kind == "case_ii" and (rep.tag.p, rep.tag.kprime) == (1, 1)
        assert rep.lambda_prime == LMonomial.identity(2)
        assert rep.socle_head["V"] == (rep.lam, LMonomial.identity(2))

    def test_sl3_irreducible(self):
        rep = classify_normal(MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 0, 1))
        assert rep.tag.kind == "irreducible" and len(rep.D) == 1
        assert rep.lambda_prime is None
        assert rep.socle_head["V"] == (rep.lam, rep.lam)

    def test_resonance_beyond_weight_total_is_irreducible(self):
        # |D| = 2 but every dominant term already lies in the top factor
        rep = classify_normal(MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, 0, 2))
        assert rep.tag.kind == "irreducible"
        assert rep.resonance == Resonance("ii", 2, None)
        assert [m for m, _ in rep.D] == [Y(1, 1, 0, 2) * Y(1, 1, 2), Y(1, 1, 0)]

    def test_resonance_beyond_kr_length_is_irreducible(self):
        rep = classify_normal(MinAffSpec(1, (3,), "inc"), KRSpec(1, 1, -2, 1))
        assert rep.tag.kind == "irreducible"
        assert rep.resonance == Resonance("i", 2, 1)
        assert len(rep.D) == 2

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            classify_normal(MinAffSpec(2, (1, 1), "dec"), KRSpec(2, 2, 0, 1))
        with pytest.raises(InvalidInput):
            classify_normal(MinAffSpec(2, (1, 1), "inc"), KRSpec(2, 1, 0, 1))
        with pytest.raises(InvalidInput):
            classify_normal(MinAffSpec(2, (1, 1), "inc"), KRSpec(3, 3, 0, 1))


class TestExpectedDominants:
    def test_no_resonance(self):
        spec, kr = MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 0, 1)
        assert expected_dominants(spec, kr, None) == [
            drinfeld_of_spec(spec) * kr.drinfeld()
        ]

    def test_kind_ii_clamps_past_weight_total(self):
        spec, kr = MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, 0, 2)
        got = expected_dominants(spec, kr, Resonance("ii", 2, None))
        assert got == [Y(1, 1, 0, 2) * Y(1, 1, 2), Y(1, 1, 0)]

    def test_kind_i_two_elements(self):
        spec, kr = MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, -2, 1)
        got = expected_dominants(spec, kr, Resonance("i", 1, 1))
        assert got == [Y(1, 1, 0) * Y(1, 1, -2), LMonomial.identity(1)]


class TestSweepInvariants:
    def test_chain_multiplicity_and_resonance_dichotomy(self):
        for spec, kr in normal_grid():
            rep = classify_normal(spec, kr)
            assert rep.totally_ordered
            assert all(c == 1 for _, c in rep.D)
            if rep.resonance is None:
                assert len(rep.D) == 1
            else:
                assert len(rep.D) >= 2

    def test_case_ii_extra_factor_is_minimum(self):
        seen = 0
        for spec, kr in normal_grid():
            rep = classify_normal(spec, kr)
            if rep.tag.kind == "case_ii":
                assert rep.lambda_prime == rep.D[-1][0]
                seen += 1
        assert seen > 5

    def test_consecutive_elements_differ_by_one_root_path(self):
        """Adjacent dominant terms divide to a single expanded loop-root path."""
        seen = 0
        for spec, kr in normal_grid():
            rep = classify_normal(spec, kr)
            if rep.resonance is None:
                continue
            steps = _chain_steps(spec, kr, rep.resonance)
            D = [m for m, _ in rep.D]
            assert len(steps) == len(D) - 1
            for j, step in enumerate(steps):
                assert D[j] / D[j + 1] == step
                seen += 1
        assert seen > 20

    def test_remark_recognitions(self):
        """The resonance conditions say a rebuilt two-string product is again
        a minimal affinization (decreasing for (i), increasing for (ii))."""
        seen_i = seen_ii = 0
        for spec, kr in normal_grid():
            rep = classify_normal(spec, kr)
            anchors = spec.anchors()
            n, r, k = spec.n, kr.r, kr.k
            if rep.tag.kind == "case_i":
                p, kp = rep.tag.p, rep.tag.kprime
                probe = y_string(n, p, anchors[p], spec.lam[p - 1]) * y_string(
                    n, n, r, k - kp + 1
                )
                assert recognize_minaff(probe, "dec") is not None
                seen_i += 1
            elif rep.tag.kind == "case_ii":
                p, kp = rep.tag.p, rep.tag.kprime
                probe = y_string(
                    n, p, anchors[p], _seg(spec.lam, p, n) - kp + 1
                ) * y_string(n, n, r, k)
                assert recognize_minaff(probe, "inc") is not None
                seen_ii += 1
        assert seen_i > 3 and seen_ii > 3


def _chain_steps(spec, kr, res):
    """Predicted single-root steps between consecutive dominant terms."""
    n = spec.n
    anchors = spec.anchors()
    lengths = [k for k, _ in highest_tableau(spec).shape]
    steps = []
    if res.kind == "ii":
        for f in range(1, min(res.kprime, spec.total) + 1):
            lf = lengths[f - 1]
            df = f - _seg(spec.lam, lf + 1, n)
            steps.append(
                expand_lroot_path(
                    n, lf, n, anchors[lf] + 2 * (spec.lam[lf - 1] - df)
                )
            )
        return steps
    p, kp = res.p, res.kprime
    c = 1 + _seg(spec.lam, p, n)
    m_max = min(kr.k, _seg(spec.lam, 1, p - 1) + kp)
    prev = None
    for m in range(m_max + 1):
        for eps in (1, 0):
            fc = min(c + m - kp - eps, spec.total)
            key = (m, fc if fc >= c else None)
            if prev is not None and key != prev:
                if key[0] != prev[0]:
                    steps.append(expand_lroot_path(n, n, p, kr.r + 2 * (kr.k - m)))
                else:
                    lf = lengths[key[1] - 1]
                    df = key[1] - _seg(spec.lam, lf + 1, n)
                    steps.append(
                        expand_lroot_path(
                            n, lf, p - 1, anchors[lf] + 2 * (spec.lam[lf - 1] - df)
                        )
                    )
            prev = key
    return steps


class TestVariants:
    def test_dual_pair_example(self):
        rep = classify_variant(MinAffSpec(2, (0, 1), "dec"), KRSpec(2, 1, 3, 1))
        assert rep.variant == "a"
        assert rep.tag.reducible and rep.lambda_prime == LMonomial.identity(2)

    def test_rank_one_collapse_agrees_with_normal(self):
        for r, k in ((-2, 1), (0, 2), (2, 1), (-4, 2)):
            dec = classify_variant(MinAffSpec(1, (1,), "dec"), KRSpec(1, 1, r, k))
            inc = classify_normal(MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, r, k))
            assert dec.tag.reducible == inc.tag.reducible
            assert dec.lambda_prime == inc.lambda_prime
            assert [m for m, _ in dec.D] == [m for m, _ in inc.D]
            assert dec.socle_head == inc.socle_head

    def test_reducibility_equivalence_small_grid(self):
        for variant in ("a", "b", "c"):
            row = VARIANTS[variant]
            for n in (2,):
                for lam in all_weights(n, 2):
                    spec = MinAffSpec(n, lam, row.direction)
                    node = 1 if row.first else n
                    for k in (1, 2):
                        for r in resonance_window(spec, node, k, 2):
                            rep = classify_variant(spec, KRSpec(n, node, r, k))
                            assert rep.variant == variant
                            if rep.tag.reducible:
                                assert rep.lambda_prime is not None
                                assert rep.lambda_prime in [m for m, _ in rep.D]

    def test_product_characters_transport_termwise(self):
        """The variant product character is the image of the transported
        normal-form product under the branch's character-level map."""
        points = [
            ("a", MinAffSpec(2, (0, 1), "dec"), KRSpec(2, 1, 3, 1)),
            ("b", MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 1, -2, 1)),
            ("c", MinAffSpec(2, (1, 1), "dec"), KRSpec(2, 2, 1, 2)),
            ("c", MinAffSpec(3, (0, 1, 1), "dec"), KRSpec(3, 3, 0, 2)),
        ]
        for variant, spec, kr in points:
            inv = {"a": "star_inv", "b": "kappa", "c": "minus"}[variant]
            own = product_qchar(qchar(spec), qchar_kr(kr))
            spec_t = recognize_minaff(transform(drinfeld_of_spec(spec), inv), "inc")
            kr_t = recognize_kr(transform(kr.drinfeld(), inv))
            tilde = product_qchar(qchar(spec_t), qchar_kr(kr_t))
            if variant == "a":
                mapped = {transform(m, "star"): c for m, c in tilde.terms().items()}
            elif variant == "b":
                mapped = {
                    transform(m, "minus").inverse(): c for m, c in tilde.terms().items()
                }
            else:
                mapped = {
                    transform(transform(m, "star"), "minus").inverse(): c
                    for m, c in tilde.terms().items()
                }
            assert mapped == own.terms()

    def test_known_nonchain_point(self):
        # genuine non-chain dominant spectrum away from normal form
        rep = classify_variant(MinAffSpec(3, (0, 1, 1), "inc"), KRSpec(3, 1, 0, 3))
        assert rep.variant == "b"
        assert not rep.totally_ordered and len(rep.D) == 4
        assert rep.tag.kind == "case_i"
        assert rep.lambda_prime in [m for m, _ in rep.D]
        assert all(c == 1 for _, c in rep.D)

    def test_direct_conditions_match_corollary_statement(self):
        # branch (a), condition (ii): r_{i1} + 2 lam_{i1} + i1 + 1 = r + 2k'
        spec = MinAffSpec(2, (0, 1), "dec")
        assert _resonance(VARIANTS["a"], spec, KRSpec(2, 1, 3, 1)) == Resonance("ii", 1, 2)
        assert _resonance(VARIANTS["a"], spec, KRSpec(2, 1, 0, 1)) is None


@st.composite
def resonance_groups(draw):
    """``(row name, spec, node, k)``: rank 1..5, |lam| <= 4, shift -3..3, k <= 4;
    the row is named from direction and node here, not by ``_variant_of``."""
    n = draw(st.integers(1, 5))
    lam = draw(
        st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(
            lambda v: 0 < sum(v) <= 4
        )
    )
    direction = draw(st.sampled_from(("inc", "dec")))
    spec = MinAffSpec(n, tuple(lam), direction, draw(st.integers(-3, 3)))
    node = draw(st.sampled_from((1, n)))
    k = draw(st.integers(1, 4))
    if node == n:
        name = "normal" if direction == "inc" else "c"
    else:
        name = "a" if direction == "dec" else "b"
    return name, spec, node, k


class TestVariantTable:
    def test_one_row_per_direction_and_extreme_node(self):
        flags = sorted((v.direction, v.first) for v in VARIANTS.values())
        assert flags == [("dec", False), ("dec", True), ("inc", False), ("inc", True)]
        assert all(name == v.name for name, v in VARIANTS.items())

    @pytest.mark.parametrize(
        "spec, kr, name",
        [
            (MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 3, 1), "normal"),
            (MinAffSpec(2, (0, 1), "dec"), KRSpec(2, 1, 3, 1), "a"),
            (MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 1, -2, 1), "b"),
            (MinAffSpec(2, (1, 1), "dec"), KRSpec(2, 2, 1, 2), "c"),
            # at n = 1 node 1 is also the last node, and last wins
            (MinAffSpec(1, (1,), "dec"), KRSpec(1, 1, 0, 1), "c"),
            (MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, 0, 1), "normal"),
        ],
    )
    def test_classify_names_the_row(self, spec, kr, name):
        row = VARIANTS[name]
        assert classify_variant(spec, kr).variant == name
        assert (row.direction, row.first) == (spec.direction, kr.node != spec.n)

    @pytest.mark.parametrize(
        "spec, kr, name",
        [
            (MinAffSpec(3, (1, 1, 0), "inc", 1), KRSpec(3, 3, 2, 2), "normal"),
            (MinAffSpec(3, (1, 1, 0), "dec", 1), KRSpec(3, 1, 0, 2), "a"),
            (MinAffSpec(3, (1, 1, 0), "inc", 1), KRSpec(3, 1, -4, 2), "b"),
            (MinAffSpec(3, (1, 1, 0), "dec", 1), KRSpec(3, 3, -2, 2), "c"),
        ],
    )
    def test_classify_never_forms_a_product(self, spec, kr, name, monkeypatch):
        # reducible points, so the transported extra factor is checked too
        def refuse(q1, q2):
            raise AssertionError("a product character was convolved")

        monkeypatch.setattr(minaff, "_convolve", refuse)
        rep = classify_variant(spec, kr)
        assert (rep.variant, rep.tag.reducible) == (name, True)
        with pytest.raises(AssertionError):
            len(product_qchar(qchar(spec), qchar_kr(kr)))

    @settings(max_examples=400, deadline=None)
    @given(resonance_groups(), st.data())
    def test_resonance_matches_the_explicit_equations(self, group, data):
        name, spec, node, k = group
        window = resonance_window(spec, node, k, 0)
        r = data.draw(st.integers(window.start - 6, window.stop + 5))
        kr = KRSpec(spec.n, node, r, k)
        res = _resonance(VARIANTS[name], spec, kr)
        expected = resonance_reference(name, spec, kr)
        assert (None if res is None else (res.kind, res.kprime, res.p)) == expected
        if res is not None:
            assert r in window


class TestEntryPointArguments:
    """Every classifier entry point rejects a non-spec argument, a rank
    mismatch and a non-bool ``whole_group`` as invalid input; the values
    are hashable, so a cached entry point reaches its own check."""

    SPEC, KR = MinAffSpec(2, (1, 1), "inc"), KRSpec(2, 2, 0, 1)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s, k: classify_variant(None, k), "a spec must be a MinAffSpec, got None"),
            (lambda s, k: classify_variant(s, "W"), "a KR module must be a KRSpec, got 'W'"),
            (lambda s, k: classify_normal(s, (2, 2, 3, 1)), r"a KR module must be a KRSpec, got \(2, 2, 3, 1\)"),
            (lambda s, k: classify_normal(k, s), "a spec must be a MinAffSpec, got KRSpec"),
            (lambda s, k: classify_variant(s, KRSpec(3, 3, 0, 1)), "rank mismatch between spec and KR module"),
            (lambda s, k: classify_normal(s, KRSpec(3, 3, 0, 1)), "rank mismatch between spec and KR module"),
            (lambda s, k: classify_variant(s, k, "no"), "whole_group must be a bool, got 'no'"),
            (lambda s, k: classify_normal(s, k, 1), "whole_group must be a bool, got 1"),
            (lambda s, k: resonance_window("x", 2, 1), "a spec must be a MinAffSpec, got 'x'"),
            (lambda s, k: sweep.sweep_group(s, None), "a KR module must be a KRSpec, got None"),
            (lambda s, k: sweep.sweep_line(None, k), "a spec must be a MinAffSpec, got None"),
        ],
        ids=[
            "variant_spec", "variant_kr", "normal_kr", "normal_swapped", "variant_rank", "normal_rank",
            "variant_whole_group", "normal_whole_group", "window_spec", "group_kr", "line_spec",
        ],
    )
    def test_rejected_as_invalid_input(self, call, message):
        with pytest.raises(InvalidInput, match=message):
            call(self.SPEC, self.KR)

    def test_a_rejected_call_caches_no_report(self):
        classify_normal(self.SPEC, self.KR)
        size = classify_normal.cache_info().currsize
        for bad in ("no", 1, None):
            with pytest.raises(InvalidInput, match="whole_group must be a bool"):
                classify_normal(self.SPEC, self.KR, bad)
        assert classify_normal.cache_info().currsize == size


class TestResonanceWindow:
    @pytest.mark.parametrize(
        "node, k",
        [(2, 1), (0, 1), (4, 1), (1, 0), (3, -2), (1.0, 1), (True, 1), (3, 1.0), (3, True), (3, "1")],
        ids=repr,
    )
    def test_rejects_what_krspec_rejects(self, node, k):
        spec = MinAffSpec(3, (1, 0, 1))
        with pytest.raises(InvalidInput) as excinfo:
            resonance_window(spec, node, k)
        with pytest.raises(InvalidInput) as expected:
            KRSpec(3, node, 0, k)
        assert str(excinfo.value) == str(expected.value)

    @pytest.mark.parametrize("pad", [0.5, 2.0, True, "2", None], ids=repr)
    def test_pad_must_be_an_int(self, pad):
        with pytest.raises(InvalidInput, match="pad must be an integer"):
            resonance_window(MinAffSpec(3, (1, 0, 1)), 3, 1, pad)

    def test_negative_pad_rejected(self):
        with pytest.raises(InvalidInput, match="pad must be nonnegative"):
            resonance_window(MinAffSpec(3, (1, 0, 1)), 3, 1, -1)

    @settings(max_examples=400, deadline=None)
    @given(resonance_groups(), st.integers(0, 3))
    def test_window_is_tight(self, group, pad):
        """Both ends of the unpadded window are resonant anchors."""
        name, spec, node, k = group
        window = resonance_window(spec, node, k, pad)
        for r in (window.start + pad, window.stop - 1 - pad):
            assert resonance_reference(name, spec, KRSpec(spec.n, node, r, k)) is not None


class TestSpectralShift:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_report_commutes_with_tau(self, data):
        """Shifting the spec and the KR anchor by t shifts every monomial of
        the report by tau_t and changes nothing else, on every row."""
        n = data.draw(st.integers(1, 3))
        lam = data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
                lambda v: 0 < sum(v) <= 3
            )
        )
        spec = MinAffSpec(n, tuple(lam), data.draw(st.sampled_from(("inc", "dec"))))
        node = data.draw(st.sampled_from((1, n)))
        k = data.draw(st.integers(1, 3))
        kr = KRSpec(n, node, data.draw(st.sampled_from(resonance_window(spec, node, k))), k)
        t = data.draw(st.integers(-5, 5))

        def tau(m):
            return transform(m, "tau", t)

        rep = classify_variant(spec, kr)
        shifted_spec = replace(spec, shift=spec.shift + t)
        shifted_kr = replace(kr, r=kr.r + t)
        assert classify_variant(shifted_spec, shifted_kr) == replace(
            rep,
            spec=shifted_spec,
            kr=shifted_kr,
            lam=tau(rep.lam),
            D=tuple((tau(m), c) for m, c in rep.D),
            lambda_prime=None if rep.lambda_prime is None else tau(rep.lambda_prime),
            socle_head={o: (tau(s), tau(h)) for o, (s, h) in rep.socle_head.items()},
        )


# one point of each report shape, spread over the four rows: irreducible
# without resonance (normal); a kind-ii resonance with p None, which leaves
# the product irreducible (a); case i (b); case ii with five D terms (c)
REPORT_SHAPES = (
    (MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, -4, 1)),
    (MinAffSpec(2, (0, 1), "dec"), KRSpec(2, 1, 1, 2)),
    (MinAffSpec(2, (0, 1), "inc"), KRSpec(2, 1, 3, 1)),
    (MinAffSpec(3, (1, 1, 1), "dec", 2), KRSpec(3, 3, 0, 3)),
)


def _shapes_of(rep):
    res = rep.resonance
    if rep.tag.reducible:
        shapes = {rep.tag.kind}
    else:
        shapes = {"irreducible" if res is None else "irreducible with resonance"}
    if res is not None and res.kind == "ii" and res.p is None:
        shapes.add("kind ii with p None")
    return shapes


class TestReportJson:
    def test_shapes_reach_every_report_shape(self):
        shapes = set().union(*(_shapes_of(classify_variant(*point)) for point in REPORT_SHAPES))
        assert shapes == {
            "irreducible", "irreducible with resonance", "case_i", "case_ii", "kind ii with p None"
        }
        assert {classify_variant(*point).variant for point in REPORT_SHAPES} == set(VARIANTS)

    @settings(max_examples=60, deadline=None)
    @given(sweep_points())
    @example(REPORT_SHAPES[0])
    @example(REPORT_SHAPES[1])
    @example(REPORT_SHAPES[2])
    @example(REPORT_SHAPES[3])
    def test_text_matches_the_dict_reference(self, point):
        spec, kr = point
        rep = classify_variant(spec, kr)
        reference = report_json_reference(rep)
        assert rep.json_text() == sweep._dumps(reference)
        assert rep.to_json() == reference
        line = sweep._dumps({"spec": spec_json_reference(spec), "kr": kr_json_reference(kr), "report": reference})
        assert sweep._sweep_point(point) == (rep.tag.kind, line)

    @pytest.mark.parametrize("point", REPORT_SHAPES)
    def test_each_monomial_is_encoded_once_per_report(self, point, monkeypatch):
        rep = classify_variant(*point)
        encode = LMonomial.json_text
        encoded = []

        def counted(m):
            encoded.append(m)
            return encode(m)

        monkeypatch.setattr(LMonomial, "json_text", counted)
        monomials = {rep.lam, *(m for m, _ in rep.D), *(m for pair in rep.socle_head.values() for m in pair)}
        if rep.lambda_prime is not None:
            monomials.add(rep.lambda_prime)
        for _ in range(2):  # the second report starts from an empty memo too
            encoded.clear()
            rep.json_text()
            assert sorted(map(str, encoded)) == sorted(map(str, monomials))

    @pytest.mark.parametrize("point", REPORT_SHAPES)
    def test_sweep_line_encodes_spec_and_kr_once(self, point, monkeypatch):
        classify_variant(*point)  # warm the caches, so that only the lines are counted
        encoded = []
        for cls in (MinAffSpec, KRSpec):
            encode = cls.json_text
            monkeypatch.setattr(cls, "json_text", lambda x, encode=encode: encoded.append(x) or encode(x))
        spec, kr = point
        for r in (kr.r, kr.r + 1):
            rep = classify_variant(spec, replace(kr, r=r))
            line = sweep._dumps(
                {"spec": spec_json_reference(spec), "kr": kr_json_reference(rep.kr), "report": report_json_reference(rep)}
            )
            encoded.clear()
            assert sweep._sweep_point((spec, rep.kr)) == (rep.tag.kind, line)
            # the group's record encodes the spec for its first point, and
            # writes every KR text from its head
            assert encoded == ([spec] if r == kr.r else [])

    def test_every_small_grid_line_is_the_dict_reference(self):
        cfg = sweep.SweepConfig(2, 2, 2, "unused", 2, tuple(VARIANTS))
        kinds = set()
        for spec, kr in sweep.sweep_grid(cfg):
            rep = classify_variant(spec, kr, whole_group=True)
            reference = {"spec": spec_json_reference(spec), "kr": kr_json_reference(kr), "report": report_json_reference(rep)}
            assert sweep._sweep_point((spec, kr)) == (rep.tag.kind, sweep._dumps(reference))
            kinds.add(rep.tag.kind)
        assert kinds == {"irreducible", "case_i", "case_ii"}

    @pytest.mark.parametrize("point", REPORT_SHAPES)
    def test_hand_built_report_is_the_dict_reference(self, point, monkeypatch):
        # socle/head entries are lambda or lambda' in a classified report; a
        # hand-built one may name any monomial, under any order key
        rep = classify_variant(*point)
        outside, inside = Y(rep.spec.n, 1, 99), rep.D[-1][0]
        assert outside not in dict(rep.D)
        socle_head = {**rep.socle_head, "V": (outside, rep.lam), "W": (inside, outside), "A": (rep.lam, inside)}
        built = [replace(rep, socle_head=socle_head), replace(rep, socle_head=socle_head, lambda_prime=inside)]
        built.append(replace(rep, socle_head=socle_head, lambda_prime=None, lam=outside))
        encode = LMonomial.json_text
        encoded = []
        monkeypatch.setattr(LMonomial, "json_text", lambda m: encoded.append(m) or encode(m))
        for hand in built:
            encoded.clear()
            assert hand.json_text() == sweep._dumps(report_json_reference(hand))
            monomials = {hand.lam, *(m for m, _ in hand.D), *(m for pair in socle_head.values() for m in pair)}
            if hand.lambda_prime is not None:
                monomials.add(hand.lambda_prime)
            assert sorted(map(str, encoded)) == sorted(map(str, monomials))

    def test_irreducible_tag_is_shared(self):
        reps = [classify_variant(spec, kr) for spec, kr in normal_grid(2, 1, 1)]
        irreducible = [rep.tag for rep in reps if not rep.tag.reducible]
        assert irreducible and all(tag is irreducible[0] for tag in irreducible)

    def test_documented_keys_present(self):
        rep = classify_normal(MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 3, 1))
        data = rep.to_json()
        for key in ("lambda", "D", "case", "p", "kprime", "lambda_prime", "socle_head", "variant"):
            assert key in data
        assert data["case"] == "ii"
        assert data["D"][0]["mult"] == 1
        assert LMonomial.from_json(data["lambda"]) == rep.lam
        assert data["socle_head"]["V"]["socle"] == monomial_json_reference(rep.lam)

    def test_irreducible_nulls(self):
        rep = classify_normal(MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 0, 1))
        data = rep.to_json()
        assert data["case"] == "irred" and data["p"] is None and data["lambda_prime"] is None


# reducible points: case (ii) in normal form, and its dual pair on row a
NORMAL_POINT = (MinAffSpec(2, (1, 0), "inc"), KRSpec(2, 2, 3, 1))
A_POINT = (MinAffSpec(2, (0, 1), "dec"), KRSpec(2, 1, 3, 1))
# case (i) in normal form, which reaches the gap family
CASE_I_POINT = (MinAffSpec(1, (1,), "inc"), KRSpec(1, 1, -2, 1))


def _transported(spec, kr):
    """The shift-0 normal-form problem that the transport step of a/b/c
    asks ``classify_normal`` for."""
    row = tensor._variant_of(spec.direction, kr.node != spec.n)
    spec_t = recognize_minaff(transform(drinfeld_of_spec(spec), row.inverse), "inc")
    kr_t = recognize_kr(transform(kr.drinfeld(), row.inverse))
    return replace(spec_t, shift=0), replace(kr_t, r=kr_t.r - spec_t.shift)


def _counting_products():
    """A ``product_qchar`` stand-in and the list it appends one entry per call to."""
    calls = []

    def counted(q1, q2):
        calls.append(1)
        return product_qchar(q1, q2)

    return counted, calls


def _multiplicity_two(spectrum):
    def patched(qc):
        real = spectrum(qc)
        return DominantSpectrum(tuple((m, 2) for m, _ in real.entries), real.totally_ordered)

    return patched


def _star_perturbed(transform):
    def patched(m, kind, t=0):
        out = transform(m, kind, t)
        return out * Y(m.n, 1, 99) if kind == "star" else out

    return patched


def _monomial_perturbed(family):
    def patched(*args):
        t, m = family(*args)
        return t, m * Y(m.n, 1, 99)

    return patched


def _monomials_identity(fillings):
    """Every filling's exponent tuple replaced by the identity's, so all terms collide."""

    def patched(n, shape, bound=None):
        return ((contents, ()) for contents, _ in fillings(n, shape, bound))

    return patched


def _brute_force_D(expected_dominants):
    """The closed form replaced by the brute-force D, which it must equal."""

    def patched(spec, kr, res):
        return [m for m, _ in dominant_spectrum(product_qchar(qchar(spec), qchar_kr(kr))).entries]

    return patched


def _lambda_prime_replaced(new):
    def wrap(classify):
        def patched(*args):
            rep = classify(*args)
            return replace(rep, lambda_prime=new(rep.lambda_prime))

        return patched

    return wrap


# (point, patches, error, message): each check of the classifier, and a patch
# of the name it guards that makes it fire
def _term_repeated(search):
    """The searched list with its middle term listed twice."""

    def patched(n, shape):
        found = search(n, shape)
        return [*found, found[len(found) // 2]]

    return patched


def _second_dominant(search):
    """The searched list with a dominant term that is not the Drinfeld polynomial."""

    def patched(n, shape):
        return [*search(n, shape), Y(n, 1, 99).items()]

    return patched


THIN_CHECK = ({"minaff.filling_pairs": _monomials_identity}, InvariantViolation, "thinness violated")
# a dec affinization whose last tableau column is its longer one: the group
# path searches it whole, mirrored
MIRRORED_POINT = (MinAffSpec(2, (1, 1), "dec"), KRSpec(2, 1, 3, 1))
CHECKS = [
    (NORMAL_POINT, {"tensor.le": lambda f: lambda a, b: False},
     TheoremViolation, "dominant spectrum is not a chain"),
    (NORMAL_POINT, {"tensor._spectrum": _multiplicity_two},
     TheoremViolation, "dominant spectrum has a multiplicity above one"),
    (NORMAL_POINT, {"tensor.expected_dominants": lambda f: lambda s, k, res: f(s, k, res)[:-1]},
     TheoremViolation, "brute-force dominant spectrum disagrees with the closed form"),
    (NORMAL_POINT, {"tensor._lambda_prime_normal": lambda f: lambda s, k, tag: drinfeld_of_spec(s) * k.drinfeld()},
     TheoremViolation, "not at position"),
    (A_POINT, {"tensor.recognize_minaff": lambda f: lambda m, direction: None},
     TheoremViolation, "transported affinization is not increasing"),
    (A_POINT, {"tensor.recognize_kr": lambda f: lambda m: None},
     TheoremViolation, "transported KR module is not at the last node"),
    (A_POINT, {"tensor._resonance": lambda f: lambda v, s, k: f(v, s, k) if v.name == "normal" else None},
     TheoremViolation, "disagree with transported"),
    (A_POINT, {"tensor._tag_of":
               lambda f: lambda s, k, res: CaseTag("irreducible") if s.direction == "dec" else f(s, k, res)},
     TheoremViolation, "reducibility verdicts disagree across the transport"),
    (A_POINT, {"tensor.transform": _star_perturbed},
     TheoremViolation, "dominant spectrum does not transport under star"),
    (A_POINT, {"tensor.classify_normal": _lambda_prime_replaced(lambda m: m * Y(m.n, 1, 99))},
     TheoremViolation, "missing from brute-force"),
    (A_POINT, {"tensor.classify_normal": _lambda_prime_replaced(lambda m: None)},
     InvariantViolation, "transported reducible report has no extra factor"),
    (NORMAL_POINT, {"tensor.monomial_of_tableau": lambda f: lambda t: f(t) * Y(t.n, 1, 99)},
     TheoremViolation, "box product and loop-root product disagree"),
    (CASE_I_POINT, {"tensor.y_string": lambda f: lambda n, i, r, k: f(n, i, r + 2, k)},
     TheoremViolation, "gap-family formulas disagree"),
    (NORMAL_POINT, {"tensor._resonances": lambda f: lambda v, s, k: {r: (*res, *res) for r, res in f(v, s, k).items()}},
     TheoremViolation, "resonance conditions not unique"),
    # the extra factor is derived only once D matches the closed form
    (NORMAL_POINT, {"tensor.family_S": _monomial_perturbed, "tensor.expected_dominants": _brute_force_D},
     TheoremViolation, "not at position"),
    # a repeated term needs two fillings: at NORMAL_POINT each bounded search of
    # the one-anchor path keeps one, at CASE_I_POINT the KR search keeps two
    (CASE_I_POINT, *THIN_CHECK),
    (NORMAL_POINT, {"minaff.dominant_exps": lambda f: lambda exps: True},
     InvariantViolation, "expected a unique dominant term"),
]
CHECK_IDS = [
    "chain",
    "multiplicity_one",
    "closed_form_D",
    "lambda_prime_position",
    "transported_affinization",
    "transported_kr",
    "resonance_agreement",
    "verdict_agreement",
    "transport_D",
    "transported_lambda_prime_in_D",
    "transported_lambda_prime_present",
    "family_S_products",
    "family_T_formulas",
    "unique_resonance",
    "lambda_prime_formulas",
    "qchar_thin",
    "qchar_unique_dominant",
]


def _fires(point, patches, error, message, monkeypatch, **kwargs):
    modules = {"tensor": tensor, "minaff": minaff}
    for target, patch in patches.items():
        module, name = target.split(".")
        monkeypatch.setattr(modules[module], name, patch(getattr(modules[module], name)))
    # qchar is cached, so a patched minaff name is reached only on a miss,
    # and no character computed under a patch may outlive the test
    qchar.cache_clear()
    try:
        with pytest.raises(error, match=re.escape(message)) as info:
            classify_variant(*point, **kwargs)
    finally:
        qchar.cache_clear()
    assert type(info.value) is error
    return info.value


class TestClassifierChecks:
    """Every check of the classifier fires when the name it guards is broken."""

    @pytest.mark.parametrize("point, patches, error, message", CHECKS, ids=CHECK_IDS)
    def test_check_fires(self, point, patches, error, message, monkeypatch):
        _fires(point, patches, error, message, monkeypatch)

    @pytest.mark.parametrize(
        "point, patches, error, message",
        [
            # the group path searches the whole character, so NORMAL_POINT repeats terms
            *((NORMAL_POINT, *THIN_CHECK) if check_id == "qchar_thin" else row
              for row, check_id in zip(CHECKS, CHECK_IDS)),
            (NORMAL_POINT, {"tensor.resonance_window": lambda f: lambda s, node, k, pad=2: range(0)},
             TheoremViolation, "outside the resonance window"),
        ],
        ids=[*CHECK_IDS, "r_window"],
    )
    def test_check_fires_on_the_group_path(self, point, patches, error, message, monkeypatch):
        _fires(point, patches, error, message, monkeypatch, whole_group=True)

    @pytest.mark.parametrize(
        "patch, message",
        [(_term_repeated, "thinness violated"), (_second_dominant, "expected a unique dominant term")],
        ids=["qchar_thin", "qchar_unique_dominant"],
    )
    def test_check_fires_on_a_mirrored_search(self, patch, message, monkeypatch):
        shape = highest_tableau(MIRRORED_POINT[0]).shape
        assert shape.columns[-1][0] > shape.columns[0][0]
        patches = {"minaff.mirrored_terms": patch}
        _fires(MIRRORED_POINT, patches, InvariantViolation, message, monkeypatch, whole_group=True)

    @pytest.mark.parametrize(
        "tamper, error, message",
        [
            (lambda rep: replace(rep, resonance=None),
             TheoremViolation, "disagree with transported"),
            (lambda rep: replace(rep, tag=CaseTag("irreducible")),
             TheoremViolation, "reducibility verdicts disagree across the transport"),
            (lambda rep: replace(rep, D=rep.D[:-1]),
             TheoremViolation, "dominant spectrum does not transport under star"),
            (lambda rep: replace(rep, lambda_prime=rep.lambda_prime * Y(rep.lambda_prime.n, 1, 99)),
             TheoremViolation, "missing from brute-force"),
            (lambda rep: replace(rep, lambda_prime=None),
             InvariantViolation, "transported reducible report has no extra factor"),
        ],
        ids=[
            "resonance_agreement",
            "verdict_agreement",
            "transport_D",
            "transported_lambda_prime_in_D",
            "transported_lambda_prime_present",
        ],
    )
    def test_transport_check_fires_on_a_memo_hit(self, tamper, error, message, monkeypatch):
        """The transport step reads a cached shift-0 report; each check fires
        when one field of that report is wrong.  A_POINT transports to shift
        3, so the report is carried back through tau_3."""
        problem = _transported(*A_POINT)
        real = classify_normal(*problem)
        assert real.tag.reducible
        tampered = tamper(real)

        def cached(spec, kr):
            assert (spec, kr) == problem
            return tampered

        monkeypatch.setattr(tensor, "classify_normal", cached)
        with pytest.raises(error, match=re.escape(message)) as info:
            classify_variant(*A_POINT)
        assert type(info.value) is error


class TestNormalMemo:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_hit_matches_the_empty_memo(self, data):
        """A point whose shift-0 transported problem is already cached gets the
        report of an empty cache, and brute-forces only its own D."""
        n = data.draw(st.integers(1, 3))
        lam = data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
                lambda v: 0 < sum(v) <= 3
            )
        )
        direction = data.draw(st.sampled_from(("inc", "dec")))
        spec = MinAffSpec(n, tuple(lam), direction, data.draw(st.integers(-5, 5)))  # the window follows the shift
        node = data.draw(st.sampled_from((1, n)))
        assume(tensor._variant_of(spec.direction, node != n).inverse is not None)
        k = data.draw(st.integers(1, 3))
        kr = KRSpec(n, node, data.draw(st.sampled_from(resonance_window(spec, node, k))), k)

        sweep.clear_caches()
        cold = classify_variant(spec, kr)
        sweep.clear_caches()
        classify_normal(*_transported(spec, kr))
        counted, products = _counting_products()
        with patch.object(tensor, "product_qchar", counted):
            assert classify_variant(spec, kr) == cold
        assert len(products) == 1

    def test_never_holds_more_than_the_cache_size(self):
        assert classify_normal.cache_info().maxsize == minaff.CACHE_SIZE
        points = list(normal_grid())
        for spec, kr in points:
            classify_normal(spec, kr)
            info = classify_normal.cache_info()
            assert info.currsize <= info.maxsize
        assert classify_normal.cache_info().currsize == len(set(points))
        sweep.clear_caches()
        assert classify_normal.cache_info().currsize == 0

    def test_one_join_per_group_and_first_seen_transport(self, capsys, tmp_path, monkeypatch):
        config = {"n_max": 2, "lambda_sum_max": 2, "k_max": 2, "r_window_pad": 1,
                  "variants": ["normal", "a", "b", "c"], "output": str(tmp_path / "out.jsonl")}
        (tmp_path / "sweep.json").write_text(json.dumps(config), encoding="utf-8")
        points = list(sweep.sweep_grid(sweep.SweepConfig.from_json(config)))
        normal_points, transported, loud_problems = set(), [], set()
        for spec, kr in points:
            if tensor._variant_of(spec.direction, kr.node != spec.n).inverse is None:
                normal_points.add((spec, kr))
                problem = (spec, kr)
            else:
                transported.append(problem := _transported(spec, kr))
            # a quiet point's line is written without asking classify_normal
            if not _is_quiet(spec, kr):
                loud_problems.add(problem)
        problems = normal_points | set(transported)
        groups = {(spec, kr.node, kr.k) for spec, kr in points + transported}

        joins = []
        join = tensor.anchor_join
        monkeypatch.setattr(tensor, "anchor_join", lambda *args: joins.append(1) or join(*args))
        assert cli.main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 0
        assert "violations: 0" in capsys.readouterr().out
        # transports share the normal-row points' classifications and groups
        assert len(problems) < len(normal_points) + len(transported)
        assert classify_normal.cache_info().misses == len(loud_problems) == 52
        assert len(joins) == len(groups) < len({(s, k.node, k.k) for s, k in points}) + len(
            {(s, k.k) for s, k in transported}
        )


def _sweep_groups(n_max, total_max, k_max):
    """The distinct (spec, node, k) groups of a four-row sweep, in sweep order."""
    cfg = sweep.SweepConfig.from_json(
        {"n_max": n_max, "lambda_sum_max": total_max, "k_max": k_max,
         "variants": ["normal", "a", "b", "c"], "output": "unused"}
    )
    return list(dict.fromkeys((spec, kr.node, kr.k) for spec, kr in sweep.sweep_grid(cfg)))


def _reference_D(spec, kr):
    D = dominant_join_reference(qchar(spec), qchar_kr(kr))
    return sorted(D.items(), key=lambda mc: monomial_sort_key(mc[0]))


def _tau(qc, r):
    return QChar(qc.n, {transform(m, "tau", r): c for m, c in qc.terms().items()})


# a walked term whose second negative pair lies on a lower row than its
# first, which one indexed term covers at shift 2
LOWER_ROW_LATER = (QChar(2, {Y(2, 1, 3, -1) * Y(2, 2, 0, -1): 1}), QChar(2, {Y(2, 1, 1) * Y(2, 2, -2): 1}))


def _check_group(spec, node, k, pad):
    """The group's all-anchor join against its reference, with
    multiplicities, and every anchor of the group's pad window against the
    per-anchor join: the map holds D exactly where D != {lambda}.  Returns
    the anchors checked."""
    w0 = qchar_kr(KRSpec(spec.n, node, 0, k))
    assert minaff.anchor_join(qchar(spec), w0) == anchor_join_reference(qchar(spec), w0), (spec, node, k)
    spectra = tensor.spectra_by_anchor(spec, node, k)
    window = resonance_window(spec, node, k, pad)
    assert set(spectra) <= set(resonance_window(spec, node, k, 0))
    for r in window:
        kr = KRSpec(spec.n, node, r, k)
        lam = drinfeld_of_spec(spec) * kr.drinfeld()
        assert list(spectra.get(r, ((lam, 1),))) == _reference_D(spec, kr), (spec, kr)
        if r in spectra:
            assert spectra[r] != ((lam, 1),)
    return window


class TestSpectraByAnchor:
    """One join per (spec, node, k) gives D at every KR anchor; the per-anchor
    join of ``oracles`` is its reference."""

    def test_golden_grid_matches_the_per_anchor_join(self):
        # pad 3 covers every golden point and, past them, anchors absent from the map
        points = 0
        for spec, node, k in _sweep_groups(3, 3, 3):
            window = _check_group(spec, node, k, 3)
            points += len(window) - 2
        assert points == 5586  # the distinct points of the 5,820-point golden sweep

    def test_sample_of_rank_four_groups_matches_the_per_anchor_join(self):
        groups = [g for g in _sweep_groups(4, 4, 4) if g[0].n == 4]
        for spec, node, k in groups[::97]:
            _check_group(spec, node, k, 3)

    def test_shifted_spec_matches_the_per_anchor_join(self):
        for shift in (-5, 4):
            for spec, node, k in _sweep_groups(2, 2, 2):
                _check_group(replace(spec, shift=shift), node, k, 2)

    def test_join_builds_one_monomial_per_distinct_product(self, monkeypatch):
        """The join sums multiplicities on exponent tuples and builds an
        ``LMonomial`` only for each (anchor, product) entry it returns."""
        spec = MinAffSpec(2, (1, 1), "inc")
        walked, indexed = qchar(spec), qchar_kr(KRSpec(2, 2, 0, 2))
        made = []
        make = LMonomial._make
        monkeypatch.setattr(LMonomial, "_make", staticmethod(lambda n, exps: made.append(1) or make(n, exps)))
        joined = minaff.anchor_join(walked, indexed)
        entries = sum(len(products) for products in joined.values())
        assert max(len(products) for products in joined.values()) > 1
        assert entries == 11
        assert len(made) == entries

    def test_D_grows_exactly_at_the_resonances_of_rows_normal_and_a(self):
        """On rows normal and a, the anchors with D != {lambda} are the
        resonant ones, a resonance beyond the reducibility cap included; on
        rows b and c, D can be {lambda} at a resonance and grow without one."""
        groups, resonant_top, grown_plain = Counter(), Counter(), Counter()
        for spec, node, k in _sweep_groups(3, 3, 3):
            variant = tensor._variant_of(spec.direction, node != spec.n)
            grown = set(tensor.spectra_by_anchor(spec, node, k))
            resonant = set(tensor._resonances(variant, spec, k))
            if variant.name in ("normal", "a"):
                assert grown == resonant, (spec, node, k)
                groups[variant.name] += 1
            else:
                resonant_top[variant.name] += len(resonant - grown)
                grown_plain[variant.name] += len(grown - resonant)
        assert groups == {"normal": 93, "a": 84}
        assert resonant_top == {"b": 42, "c": 48}
        assert grown_plain == {"b": 106, "c": 112}

    def test_one_anchor_and_whole_group_reports_agree(self):
        # the golden grid's n <= 2 groups, shifted too: the one-anchor report
        # walks only the affinization terms its KR module can cover
        for spec, node, k in _sweep_groups(2, 3, 3):
            for shift in (0, 3):
                spec_s = replace(spec, shift=shift)
                for r in resonance_window(spec_s, node, k, 3):
                    kr = KRSpec(spec.n, node, r, k)
                    assert classify_variant(spec_s, kr) == classify_variant(spec_s, kr, whole_group=True)

    def test_cached_per_group(self):
        spec = MinAffSpec(2, (1, 1), "inc")
        assert tensor.spectra_by_anchor.cache_info().maxsize == minaff.CACHE_SIZE
        first = tensor.spectra_by_anchor(spec, 2, 2)
        for r in resonance_window(spec, 2, 2):
            classify_variant(spec, KRSpec(2, 2, r, 2), whole_group=True)
        assert tensor.spectra_by_anchor(spec, 2, 2) is first
        sweep.clear_caches()
        assert tensor.spectra_by_anchor.cache_info().currsize == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(characters(n), characters(n))))
    @example(LOWER_ROW_LATER)
    def test_candidate_shifts_of_random_terms(self, factors):
        """``_JoinIndex.shifts`` against every shift that carries each
        negative pair, on its own, onto a key some indexed term covers."""
        x, y = factors
        index = minaff._JoinIndex(y._all_terms())
        for m in x.terms():
            need = [kv for kv in m.items() if kv[1] < 0]
            if not need:
                continue
            (i0, s0), e0 = need[0]
            reach = {s0 - s for m2 in y.terms() for (i, s), e in m2.items() if i == i0 and e >= -e0}
            expected = {
                r for r in reach
                if all(any(m2.exponent(i, s - r) >= -e for m2 in y.terms()) for (i, s), e in need)
            }
            # bit b of the mask is the shift b + s0 - top
            mask = index.shifts(need)
            assert mask >= 0
            got = {b + s0 - index.top for b in range(mask.bit_length()) if mask >> b & 1}
            assert got == expected, m

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(characters(n), characters(n))))
    @example(LOWER_ROW_LATER)
    def test_join_of_random_characters_at_every_shift(self, factors):
        x, y = factors
        every = minaff.anchor_join(x, y)
        assert every == anchor_join_reference(x, y)
        # rows lie in -3..3, so a dominant pair needs a shift in -6..6
        assert set(every) <= set(range(-6, 7))
        tops = [[(m, c) for m, c in q.terms().items() if all(e > 0 for _, e in m.items())] for q in (x, y)]
        for r in range(-7, 8):
            got = minaff.anchor_join(x, y, r)
            assert list(got) == [r]
            assert got == anchor_join_reference(x, y, r)
            reference = product_qchar_reference(x, _tau(y, r)).dominant_terms()
            assert sorted(got[r].items(), key=lambda mc: monomial_sort_key(mc[0])) == reference
            top_products = {}
            for m1, c1 in tops[0]:
                for m2, c2 in tops[1]:
                    p = m1 * transform(m2, "tau", r)
                    top_products[p] = top_products.get(p, 0) + c1 * c2
            # a key of the all-anchor map is a shift where some other pair is dominant
            assert every.get(r, top_products) == got[r]
            assert (r in every) == (got[r] != top_products)


# quiet anchors of the groups of NORMAL_POINT and A_POINT: no resonance, D = {lambda},
# and on row a the transported anchor is quiet too
QUIET_NORMAL_POINT = (NORMAL_POINT[0], replace(NORMAL_POINT[1], r=0))
QUIET_A_POINT = (A_POINT[0], replace(A_POINT[1], r=0))


def _line(spec, kr, report):
    """The sweep line of a point with the given report, from the reference texts."""
    return f'{{"kr":{kr.json_text()},"report":{report.json_text()},"spec":{spec.json_text()}}}'


def _is_quiet(spec, kr):
    return kr.r not in sweep.sweep_group(spec, kr).loud


def _grown_at_0(spectra):
    """``spectra_by_anchor`` with an entry at anchor 0: the D of the group's
    resonant anchor 3 carried down to anchor 0's lambda, a chain of
    multiplicity-one terms as D is where it grows."""

    def patched(spec, node, k):
        real = spectra(spec, node, k)
        lam0 = drinfeld_of_spec(spec) * KRSpec(spec.n, node, 0, k).drinfeld()
        to_0 = real[3][0][0].inverse() * lam0
        return {**real, 0: tuple((m * to_0, c) for m, c in real[3])}

    return patched


def _with_transported_resonance(resonances):
    """``_resonances`` with an entry on the normal row at the anchor that
    QUIET_A_POINT transports to: kind "i" at node n + 1 with k' past the KR
    length, so the normal-form point stays irreducible with D = {lambda}
    and only the transport's resonance check can see it."""
    spec_t, kr_t = _transported(*QUIET_A_POINT)

    def patched(variant, spec, k):
        table = resonances(variant, spec, k)
        if variant.name == "normal" and (spec, k) == (spec_t, kr_t.k):
            table = {**table, kr_t.r: (Resonance("i", kr_t.k + 1, spec.n + 1),)}
        return table

    return patched


class TestQuietAnchors:
    """A sweep answers an anchor that no group table marks from the group
    data alone; any disagreement there makes the anchor loud, and a group
    whose transport is not recognised fails at every anchor."""

    def test_quiet_share_of_the_golden_grid(self):
        cfg = sweep.SweepConfig.from_json(
            {"n_max": 3, "lambda_sum_max": 3, "k_max": 3, "r_window_pad": 2,
             "variants": ["normal", "a", "b", "c"], "output": "unused"}
        )
        quiet = [_is_quiet(spec, kr) for spec, kr in sweep.sweep_grid(cfg)]
        assert (sum(quiet), len(quiet)) == (4000, 5820)

    @pytest.mark.parametrize(
        "point, patches, error, message",
        [
            (QUIET_NORMAL_POINT, {"tensor.spectra_by_anchor": _grown_at_0},
             TheoremViolation, "brute-force dominant spectrum disagrees with the closed form"),
            (QUIET_A_POINT, {"tensor._resonances": _with_transported_resonance},
             TheoremViolation, "disagree with transported"),
            (QUIET_A_POINT, {"tensor.recognize_kr": lambda f: lambda m: None},
             TheoremViolation, "transported KR module is not at the last node"),
            (QUIET_A_POINT, {"tensor.recognize_minaff": lambda f: lambda m, direction: None},
             TheoremViolation, "transported affinization is not increasing"),
        ],
        ids=["closed_form_D", "resonance_agreement", "transported_kr", "transported_affinization"],
    )
    def test_check_fires_at_a_quiet_anchor(self, point, patches, error, message, monkeypatch):
        assert _is_quiet(*point)
        sweep.clear_caches()
        violation = _fires(point, patches, error, message, monkeypatch, whole_group=True)
        # the sweep meets the same failure there, as the broken group data make the anchor loud
        spec, kr = point
        line = {"spec": spec_json_reference(spec), "kr": kr_json_reference(kr), "violation": str(violation)}
        assert sweep._sweep_point(point) == ("violations", sweep._dumps(line))

    @pytest.mark.parametrize(
        "name, message",
        [("recognize_kr", "transported KR module is not at the last node"),
         ("recognize_minaff", "transported affinization is not increasing")],
        ids=["transported_kr", "transported_affinization"],
    )
    def test_unrecognised_transport_fails_at_every_anchor(self, name, message, monkeypatch):
        groups = {}
        for spec, node, k in _sweep_groups(2, 2, 2):
            variant = tensor._variant_of(spec.direction, node != spec.n)
            if variant.inverse is not None:
                groups.setdefault(variant.name, (spec, node, k))
        points = [
            (spec, KRSpec(spec.n, node, r, k))
            for spec, node, k in groups.values()
            for r in resonance_window(spec, node, k)
        ]
        quiet = Counter(_is_quiet(*point) for point in points)
        assert set(groups) == {"a", "b", "c"} and quiet[True] and quiet[False]
        sweep.clear_caches()
        monkeypatch.setattr(tensor, name, lambda *args: None)
        for spec, kr in points:
            line = {"spec": spec_json_reference(spec), "kr": kr_json_reference(kr), "violation": message}
            assert sweep._sweep_point((spec, kr)) == ("violations", sweep._dumps(line)), (spec, kr)

    def test_transported_anchor_is_affine_in_r(self):
        """r_t = r_t(0) + sigma * r at every row-a/b/c anchor of the n <= 4
        grid, sigma = -1 exactly on the flipped rows b and c: the one
        transport at anchor 0 that ``_loud_anchors`` and ``_transported``
        run is every anchor's own, recognised point by point."""
        rows, anchors = Counter(), 0
        for spec, node, k in _sweep_groups(4, 4, 4):
            variant = tensor._variant_of(spec.direction, node != spec.n)
            if variant.inverse is None:
                continue
            sigma = -1 if variant.name in ("b", "c") else 1
            assert variant.flipped == (sigma == -1)
            spec_t, t, at_0 = tensor._transported(variant, spec, KRSpec(spec.n, node, 0, k))
            assert at_0.node == spec.n
            for r in resonance_window(spec, node, k):
                kr = KRSpec(spec.n, node, r, k)
                moved = (spec_t, t, replace(at_0, r=at_0.r + sigma * r))
                assert transported_reference(variant, spec, kr) == moved, (spec, node, k, r)
                assert tensor._transported(variant, spec, kr) == moved, (spec, node, k, r)
                anchors += 1
            rows[variant.name] += 1
        assert set(rows) == {"a", "b", "c"} and anchors == 28296

    def test_found_once_per_group_record(self, monkeypatch):
        # the group record holds the loud anchors, so they are not cached
        assert not hasattr(tensor._loud_anchors, "cache_info")
        found = []
        loud_anchors = tensor._loud_anchors
        for module in (sweep, tensor):  # the record's call, and the transport's within it
            monkeypatch.setattr(module, "_loud_anchors", lambda *key: found.append(key) or loud_anchors(*key))
        spec, node, k = A_POINT[0], A_POINT[1].node, A_POINT[1].k
        points = [(spec, KRSpec(spec.n, node, r, k)) for r in resonance_window(spec, node, k)]
        for point in points:
            sweep.sweep_group(*point)
        # the row-a group, and one level down the normal-form group it transports to
        assert len(found) == 2 and found[0] == (spec, node, k) and found[1][0].direction == "inc"
        sweep.clear_caches()
        sweep.sweep_group(*points[0])
        assert len(found) == 4


class TestQuietLines:
    """At a quiet anchor a sweep writes the report text from its row's
    template and builds no report; everywhere else it writes the report's."""

    def test_quiet_reports_equal_the_full_path(self):
        # the golden grid's n <= 2 groups, shifted too, every row: where the
        # sweep skips the checks, running them gives the irreducible report
        # of lambda whose text the sweep writes
        points = [
            (replace(spec, shift=shift), KRSpec(spec.n, node, r, k))
            for spec, node, k in _sweep_groups(2, 3, 3)
            for shift in (0, 3)
            for r in resonance_window(replace(spec, shift=shift), node, k)
        ]
        quiet = Counter()
        for spec, kr in points:
            full = classify_variant(spec, kr, whole_group=True)
            assert sweep.sweep_line(spec, kr) == (full.tag.kind, _line(spec, kr, full)), (spec, kr)
            if _is_quiet(spec, kr):
                lam = drinfeld_of_spec(spec) * kr.drinfeld()
                assert (full.tag.kind, full.resonance, full.D, full.lambda_prime) == (
                    "irreducible", None, ((lam, 1),), None
                ), (spec, kr)
                quiet[full.variant] += 1
        assert (sum(quiet.values()), len(points)) == (2480, 3660)
        assert set(quiet) == set(VARIANTS)

    def test_template_text_is_the_report_text(self, monkeypatch):
        cfg = sweep.SweepConfig.from_json(
            {"n_max": 3, "lambda_sum_max": 3, "k_max": 3, "r_window_pad": 2,
             "variants": ["normal", "a", "b", "c"], "output": "unused"}
        )
        golden = list(sweep.sweep_grid(cfg))
        shifted = [
            (replace(spec, shift=3), KRSpec(spec.n, node, r, k))
            for spec, node, k in _sweep_groups(2, 3, 3)
            for r in resonance_window(replace(spec, shift=3), node, k)
        ]
        classify = tensor.classify_variant
        reports = []
        monkeypatch.setattr(
            sweep, "classify_variant", lambda *args, **kwargs: reports.append(1) or classify(*args, **kwargs)
        )
        quiet = Counter()
        for points, name in ((golden, "golden"), (shifted, "shifted")):
            for spec, kr in points:
                reports.clear()
                got = sweep.sweep_line(spec, kr)
                rep = classify(spec, kr, whole_group=True)
                assert got == (rep.tag.kind, _line(spec, kr, rep)), (spec, kr)
                if _is_quiet(spec, kr):
                    assert got[0] == "irreducible" and reports == [], (spec, kr)
                    quiet[name] += 1
                else:
                    assert reports == [1], (spec, kr)
        assert quiet == {"golden": 4000, "shifted": 1240}
        assert sweep._quiet_template in sweep._CACHES

    def test_failure_at_a_quiet_point_is_its_line(self, monkeypatch):
        spec, kr = QUIET_A_POINT
        assert _is_quiet(spec, kr)
        sweep.clear_caches()

        def failing(*args):
            raise TheoremViolation("injected")

        monkeypatch.setattr(tensor, "spectra_by_anchor", failing)
        line = {"spec": spec_json_reference(spec), "kr": kr_json_reference(kr), "violation": "injected"}
        assert sweep._sweep_point((spec, kr)) == ("violations", sweep._dumps(line))


class TestSweepGroup:
    """A sweep group's record writes every text of a point that does not
    depend on its anchor, and lambda's text from omega's entries."""

    def test_texts_equal_the_product_oracle(self):
        cfg = sweep.SweepConfig.from_json(
            {"n_max": 3, "lambda_sum_max": 3, "k_max": 3, "r_window_pad": 2,
             "variants": ["normal", "a", "b", "c"], "output": "unused"}
        )
        golden = list(sweep.sweep_grid(cfg))
        # the n <= 2 groups at shift 3, over anchors wide enough that varpi
        # falls below, above, between and onto omega's row at its node
        wide = [
            (replace(spec, shift=3), KRSpec(spec.n, node, r, k))
            for spec, node, k in _sweep_groups(2, 3, 3)
            for r in range(-12, 13)
        ]
        quiet = Counter()
        exponents = set()
        for name, points in (("golden", golden), ("wide", wide)):
            for spec, kr in points:
                group = sweep.sweep_group(spec, kr)
                lam = drinfeld_of_spec(spec) * kr.drinfeld()
                assert group.lam_text(kr.r) == lam.json_text(), (spec, kr)
                assert (group.spec_text, f"{group.kr_head}{kr.r}}}") == (spec.json_text(), kr.json_text())
                quiet[name, spec.n == 1, kr.r not in group.loud] += 1
                exponents.update(e for (i, _), e in lam.items() if i == kr.node)
        assert quiet["golden", False, True] + quiet["golden", True, True] == 4000
        # n = 1, where node 1 is also node n, at quiet and loud anchors
        assert quiet["golden", True, True] and quiet["golden", True, False]
        assert exponents == {1, 2}  # varpi lands on omega's row keys too

    def test_one_record_held_per_process(self):
        spec, kr = QUIET_A_POINT
        group = sweep.sweep_group(spec, kr)
        assert group.k == kr.k and group.loud == tensor._loud_anchors(spec, kr.node, kr.k)
        info = sweep._sweep_group.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (1, 1, 1)
        # another anchor of the group, by an equal spec too, shares the record
        assert sweep.sweep_group(replace(spec), replace(kr, r=kr.r + 1)) is group
        info = sweep._sweep_group.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        other = sweep.sweep_group(spec, replace(kr, k=kr.k + 1))
        assert other is not group and sweep._sweep_group.cache_info().currsize == 1
        assert sweep.sweep_group(spec, kr) is not group  # rebuilt: only the last group is held
        assert sweep._sweep_group.cache_info().misses == 3
        sweep.clear_caches()
        assert sweep._sweep_group.cache_info().currsize == 0

    def test_one_build_per_visit_of_a_golden_group(self):
        # a record is built when the sweep enters a group, not per point: the
        # n = 1 groups that rows normal and b (a and c) share are visited apart
        cfg = sweep.SweepConfig.from_json(
            {"n_max": 3, "lambda_sum_max": 3, "k_max": 3, "r_window_pad": 2,
             "variants": ["normal", "a", "b", "c"], "output": "unused"}
        )
        points = list(sweep.sweep_grid(cfg))
        visits = [group for group, _ in groupby((spec, kr.node, kr.k) for spec, kr in points)]
        revisited = {group for group, count in Counter(visits).items() if count > 1}
        for spec, kr in points:
            sweep.sweep_line(spec, kr)
        assert (sweep._sweep_group.cache_info().misses, len(visits), len(set(visits))) == (372, 372, 354)
        assert len(revisited) == 18 and {spec.n for spec, _, _ in revisited} == {1}

    def test_rank_mismatch_is_rejected(self):
        spec = MinAffSpec(2, (1, 1), "inc")
        sweep.sweep_group(spec, KRSpec(2, 1, 0, 1))  # the held group has the same key
        with pytest.raises(InvalidInput, match="rank mismatch"):
            sweep.sweep_group(spec, KRSpec(3, 1, 0, 1))
        assert sweep._sweep_point((spec, KRSpec(3, 1, 0, 1))) == ("violations", sweep._dumps({
            "spec": spec_json_reference(spec), "kr": kr_json_reference(KRSpec(3, 1, 0, 1)),
            "error": "InvalidInput: rank mismatch between spec and KR module",
        }))

    @pytest.mark.parametrize(
        "failure, field, message",
        [(TheoremViolation, "violation", "injected"), (RuntimeError, "error", "RuntimeError: injected")],
        ids=["theorem_violation", "runtime_error"],
    )
    def test_failing_group_is_recorded_at_each_point(self, failure, field, message, capsys, tmp_path, monkeypatch):
        output = tmp_path / "out.jsonl"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            {"n_max": 2, "lambda_sum_max": 2, "k_max": 2, "r_window_pad": 2,
             "variants": ["normal", "a"], "output": str(output)}
        ))
        assert cli.main(["sweep", "--config", str(config)]) == cli.EXIT_OK
        healthy = output.read_text().splitlines()
        points = list(sweep.sweep_grid(sweep.SweepConfig.from_json(json.loads(config.read_text()))))
        groups = list(dict.fromkeys((spec, kr.node, kr.k) for spec, kr in points))
        # a row-a group of rank 2: no other group's classification reads its spectra
        failing = next(g for g in groups if g[0].n == 2 and g[0].direction == "dec")
        spectra = tensor.spectra_by_anchor

        def failing_for_one_group(spec, node, k):
            if (spec, node, k) == failing:
                raise failure("injected")
            return spectra(spec, node, k)

        monkeypatch.setattr(tensor, "spectra_by_anchor", failing_for_one_group)
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(config)]) == cli.EXIT_VIOLATION
        lines = output.read_text().splitlines()
        assert len(lines) == len(healthy) == len(points)
        in_group = [(spec, kr.node, kr.k) == failing for spec, kr in points]
        assert 0 < sum(in_group) and not in_group[-1]  # later groups follow it
        assert f"violations: {sum(in_group)}\n" in capsys.readouterr().out
        for (spec, kr), line, before, failed in zip(points, lines, healthy, in_group):
            if failed:
                record = {"spec": spec_json_reference(spec), "kr": kr_json_reference(kr), field: message}
                assert line == sweep._dumps(record), (spec, kr)
            else:
                assert line == before, (spec, kr)


def _family_arguments(n_max=2, total_max=3):
    """Every ``family_S`` and ``family_T`` argument tuple of the n <= 2 grid,
    the conventions' edge values and rejected ones included."""
    s_args, t_args = [], []
    for n in range(1, n_max + 1):
        for lam in all_weights(n, total_max):
            spec = MinAffSpec(n, lam, "inc")
            for c in range(0, spec.total + 2):
                for f in range(0, spec.total + 2):
                    for p in range(0, n + 2):
                        s_args.append((spec, c, f, p))
        for r in (-3, 0, 2):
            for k in range(1, 4):
                for node in {1, n}:
                    kr = KRSpec(n, node, r, k)
                    t_args += [(kr, m, p) for m in range(-1, k + 2) for p in range(0, n + 3)]
    return s_args, t_args


def _call(fn, args):
    try:
        return fn(*args)
    except InvalidInput as exc:
        return type(exc), str(exc)


class TestMemberCaches:
    """The KR Drinfeld polynomials and the family members are cached by value;
    a cached answer is the uncached one, and no cache outlives ``clear_caches``."""

    def test_cached_equals_uncached_on_the_small_grid(self):
        s_args, t_args = _family_arguments()
        for fn, grid in ((family_S, s_args), (family_T, t_args)):
            for args in grid * 2:  # the second pass reads the cache
                assert _call(fn, args) == _call(fn.__wrapped__, args), args
        krs = {kr for kr, _, _ in t_args} | {kr for _, kr in normal_grid()}
        for kr in krs:
            for _ in range(2):
                assert kr.drinfeld() == y_string(kr.n, kr.node, kr.r, kr.k)

    def test_each_member_is_built_once(self):
        spec, kr = MinAffSpec(2, (1, 1), "inc"), KRSpec(2, 2, 0, 2)
        assert family_S(spec, 1, 2, 3) is family_S(spec, 1, 2, 3)
        assert family_T(kr, 1, 1) is family_T(kr, 1, 1)
        assert family_S.cache_info().misses == family_T.cache_info().misses == 1

    def test_registered_and_emptied(self):
        for cached in (family_S, family_T):
            assert cached in sweep._CACHES
            assert cached.cache_info().maxsize == minaff.CACHE_SIZE
        classify_variant(*CASE_I_POINT)
        classify_variant(*NORMAL_POINT)
        assert family_S.cache_info().currsize and family_T.cache_info().currsize
        sweep.clear_caches()
        assert family_S.cache_info().currsize == family_T.cache_info().currsize == 0

    @pytest.mark.parametrize("bad", [1.0, True, 2.0], ids=repr)
    @pytest.mark.parametrize(
        "fn, args",
        [
            (tensor.spectra_by_anchor, (MinAffSpec(2, (1, 1), "inc"), 2, 1)),
            (tensor._loud_anchors, (MinAffSpec(2, (1, 1), "dec"), 2, 1)),
            (family_S, (MinAffSpec(2, (1, 1), "inc"), 1, 2, 3)),
            (family_T, (KRSpec(2, 2, 0, 2), 1, 2)),
        ],
        ids=["spectra_by_anchor", "_loud_anchors", "family_S", "family_T"],
    )
    def test_a_warm_cache_keeps_the_exact_integer_rule(self, fn, args, bad):
        # 1.0, True and 2.0 hash and compare equal to 1 and 2, so an untyped
        # cache would hand back the good call's entry
        fn(*args)
        slots = [j for j, v in enumerate(args) if type(v) is int and v == bad]
        assert slots
        for j in slots:
            with pytest.raises(InvalidInput, match="must be an integer"):
                fn(*args[:j], bad, *args[j + 1 :])


GOLDEN_CONFIG = {"n_max": 3, "lambda_sum_max": 3, "k_max": 3, "r_window_pad": 2,
                 "variants": ["normal", "a", "b", "c"]}


def _loud_points(config):
    """The loud points of a sweep grid, each with its row."""
    for spec, kr in sweep.sweep_grid(sweep.SweepConfig.from_json({**config, "output": "unused"})):
        if kr.r in sweep.sweep_group(spec, kr).loud:
            yield tensor._variant_of(spec.direction, kr.node != spec.n), spec, kr


class TestLoudGroups:
    """A loud point reads its transported KR module and its gap members off
    its group's anchor 0, moved by r, and multiplies the closed form as
    exponent tuples; each equals the per-point reference."""

    def test_golden_loud_points_match_their_references(self):
        rows = Counter()
        for variant, spec, kr in _loud_points(GOLDEN_CONFIG):
            if variant.inverse is not None:
                problem = tensor._transported(variant, spec, kr)
                assert problem == transported_reference(variant, spec, kr), (spec, kr)
                spec, _, kr = problem
            res = _resonance(VARIANTS["normal"], spec, kr)
            assert expected_dominants(spec, kr, res) == expected_dominants_reference(spec, kr, res), (spec, kr)
            rows[variant.name] += 1
        assert rows == {"normal": 435, "a": 363, "b": 469, "c": 553}  # 1,820 loud of 5,820

    def test_random_anchors_match_their_references(self):
        rng = random.Random(38)
        groups = _sweep_groups(3, 3, 3)
        for spec, node, k in rng.sample(groups, 60):
            variant = tensor._variant_of(spec.direction, node != spec.n)
            for r in rng.sample(range(-40, 41), 5):
                kr = KRSpec(spec.n, node, r, k)
                if variant.inverse is not None:
                    problem = tensor._transported(variant, spec, kr)
                    assert problem == transported_reference(variant, spec, kr), (spec, kr)
                    spec_t, _, kr = problem
                else:
                    spec_t = spec
                # every resonance of the group at an anchor that need not be its own
                for found in (None, *tensor._resonances(VARIANTS["normal"], spec_t, kr.k).values()):
                    res = found and found[0]
                    got = expected_dominants(spec_t, kr, res)
                    assert got == expected_dominants_reference(spec_t, kr, res), (spec_t, kr, res)

    def test_gap_members_move_by_tau_r(self):
        members = 0
        for n in range(1, 4):
            for k in range(1, 4):
                for m in range(-1, k + 2):
                    for p in range(1, n + 2):
                        at_0 = family_T(KRSpec(n, n, 0, k), m, p)[1]
                        for r in range(-6, 7):
                            kr = KRSpec(n, n, r, k)
                            moved = transform(at_0, "tau", r)
                            assert family_T(kr, m, p)[1] == moved, (kr, m, p)
                            assert tensor._gap_member(kr, m, p) == moved.items(), (kr, m, p)
                            members += 1
        assert members == 13 * sum((k + 3) * (n + 1) for n in range(1, 4) for k in range(1, 4))

    def test_one_golden_sweep_builds_each_member_and_transport_once_per_group(self, tmp_path, monkeypatch):
        recognized = []
        real = tensor.recognize_kr
        monkeypatch.setattr(tensor, "recognize_kr", lambda m: recognized.append(m) or real(m))
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**GOLDEN_CONFIG, "output": str(tmp_path / "out.jsonl")}))
        assert cli.main(["sweep", "--config", str(config)]) == 0
        assert tensor.family_T.cache_info().misses == 54
        assert tensor._transported_spec.cache_info().misses == len(recognized) == 261


class TestSharedSpecs:
    """A sweep holds one ``MinAffSpec`` per (n, lambda, direction), and the
    transports, the KR characters' specs and the recognised specs land on
    ``_shared_spec`` instances too, so the caches keyed on a spec find it
    by identity."""

    def test_a_sweep_grid_holds_one_spec_per_weight_and_direction(self):
        specs = {}
        for spec, _ in sweep.sweep_grid(sweep.SweepConfig.from_json({**GOLDEN_CONFIG, "output": "unused"})):
            assert specs.setdefault((spec.n, spec.lam, spec.direction), spec) is spec
            assert spec is minaff._shared_spec(spec.n, spec.lam, spec.direction, 0)
        assert len(specs) == 62

    def test_transported_specs_are_the_shared_ones(self):
        rows = Counter()
        for spec, node, k in _sweep_groups(3, 3, 3):
            variant = tensor._variant_of(spec.direction, node != spec.n)
            if variant.inverse is not None:
                spec_t = tensor._transported_spec(variant, spec, node, k)[0]
                assert spec_t is minaff._shared_spec(spec_t.n, spec_t.lam, "inc", 0), (spec, node, k)
                assert spec_t == MinAffSpec(spec_t.n, spec_t.lam), (spec, node, k)
                rows[variant.name] += 1
        assert set(rows) == {"a", "b", "c"}

    def test_a_golden_sweep_compares_few_specs(self, tmp_path):
        # in a fresh process, as the caches of ``minaff`` persist across
        # commands; a spec built outside ``_shared_spec`` is found by ``==``
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**GOLDEN_CONFIG, "output": str(tmp_path / "out.jsonl")}))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(minaff.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", COUNT_SPEC_COMPARISONS, str(config)], capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0"


COUNT_SPEC_COMPARISONS = """
import sys
from qcharlab import cli
from qcharlab.minaff import MinAffSpec
eq, compared = MinAffSpec.__eq__, []
MinAffSpec.__eq__ = lambda a, b: compared.append(1) or eq(a, b)
assert cli.main(["sweep", "--config", sys.argv[1]]) == 0
print(len(compared))
"""
