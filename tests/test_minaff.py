import re
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
    qchar_json_reference,
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
    highest_tableau,
    is_dominant,
    is_semistandard,
    kr_qchar_by_partitions,
    monomial_of_box,
    monomial_of_tableau,
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

    def test_list_weight_stored_as_tuple(self):
        spec = MinAffSpec(2, [1, 1])
        assert spec.lam == (1, 1) and spec == MinAffSpec(2, (1, 1))
        assert hash(spec) == hash(MinAffSpec(2, (1, 1)))

    def test_kr_as_minaff_drinfeld(self):
        for node, r, k in ((1, -3, 2), (2, 4, 3)):
            kr = KRSpec(2, node, r, k)
            assert drinfeld_of_spec(kr.as_minaff()) == kr.drinfeld()


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


class TestQChar:
    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1"], ids=repr)
    def test_rank_and_multiplicities_must_be_ints(self, value):
        with pytest.raises(InvalidInput, match="multiplicity must be an integer"):
            QChar(1, {Y(1, 1, 0): value})
        with pytest.raises(InvalidInput, match="rank must be an integer"):
            QChar(value, {})

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

    def test_memoized(self):
        assert qchar(MinAffSpec(2, (1, 1), "inc")) is qchar(MinAffSpec(2, (1, 1), "inc"))

    def test_thinness_error_names_the_repeated_term(self, monkeypatch):
        spec = MinAffSpec(2, (1, 1), "inc", 3)
        fillings = minaff.semistandard_fillings
        monos = [m for _, m in fillings(spec.n, highest_tableau(spec).shape)]
        # the fourth term comes again after the sixth; the first repeat is the fourth
        order = [0, 1, 2, 3, 4, 5, 3, 6, 1, 7]

        def repeating(n, shape):
            return (([], monos[i]) for i in order)

        monkeypatch.setattr(minaff, "semistandard_fillings", repeating)
        qchar.cache_clear()
        try:
            message = f"thinness violated: duplicate term {monos[3]}"
            with pytest.raises(InvariantViolation, match=re.escape(message) + "$"):
                qchar(spec)
        finally:
            qchar.cache_clear()

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
            index = minaff._JoinIndex(qchar(spec).terms())
            for m, need in zip(index.monos, index.needs):
                negative = [kv for kv in m.items() if kv[1] < 0]
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
