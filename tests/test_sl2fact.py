from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rank1_monomial, run_partitions_topdown, strings_json_reference
from qcharlab import (
    InvalidInput,
    InvariantViolation,
    LMonomial,
    StringList,
    q_factorize,
    sl2fact,
    sweep,
    y_string,
)
from qcharlab.sl2fact import in_general_position


def Y(n, i, r, e=1):
    return LMonomial.y(n, i, r, e)


class TestGeneralPosition:
    def test_adjacent_strings_resonate(self):
        # (0,1) next to (2,1): parameter ratio q^-2 is forbidden at p=0
        assert not in_general_position((0, 1), (2, 1))

    def test_far_strings(self):
        assert in_general_position((0, 1), (4, 1))

    def test_equal_singletons(self):
        assert in_general_position((0, 1), (0, 1))


class TestQFactorize:
    def test_contiguous_pair_is_one_string(self):
        assert q_factorize(Y(1, 1, 0) * Y(1, 1, 2)).strings == ((0, 2),)

    def test_separated_pair_stays_split(self):
        assert q_factorize(Y(1, 1, 0) * Y(1, 1, 4)).strings == ((0, 1), (4, 1))

    def test_repeated_row(self):
        assert q_factorize(Y(1, 1, 0, 2)).strings == ((0, 1), (0, 1))

    def test_identity(self):
        assert q_factorize(LMonomial.identity(1)).strings == ()

    def test_rejects_rank_two(self):
        with pytest.raises(InvalidInput):
            q_factorize(Y(2, 1, 0))

    def test_rejects_non_dominant(self):
        with pytest.raises(InvalidInput):
            q_factorize(Y(1, 1, 0, -1))

    def test_json(self):
        strings = q_factorize(Y(1, 1, 0) * Y(1, 1, 4))
        assert strings_json_reference(strings) == {"strings": [[0, 1], [4, 1]]}
        assert strings.json_text() == sweep._dumps(strings_json_reference(strings))

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 4)), max_size=4))
    def test_json_text_is_the_sorted_compact_dump(self, strings):
        strings = StringList(tuple(strings))
        assert strings.json_text() == sweep._dumps(strings_json_reference(strings))

    def test_large_monomial_in_one_pass(self):
        # 24 variables: four copies of the six-row run 0, 2, ..., 10
        m = LMonomial(1, (((1, r), 4) for r in range(0, 12, 2)))
        assert q_factorize(m).strings == ((0, 6),) * 4

    def test_many_equal_strings(self):
        # one row of multiplicity 2000: as many strings, all equal, so the
        # pairwise check runs over distinct strings only
        assert q_factorize(Y(1, 1, 0, 2000)).strings == ((0, 1),) * 2000

    def test_general_position_is_checked_at_run_time(self, monkeypatch):
        monkeypatch.setattr(sl2fact, "in_general_position", lambda s1, s2: False)
        with pytest.raises(InvariantViolation, match="not in general position"):
            q_factorize(Y(1, 1, 0) * Y(1, 1, 4))

    def test_worked_restriction_example(self):
        # two overlapping strings of different lengths, anchored together,
        # are already in general position
        m = y_string(1, 1, 0, 2) * y_string(1, 1, 0, 4)
        assert q_factorize(m).strings == ((0, 2), (0, 4))

    def test_irreducibility_witness_in_classified_product(self):
        """Restricting an intermediate dominant-chain monomial to the
        resonant node factorizes into the two predicted strings."""
        from qcharlab import (
            KRSpec,
            MinAffSpec,
            classify_normal,
            drinfeld_of_spec,
            family_T,
            restrict,
        )

        spec, kr = MinAffSpec(2, (2, 0), "inc"), KRSpec(2, 2, -4, 2)
        rep = classify_normal(spec, kr)
        assert rep.tag.kind == "case_i" and (rep.tag.p, rep.tag.kprime) == (1, 2)
        # gap moved one node past p keeps the restriction to p dominant
        mu = drinfeld_of_spec(spec) * family_T(kr, 1, rep.tag.p + 1)[1]
        pi = restrict(mu, {rep.tag.p})
        r_p = spec.anchors()[rep.tag.p]
        assert q_factorize(pi).strings == (
            (r_p + 2 * (rep.tag.kprime - 2), 1),
            (r_p, spec.lam[rep.tag.p - 1]),
        )


def _exhaustive_inputs(rows, max_factors):
    for count in range(max_factors + 1):
        for combo in combinations_with_replacement(rows, count):
            counts = {}
            for r in combo:
                counts[r] = counts.get(r, 0) + 1
            yield counts


class TestAgainstBruteForce:
    def test_unique_and_reconstructs_small_grid(self):
        for counts in _exhaustive_inputs(range(-3, 4), 4):
            m = rank1_monomial(counts)
            result = q_factorize(m)
            assert result.expand() == m
            pairs = list(result.strings)
            assert all(
                in_general_position(a, b) for a, b in combinations_with_replacement(pairs, 2) if a is not b
            )
            valid = [
                part
                for part in run_partitions_topdown(counts)
                if all(
                    in_general_position(part[i], part[j])
                    for i in range(len(part))
                    for j in range(i + 1, len(part))
                )
            ]
            assert valid == [result.strings]

    @given(st.lists(st.integers(-5, 7), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_property(self, rows):
        counts = {}
        for r in rows:
            counts[r] = counts.get(r, 0) + 1
        m = rank1_monomial(counts)
        result = q_factorize(m)
        assert result.expand() == m

    @given(st.lists(st.integers(-6, 6), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_construction_is_the_searched_splitting(self, rows):
        """The one-pass splitting is the one general-position splitting that
        the exhaustive search over step-2 run partitions finds."""
        counts = {}
        for r in rows:
            counts[r] = counts.get(r, 0) + 1
        valid = [
            part
            for part in run_partitions_topdown(counts)
            if all(in_general_position(a, b) for a, b in combinations(part, 2))
        ]
        assert valid == [q_factorize(rank1_monomial(counts)).strings]
