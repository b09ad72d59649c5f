"""The public API: the names ``qcharlab`` exports, and the rule that a public
entry given an argument of the wrong type raises ``InvalidInput`` rather than
an ``AttributeError`` or ``ValueError`` from inside it."""

import pytest

import qcharlab
from qcharlab import (
    InvalidInput,
    KRSpec,
    LMonomial,
    MinAffSpec,
    Shape,
    dominant_spectrum,
    drinfeld_of_spec,
    enumerate_semistandard,
    expected_dominants,
    family_S,
    family_T,
    held_qchar,
    highest_tableau,
    is_dominant,
    is_semistandard,
    monomial_of_box,
    monomial_of_tableau,
    q_factorize,
    qchar,
    qchar_kr,
    recognize_kr,
    recognize_minaff,
    restrict,
    right_negativity,
    snake_shape,
    weight_of,
)

PUBLIC_NAMES = (
    "CaseTag",
    "InvalidInput",
    "InvariantViolation",
    "KRSpec",
    "LMonomial",
    "LRootDecomposition",
    "MinAffSpec",
    "QChar",
    "Resonance",
    "Shape",
    "StringList",
    "Tableau",
    "TensorReport",
    "TheoremViolation",
    "Weight",
    "classify_normal",
    "classify_variant",
    "dominant_spectrum",
    "drinfeld_of_spec",
    "enumerate_semistandard",
    "expand_lroot_path",
    "expand_simple_lroot",
    "expected_dominants",
    "family_S",
    "family_T",
    "held_qchar",
    "highest_tableau",
    "is_dominant",
    "is_semistandard",
    "kr_qchar_by_partitions",
    "le",
    "lroot_decompose",
    "monomial_of_box",
    "monomial_of_tableau",
    "product_qchar",
    "q_factorize",
    "qchar",
    "qchar_kr",
    "recognize_kr",
    "recognize_minaff",
    "resonance_window",
    "restrict",
    "right_negativity",
    "semistandard_fillings",
    "snake_shape",
    "transform",
    "weight_of",
    "weyl_dim",
    "y_string",
)


def test_public_names_are_pinned():
    """Moving code between modules must not drop a public name."""
    assert len(PUBLIC_NAMES) == 49
    assert sorted(qcharlab.__all__) == sorted(PUBLIC_NAMES)
    namespace: dict = {}
    exec("from qcharlab import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(qcharlab, name), name


SPEC = MinAffSpec(2, (1, 1), "inc")
KR = KRSpec(2, 2, 0, 1)
Y = LMonomial.y(2, 1, 0)

# (id, call): every call passes one argument of the wrong type, a str or the
# other spec type, to a public entry
WRONG_TYPED = [
    ("qchar_str", lambda: qchar("x")),
    ("qchar_krspec", lambda: qchar(KR)),
    ("qchar_kr_str", lambda: qchar_kr("x")),
    ("qchar_kr_minaffspec", lambda: qchar_kr(SPEC)),
    ("held_qchar", lambda: held_qchar("x")),
    ("drinfeld_of_spec", lambda: drinfeld_of_spec("x")),
    ("highest_tableau", lambda: highest_tableau("x")),
    ("recognize_minaff", lambda: recognize_minaff("x", "inc")),
    ("recognize_kr", lambda: recognize_kr("x")),
    ("is_dominant", lambda: is_dominant("x")),
    ("weight_of", lambda: weight_of("x")),
    ("restrict", lambda: restrict("x", [1])),
    ("right_negativity", lambda: right_negativity("x")),
    ("snake_shape", lambda: snake_shape("x")),
    ("monomial_of_tableau", lambda: monomial_of_tableau("x")),
    ("is_semistandard", lambda: is_semistandard("x")),
    ("q_factorize", lambda: q_factorize("x")),
    ("expected_dominants_spec", lambda: expected_dominants("x", KR, None)),
    ("expected_dominants_kr", lambda: expected_dominants(SPEC, "x", None)),
    ("expected_dominants_resonance", lambda: expected_dominants(SPEC, KR, "x")),
    ("dominant_spectrum", lambda: dominant_spectrum("x")),
    ("family_S_krspec", lambda: family_S(KR, 1, 1, 3)),
    ("family_T_minaffspec", lambda: family_T(SPEC, 1, 1)),
    ("monomial_times_str", lambda: Y * "x"),
    ("monomial_times_qchar", lambda: Y * qchar(SPEC)),
    ("monomial_divided_by_str", lambda: Y / "x"),
    ("monomial_of_box_rank", lambda: monomial_of_box(2.5, 1, 0)),
    ("monomial_of_box_content", lambda: monomial_of_box(2, 1.5, 0)),
    ("monomial_of_box_support", lambda: monomial_of_box(2, 1, "0")),
    ("enumerate_semistandard_str", lambda: next(enumerate_semistandard(2, "ab"))),
    ("enumerate_semistandard_int", lambda: next(enumerate_semistandard(2, 5))),
    ("enumerate_semistandard_pairs", lambda: next(enumerate_semistandard(2, ((1, 0),)))),
]


@pytest.mark.parametrize("call", [call for _, call in WRONG_TYPED], ids=[name for name, _ in WRONG_TYPED])
def test_wrong_typed_argument_is_invalid_input(call):
    with pytest.raises(InvalidInput) as info:
        call()
    assert type(info.value) is InvalidInput


def test_right_typed_arguments_still_pass():
    # the checks reject only the wrong type: the same entries, rightly typed
    assert qchar_kr(KR) == qchar(KR.as_minaff())
    assert next(enumerate_semistandard(2, Shape(((1, 0),)))).cols == ((1,),)
    assert (Y * Y).items() == (((1, 0), 2),)
    assert is_semistandard(highest_tableau(SPEC))
