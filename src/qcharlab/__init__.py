"""Exact q-character combinatorics for type-A minimal affinizations.

Core objects: Laurent monomials in the variables Y[i,r] (module
``lweight``), column tableaux with integer supports (``tableaux``),
minimal-affinization and Kirillov-Reshetikhin q-characters (``minaff``),
rank-1 q-factorization (``sl2fact``), and the tensor-product classifier
with its brute-force verification layer (``tensor``).
"""

from .errors import InvalidInput, InvariantViolation, TheoremViolation
from .lweight import (
    LMonomial,
    LRootDecomposition,
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
from .minaff import (
    KRSpec,
    MinAffSpec,
    QChar,
    drinfeld_of_spec,
    highest_tableau,
    kr_qchar_by_partitions,
    qchar,
    qchar_kr,
    recognize_kr,
    recognize_minaff,
    weyl_dim,
)
from .sl2fact import StringList, q_factorize
from .tableaux import (
    Shape,
    Tableau,
    enumerate_semistandard,
    is_semistandard,
    monomial_of_box,
    monomial_of_tableau,
    semistandard_fillings,
)
from .tensor import (
    CaseTag,
    Resonance,
    TensorReport,
    classify_normal,
    classify_variant,
    dominant_spectrum,
    expected_dominants,
    family_S,
    family_T,
    product_qchar,
    resonance_window,
)

__all__ = [
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
    "transform",
    "weight_of",
    "weyl_dim",
    "y_string",
]

__version__ = "0.1.0"
