"""Tensor products of a minimal affinization with an extreme-node KR module.

The product q-character is held as its two factors.  Its dominant
spectrum D is still exhaustive and exact: ``minaff.anchor_join`` walks one
factor's exponent tuples against a join index of the other factor's (the
only one indexed), finds every pair whose product is dominant, the top
pair included, and merges only those pairs' tuples, building one
``LMonomial`` per distinct product, before D is sorted along the
loop-root order.  The full product is convolved only when
something asks for all of its terms.  On top of D, the classifier
evaluates the closed-form reducibility conditions, reads the extra simple
factor's highest loop weight off its tableau family (each family checks
its box products against loop-root products), and cross-checks every
prediction against D.  Brute force is
always the arbiter: a disagreement raises TheoremViolation, which signals
an implementation bug and is counted as a violation by the sweep harness.

Normal form is an increasing minimal affinization tensored with a KR module
at the last node.  The four direction/node combinations are the rows of
the ``VARIANTS`` table (see ``Variant``), and every row runs through one
pipeline, ``_classify``: D by brute force, the row's resonance, the case
tag, and the report.  Its one row-specific step checks normal form
against the closed form; the three other rows are checked by transporting
the problem through the row's duality map, classifying the transported
normal-form problem, and carrying the answer back.

D does not depend on the KR anchor r through anything but tau_r, so
``spectra_by_anchor`` finds D at every anchor of a group (spec, node, k) by
one join against the anchor-0 KR character, whose dicts are finished
spectra; a sweep reads each point's D from that map (``whole_group``),
which also certifies the anchors it does not visit.  The resonance
equations are solved for r once per group too (``_resonances``, r -> the
resonances there): each point looks its resonance up, and the sweep window
is the hull of the table.  The transported problem depends on r only
through tau_r as well: it is recognised once per group, at anchor 0
(``_transported_spec``, whose spec is the sweep's own instance,
``_shared_spec``), and ``_transported`` moves its KR module to the
point's anchor; the closed form's gap members are built at anchor 0 and
moved by tau_r too, and multiplied as exponent tuples.  A single point
(the ``tensor`` command, and the transports of its rows a, b and c)
joins the held affinization with the held KR module (``held_qchar`` of
each) at its one anchor, and neither character is searched whole: the KR
search yields only the terms whose
negative exponents the affinization's ``raise_bound`` clears, the
affinization search only the terms whose negative exponents those KR
terms can cover, and only those are walked.
The sweep keeps the full characters, because its join certifies every
anchor of the group (the ``r_window`` check), and a bound over every
shift would prune almost nothing.

Most anchors of a group are quiet: ``_loud_anchors`` names the others,
and only the sweep (``qcharlab.sweep``) answers a quiet anchor from group
data.  ``classify_variant`` and ``classify_normal`` run every check at
every anchor.

A global spectral shift tau_t changes no classification, so the transport
step asks ``classify_normal`` for the transported problem at shift 0 and
shifts the answer back.  ``transform`` applies the shift after its map, so
the transport costs one ``transform`` pass per monomial: one for the KR
module on the way there, one for each monomial carried back.
``classify_normal`` is cached on its arguments, so a normal-row point and
every transport that lands on the same problem share one brute-force
classification; every a/b/c report still runs every transport check.  The
members of the two tableau families (``family_S``, ``family_T``) are cached
on their arguments too, so each distinct member runs its checks once;
these caches and ``spectra_by_anchor`` key on the argument types as well
(``typed=True``), so that a float or bool index still meets the
exact-integer rule.  Every cache of this module belongs to one command
(``sweep.clear_caches``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from typing import Optional

from .errors import InvalidInput, InvariantViolation, TheoremViolation, require_int
from .lweight import (
    LMonomial,
    expand_lroot_path,
    le,
    monomial_sort_key,
    product_exps,
    transform,
    y_string,
)
from .minaff import (
    CACHE_SIZE,
    KRSpec,
    MinAffSpec,
    QChar,
    _seg,
    _shared_spec,
    anchor_join,
    drinfeld_of_spec,
    held_qchar,
    highest_tableau,
    qchar,
    qchar_kr,
    recognize_kr,
    recognize_minaff,
)
from .tableaux import Tableau, monomial_of_tableau, snake_shape


@dataclass(frozen=True)
class Resonance:
    """A solution of one of the two spectral resonance equations.

    ``kind`` is "i" (KR string meets a node string) or "ii" (top node string
    meets the KR string).  The tensor product is reducible only when
    ``kprime`` also clears the tighter bound recorded in CaseTag.  On the
    normal and a rows, D grows past the top term exactly at the resonant
    anchors, beyond the bound too; on rows b and c it need not (D can be
    {lambda} at a resonance and grow without one, irreducible either way).
    ``p`` is None for kind "ii" resonances whose kprime exceeds the weight
    total.
    """

    kind: str
    kprime: int
    p: Optional[int]


@dataclass(frozen=True, eq=False)
class Variant:
    """One direction/node combination and its transport to normal form.

    ``first`` puts the KR module at node 1, else at node n.  ``inverse`` and
    ``forward`` name the ``transform`` kinds that carry the variant to
    normal form and back (None for normal form itself); ``exact_D`` marks
    the one that commutes with q-characters termwise, so that D must
    transport exactly.  Everything else follows from ``first`` and
    ``flipped``; see ``_resonances`` and ``_socle_head``.  The rows of
    ``VARIANTS`` are the only instances, compared and hashed by identity.
    """

    name: str
    direction: str
    first: bool
    forward: Optional[str] = None
    inverse: Optional[str] = None
    exact_D: bool = False

    @property
    def flipped(self) -> bool:
        return (self.direction == "inc") == self.first


VARIANTS = {
    v.name: v
    for v in (
        Variant("normal", "inc", False),
        Variant("a", "dec", True, "star", "star_inv", exact_D=True),
        Variant("b", "inc", True, "kappa", "kappa"),
        Variant("c", "dec", False, "minus", "minus"),
    )
}
_VARIANT_OF_ROW = {(v.direction, v.first): v for v in VARIANTS.values()}


def _variant_of(direction: str, first: bool) -> Variant:
    # callers pass first = (node != n): at n = 1 the node is also last, and last wins
    return _VARIANT_OF_ROW[direction, first]


# CaseTag.kind -> the report's "case" field
_CASE_JSON = {"irreducible": "irred", "case_i": "i", "case_ii": "ii"}


@dataclass(frozen=True)
class CaseTag:
    kind: str  # "irreducible" | "case_i" | "case_ii"
    p: Optional[int] = None
    kprime: Optional[int] = None

    @property
    def reducible(self) -> bool:
        return self.kind != "irreducible"

    def case_json(self) -> Optional[str]:
        return _CASE_JSON[self.kind]


@dataclass(frozen=True)
class DominantSpectrum:
    entries: tuple[tuple[LMonomial, int], ...]
    totally_ordered: bool


@dataclass(frozen=True)
class TensorReport:
    """Classifier output for one (minimal affinization, KR module) pair.

    ``json_text`` writes the report's JSON object, the ``report`` of a
    sweep line and the output of ``tensor --json``; ``to_json`` parses that
    text back, so the schema is written once.
    """

    variant: str
    spec: MinAffSpec
    kr: KRSpec
    lam: LMonomial
    D: tuple[tuple[LMonomial, int], ...]
    totally_ordered: bool
    tag: CaseTag
    resonance: Optional[Resonance]
    lambda_prime: Optional[LMonomial]
    socle_head: dict[str, tuple[LMonomial, LMonomial]]

    def to_json(self) -> dict:
        return json.loads(self.json_text())

    def json_text(self, *, spec_text: Optional[str] = None, kr_text: Optional[str] = None) -> str:
        """The report as compact JSON text with sorted keys.

        The text is assembled from fixed-order pieces, byte-identical to
        ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of the
        report dict.  Each distinct monomial is encoded once per report:
        lambda and lambda' first, since they recur in ``D`` and make up
        ``socle_head``, and any other monomial where it first appears.
        A caller that has encoded ``spec`` or ``kr`` already passes that
        text, so that it is not encoded again.
        """
        if spec_text is None:
            spec_text = self.spec.json_text()
        if kr_text is None:
            kr_text = self.kr.json_text()
        lam, prime = self.lam, self.lambda_prime
        lam_text = lam.json_text()
        texts = {lam: lam_text}
        prime_text = "null"
        if prime is not None:
            prime_text = texts.get(prime) or texts.setdefault(prime, prime.json_text())
        tag, res = self.tag, self.resonance
        D = ",".join(
            [
                f'{{"m":{texts.get(m) or texts.setdefault(m, m.json_text())},"mult":{c}}}'
                for m, c in self.D
            ]
        )
        socle_head = ",".join(
            [
                f'{_json_str(order)}:{{"head":{texts.get(h) or texts.setdefault(h, h.json_text())},'
                f'"socle":{texts.get(s) or texts.setdefault(s, s.json_text())}}}'
                for order, (s, h) in sorted(self.socle_head.items())
            ]
        )
        resonance = "null"
        if res is not None:
            kind, kprime, p = _json_str(res.kind), _json_num(res.kprime), _json_num(res.p)
            resonance = f'{{"kind":{kind},"kprime":{kprime},"p":{p}}}'
        return (
            f'{{"D":[{D}],"case":{_json_str(tag.case_json())},"kprime":{_json_num(tag.kprime)},'
            f'"kr":{kr_text},"lambda":{lam_text},'
            f'"lambda_prime":{prime_text},"n":{self.spec.n},"p":{_json_num(tag.p)},'
            f'"resonance":{resonance},"socle_head":{{{socle_head}}},"spec":{spec_text},'
            f'"totally_ordered":{"true" if self.totally_ordered else "false"},'
            f'"variant":{_json_str(self.variant)}}}'
        )


def _json_num(v: Optional[int]) -> str:
    return "null" if v is None else str(v)


def product_qchar(q1: QChar, q2: QChar) -> QChar:
    """Product of two q-characters (tensor product character).

    The product is held as its two factors (``QChar.product``): its
    dominant terms come from a join that multiplies only the dominant
    pairs, and all of its terms are convolved only when asked for.
    """
    return QChar.product(q1, q2)


def _spectrum(entries) -> DominantSpectrum:
    """Sorted dominant terms with the flag saying whether consecutive
    entries are comparable, i.e. whether the spectrum is a chain."""
    chain = all(
        le(entries[j + 1][0], entries[j][0]) for j in range(len(entries) - 1)
    )
    return DominantSpectrum(tuple(entries), chain)


def dominant_spectrum(qc: QChar) -> DominantSpectrum:
    """Dominant terms of a q-character, sorted descending along the order.

    The sort key strictly refines the loop-root partial order; the flag
    records whether consecutive entries are actually comparable, i.e.
    whether the spectrum is a chain.
    """
    return _spectrum(qc.dominant_terms())


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def spectra_by_anchor(
    spec: MinAffSpec, node: int, k: int
) -> dict[int, tuple[tuple[LMonomial, int], ...]]:
    """The dominant spectrum D of V (x) W(node, r, k) at every KR anchor r
    where it is not {lambda}, sorted as ``dominant_spectrum`` sorts it; at
    every other anchor D = {lambda}.

    One ``anchor_join`` of ``qchar(spec)`` against the anchor-0 KR
    character W0 gives D at every r, since ``W(node, r, k) = tau_r(W0)``:
    its keys are the anchors where a pair other than the two top terms is
    dominant, and at every other anchor the top pair alone makes lambda.
    So the map certifies the whole group (spec, node, k), not only the
    anchors a sweep visits.  The ``r_window`` check: an anchor with
    D != {lambda} outside ``resonance_window(spec, node, k, pad=0)`` raises
    TheoremViolation.  Cached like ``qchar`` (at most ``CACHE_SIZE`` groups).
    """
    window = resonance_window(spec, node, k, 0)
    w0 = qchar_kr(KRSpec(spec.n, node, 0, k))
    out = {}
    for r, terms in sorted(anchor_join(qchar(spec), w0).items()):
        if r not in window:
            raise TheoremViolation(
                f"dominant spectrum at KR anchor {r} is not {{lambda}}, outside the "
                f"resonance window {window.start}..{window.stop - 1} of {spec} at node {node}, k = {k}"
            )
        out[r] = tuple(sorted(terms.items(), key=lambda mc: monomial_sort_key(mc[0])))
    return out


# ---------------------------------------------------------------------------
# distinguished tableau families
# ---------------------------------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def family_S(spec: MinAffSpec, c: int, f: int, p: int) -> tuple[Tableau, LMonomial]:
    """Raise the last boxes of columns c..f of the highest tableau to content p.

    Columns of the (increasing) highest tableau are numbered from 1, longest
    first.  Conventions: f < c, c beyond the last column, or p = 0 return the
    highest tableau unchanged; f past the last column is clamped.  A p that
    does not exceed the length of column c would not raise anything and is
    rejected.

    The returned monomial is verified against the inverse loop-root product
    over the modified columns before being handed back: the column
    ``(l, s)`` is the variable ``Y[l, s + l - 1]``, and raising it divides
    by the root path from node l to node p - 1 at that anchor.  The member
    does not depend on a KR module, and it is cached on the arguments and
    their types (at most ``CACHE_SIZE`` members), so each distinct member
    is built and checked once.
    """
    for what, v in (("column index", c), ("last column", f), ("content bound", p)):
        require_int(what, v)
    if spec.direction != "inc":
        raise InvalidInput("the raised-box family is built from increasing specs")
    if c < 1:
        raise InvalidInput(f"column index must be positive, got {c}")
    if not 0 <= p <= spec.n + 1:
        raise InvalidInput(f"content bound {p} out of range 0..{spec.n + 1}")
    S = highest_tableau(spec)
    omega = drinfeld_of_spec(spec)
    total = spec.total
    if p == 0 or c > total or f < c:
        return S, omega
    f = min(f, total)
    columns = S.shape.columns
    if p <= columns[c - 1][0]:
        raise InvalidInput(
            f"content bound {p} does not exceed the length {columns[c - 1][0]} of column {c}"
        )
    new_cols = list(S.cols)
    roots = LMonomial.identity(spec.n)
    for j in range(c, f + 1):
        l, s = columns[j - 1]
        new_cols[j - 1] = new_cols[j - 1][:-1] + (p,)
        roots = roots * expand_lroot_path(spec.n, l, p - 1, s + l - 1)
    t = Tableau(spec.n, S.shape, tuple(new_cols))
    mono = monomial_of_tableau(t)
    if mono != omega * roots.inverse():
        raise TheoremViolation(
            f"box product and loop-root product disagree for S_({c},{f},{p})"
        )
    return t, mono


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def family_T(kr: KRSpec, m: int, p: int) -> tuple[Tableau, LMonomial]:
    """The KR tableau with a gap at the p-th box of each of the first m columns.

    The column ``(n, s)`` is the variable ``Y[n, s + n - 1]`` of the
    Drinfeld polynomial (``snake_shape``).  Conventions: m is clamped to the
    number of columns, and m = 0 or p = n + 1 return the highest tableau.
    The monomial is computed from the boxes and verified against both the
    inverse loop-root product and the closed three-string form before being
    returned.  Cached like ``family_S``: ``_lambda_prime_normal`` asks again
    for the member that ``expected_dominants`` has just built.
    """
    for what, v in (("gap count", m), ("gap position", p)):
        require_int(what, v)
    n = kr.n
    if kr.node != n:
        raise InvalidInput("the gap family is built from KR modules at the last node")
    if not 1 <= p <= n + 1:
        raise InvalidInput(f"gap position {p} out of range 1..{n + 1}")
    m = min(max(m, 0), kr.k)
    r, k = kr.r, kr.k
    varpi = kr.drinfeld()
    shape = snake_shape(varpi)
    plain = tuple(range(1, n + 1))
    gapped = tuple(range(1, p)) + tuple(range(p + 1, n + 2))
    if p == n + 1 or m == 0:
        return Tableau(n, shape, (plain,) * k), varpi
    cols = (gapped,) * m + (plain,) * (k - m)
    t = Tableau(n, shape, cols)
    mono = monomial_of_tableau(t)

    roots = LMonomial.identity(n)
    for l in range(1, m + 1):
        roots = roots * expand_lroot_path(n, n, p, r + 2 * (k - l))
    from_roots = varpi * roots.inverse()

    s = r + 2 * (k - p) + n - 1
    closed = y_string(n, p, s + p - 2 * m + 3, m).inverse() * y_string(n, n, r, k - m)
    if p >= 2:
        closed = closed * y_string(n, p - 1, s + p - 2 * (m - 1), m)
    if not (mono == from_roots == closed):
        raise TheoremViolation(f"gap-family formulas disagree for T_({m},{p})")
    return t, mono


# ---------------------------------------------------------------------------
# resonance conditions
# ---------------------------------------------------------------------------


def _kind_ii_node(lam: tuple[int, ...], kp: int, first: bool) -> Optional[int]:
    """min{i : lam_1 + ... + lam_i >= kp} for a KR module at node 1, else
    max{i : lam_i + ... + lam_n >= kp}; None when kp exceeds the total."""
    n = len(lam)
    if kp > sum(lam):
        return None
    if first:
        return min(i for i in range(1, n + 1) if _seg(lam, 1, i) >= kp)
    return max(i for i in range(1, n + 1) if _seg(lam, i, n) >= kp)


@lru_cache(maxsize=CACHE_SIZE)
def _resonances(variant: Variant, spec: MinAffSpec, k: int) -> dict[int, tuple[Resonance, ...]]:
    """Every resonance of the variant's two equations ``s*r + c = 2k'``,
    1 <= k' <= cap, by the KR anchor ``r = s*(2k' - c)`` that solves it.

    The equations do not depend on r, so the table is cached per group:
    kind "i" at each supported node p (cap lam_p), kind "ii" at i1 if the
    KR module sits at node 1, else at i0 (cap k), each anchor's entries in
    that order.  The left side either rises, ``r + 2k + o(p) - r_p``, or
    falls, ``r_p + 2 lam_p + o(p) - r``, with o(p) = p + 1 at node 1 and
    n + 2 - p at node n; kind "i" rises and kind "ii" falls unless
    ``flipped``.
    """
    n, lam = spec.n, spec.lam
    anchors = spec.anchors()

    def equation(rising: bool, p: int) -> tuple[int, int]:
        offset = p + 1 if variant.first else n + 2 - p
        if rising:
            return 1, 2 * k + offset - anchors[p]
        return -1, anchors[p] + 2 * lam[p - 1] + offset

    q = spec.i1 if variant.first else spec.i0
    rows = [("i", p, *equation(not variant.flipped, p), lam[p - 1]) for p in spec.supp()]
    rows.append(("ii", q, *equation(variant.flipped, q), k))
    table: dict[int, tuple[Resonance, ...]] = {}
    for kind, p, s, c, cap in rows:
        for kp in range(1, cap + 1):
            at = _kind_ii_node(lam, kp, variant.first) if kind == "ii" else p
            r = s * (2 * kp - c)
            table[r] = (*table.get(r, ()), Resonance(kind, kp, at))
    return table


def _resonance(variant: Variant, spec: MinAffSpec, kr: KRSpec) -> Optional[Resonance]:
    """The resonance at the point's anchor, looked up in ``_resonances``:
    unique, as the two kinds exclude each other.  Reducibility needs the
    extra caps (k' <= k resp. k' <= |lam|), which the caller decides."""
    found = _resonances(variant, spec, kr.k).get(kr.r, ())
    if len(found) > 1:
        raise TheoremViolation(f"resonance conditions not unique: {list(found)}")
    return found[0] if found else None


_IRREDUCIBLE = CaseTag("irreducible")


def _tag_of(spec: MinAffSpec, kr: KRSpec, res: Optional[Resonance]) -> CaseTag:
    if res is None:
        return _IRREDUCIBLE
    if res.kind == "i":
        if res.kprime <= kr.k:
            return CaseTag("case_i", res.p, res.kprime)
    else:
        if res.kprime <= spec.total:
            return CaseTag("case_ii", res.p, res.kprime)
    return _IRREDUCIBLE


def _gap_member(kr: KRSpec, m: int, p: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The exponent tuple of ``family_T(kr, m, p)``'s monomial: the member
    at anchor 0, which a group shares, moved by tau_r (a T member at
    anchor r is tau_r of the one at anchor 0)."""
    r = kr.r
    exps = family_T(kr._at(0), m, p)[1].items()
    return tuple([((i, s + r), e) for (i, s), e in exps]) if r else exps


def expected_dominants(
    spec: MinAffSpec, kr: KRSpec, resonance: Optional[Resonance]
) -> list[LMonomial]:
    """Closed-form dominant spectrum of the normal-form product, descending.

    Without a resonance this is the top term alone.  A kind-"ii" resonance
    contributes the raised-column family times the KR top term; a kind-"i"
    resonance interleaves the raised-column and gap families.  Duplicates
    arising from the clamping conventions collapse.  The members are
    multiplied as exponent tuples (``product_exps``), and one ``LMonomial``
    is built per distinct product.
    """
    omega = drinfeld_of_spec(spec)
    varpi = kr.drinfeld()
    if resonance is None:
        return [omega * varpi]
    total = spec.total
    out = []
    if resonance.kind == "ii":
        varpi_exps = varpi.items()
        for f in range(resonance.kprime + 1):
            out.append(product_exps(family_S(spec, 1, min(f, total), spec.n + 1)[1].items(), varpi_exps))
    else:
        p, kp = resonance.p, resonance.kprime
        c = 1 + _seg(spec.lam, p, spec.n)
        m_max = min(kr.k, _seg(spec.lam, 1, p - 1) + kp)
        for m in range(m_max + 1):
            gap_part = _gap_member(kr, m, p)
            for eps in (1, 0):
                f = c + m - kp - eps
                s_part = omega if f < c else family_S(spec, c, min(f, total), p)[1]
                out.append(product_exps(s_part.items(), gap_part))
    return [LMonomial._make(spec.n, exps) for exps in dict.fromkeys(out)]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _socle_head(
    variant: Variant, tag: CaseTag, lam: LMonomial, lam_prime: Optional[LMonomial]
) -> dict[str, tuple[LMonomial, LMonomial]]:
    """Socle/head pairs for both tensor orders (V = affinization first).

    For the unflipped variants (normal and a), condition (i) makes V
    highest-loop-weight (socle the extra factor, head the top factor) and
    condition (ii) the reverse; for the flipped ones (b and c) the roles of
    (i) and (ii) swap.  The rule for c is forced by the rank-1 collapse onto
    the normal form: transporting the exact sequences through
    dual-then-pullback composes two order swaps, so c patterns with b, not
    with a.
    """
    if not tag.reducible:
        return {"V": (lam, lam), "Vprime": (lam, lam)}
    if lam_prime is None:
        raise InvariantViolation(f"reducible tag {tag} without an extra factor")
    if (tag.kind == "case_i") != variant.flipped:
        return {"V": (lam_prime, lam), "Vprime": (lam, lam_prime)}
    return {"V": (lam, lam_prime), "Vprime": (lam_prime, lam)}


def _lambda_prime_normal(spec: MinAffSpec, kr: KRSpec, tag: CaseTag) -> LMonomial:
    """Extra factor's highest loop weight: the family member, whose box
    product the family checks against its loop-root product.  Condition (i)
    gives ``omega * T(k', p)``, condition (ii) ``S(1, k', n + 1) * varpi``."""
    if tag.p is None or tag.kprime is None:
        raise InvariantViolation(f"reducible tag {tag} without a node or k'")
    if tag.kind == "case_i":
        return drinfeld_of_spec(spec) * LMonomial._make(spec.n, _gap_member(kr, tag.kprime, tag.p))
    return family_S(spec, 1, tag.kprime, spec.n + 1)[1] * kr.drinfeld()


@lru_cache(maxsize=CACHE_SIZE)
def _transported_spec(
    variant: Variant, spec: MinAffSpec, node: int, k: int
) -> tuple[MinAffSpec, int, KRSpec]:
    """The normal-form problem (spec_t, kr_t) at shift 0 that the row's
    ``inverse`` map carries the group's anchor-0 point (spec, KR(node, 0,
    k)) to, and the shift t.  Recognised once per group: kr_t at tau_{-t}
    of the KR module's transport, in one ``transform`` call.  Raises
    TheoremViolation when either is not recognised."""
    spec_t = recognize_minaff(transform(drinfeld_of_spec(spec), variant.inverse), "inc")
    if spec_t is None:
        raise TheoremViolation("transported affinization is not increasing")
    t = spec_t.shift
    kr_t = recognize_kr(transform(KRSpec(spec.n, node, 0, k).drinfeld(), variant.inverse, -t))
    if kr_t is None or kr_t.node != spec.n:
        raise TheoremViolation("transported KR module is not at the last node")
    return _shared_spec(spec_t.n, spec_t.lam, "inc", 0), t, kr_t


def _transported(variant: Variant, spec: MinAffSpec, kr: KRSpec) -> tuple[MinAffSpec, int, KRSpec]:
    """The point's normal-form problem (spec_t, kr_t) at shift 0 and the
    shift t: its group's ``_transported_spec`` with kr_t moved by tau_r.
    ``transform`` carries tau_r to tau_{sigma r}, with sigma = -1 on the
    flipped rows (their maps negate r) and +1 on row a, so kr_t sits at
    r_t(0) + sigma * r.  Raises what ``_transported_spec`` raises."""
    spec_t, t, kr_t = _transported_spec(variant, spec, kr.node, kr.k)
    r_t = kr_t.r - kr.r if variant.flipped else kr_t.r + kr.r
    return spec_t, t, kr_t._at(r_t)


def _loud_anchors(spec: MinAffSpec, node: int, k: int) -> frozenset[int]:
    """The anchors r of the group (spec, node, k) where a sweep runs the
    checks of ``_classify``; at every other anchor it writes the
    irreducible report of lambda from group data.

    An anchor is loud if ``_resonances`` or ``spectra_by_anchor`` has an
    entry there, or, on rows a, b and c, if its transported anchor r_t is
    loud in the transported normal-form group.  So a quiet anchor has
    D = {lambda} and no resonance, on both sides of the transport, and
    every check holds there vacuously.  The problem is transported once,
    at anchor 0 (``_transported_spec``), and r_t = r_t(0) + sigma * r as
    in ``_transported``.  Raises what ``_transported_spec`` raises.
    Found once per group record, so it is not cached.
    """
    variant = _variant_of(spec.direction, node != spec.n)
    loud = {*spectra_by_anchor(spec, node, k), *_resonances(variant, spec, k)}
    if variant.inverse is not None:
        spec_t, _, kr_t = _transported_spec(variant, spec, node, k)
        sigma = -1 if variant.flipped else 1
        loud.update(sigma * (r_t - kr_t.r) for r_t in _loud_anchors(spec_t, kr_t.node, kr_t.k))
    return frozenset(loud)


def _classify(variant: Variant, spec: MinAffSpec, kr: KRSpec, whole_group: bool) -> TensorReport:
    """The classifier pipeline shared by every row of ``VARIANTS``, which
    runs every check at every anchor.

    D is brute-forced: from the pair's own product of two held characters,
    each searched only for the terms the other can cover, or, with
    ``whole_group``, read from ``spectra_by_anchor`` for the point's group.
    The row's resonance is looked up on the untransformed data.  The normal
    row then checks the closed form: D is a chain of multiplicity-one
    terms equal to ``expected_dominants``, and the extra factor, the
    family member, sits at its predicted position (condition (i): just
    below the top family; condition (ii): the minimum of D).  Every other
    row asks ``classify_normal`` for its ``_transported`` problem at shift
    0 and carries its D and extra factor back through tau_t and the row's
    ``forward`` map, one ``transform`` call per monomial.  It checks that
    the resonance (with p -> n + 1 - p at node 1) and the verdict agree,
    that D transports exactly where the row says so, and that D contains
    the transported extra factor.
    """
    lam = drinfeld_of_spec(spec) * kr.drinfeld()
    if whole_group:
        found = spectra_by_anchor(spec, kr.node, kr.k).get(kr.r)
        spectrum = _spectrum(found) if found else DominantSpectrum(((lam, 1),), True)
    else:
        spectrum = dominant_spectrum(product_qchar(held_qchar(spec), held_qchar(kr.as_minaff())))
    D = [m for m, _ in spectrum.entries]
    res = _resonance(variant, spec, kr)
    tag = _tag_of(spec, kr, res)
    lam_prime: Optional[LMonomial] = None

    if variant.inverse is None:
        if not spectrum.totally_ordered:
            raise TheoremViolation("dominant spectrum is not a chain")
        if any(c != 1 for _, c in spectrum.entries):
            raise TheoremViolation("dominant spectrum has a multiplicity above one")
        expected = expected_dominants(spec, kr, res)
        if D != expected:
            raise TheoremViolation(
                "brute-force dominant spectrum disagrees with the closed form: "
                f"{[str(m) for m in D]} vs {[str(m) for m in expected]}"
            )
        if tag.reducible:
            lam_prime = _lambda_prime_normal(spec, kr, tag)
            pos = tag.kprime if tag.kind == "case_i" else len(D) - 1
            if pos >= len(D) or D[pos] != lam_prime:
                raise TheoremViolation(f"extra factor {lam_prime} not at position {pos} of D")
    else:
        # a global spectral shift changes no classification, so the cached
        # shift-0 problem serves every shift of it
        spec_t, t, kr_t = _transported(variant, spec, kr)
        normal = _normal(spec_t, kr_t, whole_group)
        # forward after tau_t is forward then tau_{+-t}: the maps of the
        # flipped rows negate r, and with it the sign of the shift
        back_t = -t if variant.flipped else t

        res_t = normal.resonance
        if variant.first and res_t is not None and res_t.p is not None:
            res_t = Resonance(res_t.kind, res_t.kprime, spec.n + 1 - res_t.p)
        if res != res_t:
            raise TheoremViolation(
                f"direct conditions {res} disagree with transported "
                f"{normal.resonance} on variant {variant.name}"
            )
        if tag.reducible != normal.tag.reducible:
            raise TheoremViolation("reducibility verdicts disagree across the transport")
        if variant.exact_D and D != [transform(m, variant.forward, back_t) for m, _ in normal.D]:
            raise TheoremViolation(f"dominant spectrum does not transport under {variant.forward}")
        if tag.reducible:
            if normal.lambda_prime is None:
                raise InvariantViolation("transported reducible report has no extra factor")
            lam_prime = transform(normal.lambda_prime, variant.forward, back_t)
            if lam_prime not in D:
                raise TheoremViolation(
                    f"transported extra factor {lam_prime} missing from brute-force "
                    f"D = {[str(m) for m in D]} (possible spectral-shift discrepancy)"
                )

    return TensorReport(
        variant=variant.name,
        spec=spec,
        kr=kr,
        lam=lam,
        D=spectrum.entries,
        totally_ordered=spectrum.totally_ordered,
        tag=tag,
        resonance=res,
        lambda_prime=lam_prime,
        socle_head=_socle_head(variant, tag, lam, lam_prime),
    )


def _require_spec(spec) -> None:
    if not isinstance(spec, MinAffSpec):
        raise InvalidInput(f"a spec must be a MinAffSpec, got {spec!r}")


def _check_point(spec, kr, whole_group: bool = False) -> None:
    """Reject, as InvalidInput, a point that is not a ``MinAffSpec`` and a
    ``KRSpec`` of the same rank, or a ``whole_group`` that is not a bool."""
    _require_spec(spec)
    if not isinstance(kr, KRSpec):
        raise InvalidInput(f"a KR module must be a KRSpec, got {kr!r}")
    if kr.n != spec.n:
        raise InvalidInput("rank mismatch between spec and KR module")
    if type(whole_group) is not bool:
        raise InvalidInput(f"whole_group must be a bool, got {whole_group!r}")


@lru_cache(maxsize=CACHE_SIZE)
def classify_normal(spec: MinAffSpec, kr: KRSpec, whole_group: bool = False) -> TensorReport:
    """Classify (increasing affinization) x (KR at the last node).

    The normal-form row of ``_classify``: D is checked against the closed
    form, and the extra factor is the family member, whose box product the
    family checks against its loop-root product, placed in D.  The
    report is cached on the arguments, so the normal-row point and every
    transport that lands on the same problem share one classification.
    """
    _check_point(spec, kr, whole_group)
    if spec.direction != "inc":
        raise InvalidInput("normal form requires an increasing spec")
    if kr.node != spec.n:
        raise InvalidInput("normal form requires a KR module at the last node")
    return _classify(VARIANTS["normal"], spec, kr, whole_group)


def classify_variant(spec: MinAffSpec, kr: KRSpec, whole_group: bool = False) -> TensorReport:
    """Classify any direction/node combination.

    The row of ``VARIANTS`` is picked by direction and KR node (at n = 1
    the node counts as last).  The normal row is ``classify_normal``; every
    other row is classified by ``_classify`` against the normal-form
    classification of its transported pair.  ``whole_group`` takes D from
    ``spectra_by_anchor``, which classifies every anchor of (spec, node, k)
    at once: the sweep's choice, as it visits a group's anchors in a row.
    One point alone is cheaper from its own product character.
    """
    _check_point(spec, kr, whole_group)
    variant = _variant_of(spec.direction, kr.node != spec.n)
    if variant.inverse is None:
        return _normal(spec, kr, whole_group)
    return _classify(variant, spec, kr, whole_group)


def _normal(spec: MinAffSpec, kr: KRSpec, whole_group: bool) -> TensorReport:
    # the cache is keyed on the arguments as passed: a one-anchor report is
    # asked for as a direct caller asks, ``classify_normal(spec, kr)``
    return classify_normal(spec, kr, True) if whole_group else classify_normal(spec, kr)


def resonance_window(spec: MinAffSpec, node: int, k: int, pad: int = 2) -> range:
    """Inclusive range of KR anchors covering every resonance of (spec, k).

    The hull of the anchors of ``_resonances``, padded by ``pad`` on each
    side so that nearby irreducible points are swept as well.  ``spec``
    must be a ``MinAffSpec``, and ``node`` and ``k`` are checked as
    ``KRSpec`` checks them: an extreme node and a positive integer length;
    ``pad`` must be a plain ``int``.
    """
    _require_spec(spec)
    KRSpec(spec.n, node, 0, k)
    require_int("pad", pad)
    if pad < 0:
        raise InvalidInput("pad must be nonnegative")
    table = _resonances(_variant_of(spec.direction, node != spec.n), spec, k)
    return range(min(table) - pad, max(table) + pad + 1)
