"""delta, its inverse, the delta certificates and condition 4 against the
combinator-chain reference in ``delta_reference.py``: equal arrows, texts,
verdicts and failure messages."""

import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies

from catlogic.errors import UniversalityBroken, WorkbenchError
from catlogic.kernel import inverses, mutually_inverse, validate_category
from catlogic.semantics import distributivity_verdict
from catlogic.structure import discover_structure
from catlogic.theorems import build_delta, build_delta_inverse, delta_certificate

import delta_reference as ref
from conftest import REFERENCE_MODELS, make_finset
from structure_reference import ref_is_cone, ref_is_exponential


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WorkbenchError as exc:
        return type(exc).__name__, str(exc)


def _certificate(fn, st, a, b, c):
    cert = _outcome(fn, st, a, b, c)
    if isinstance(cert, tuple):
        return cert
    return (cert.triple, cert.delta, cert.delta_inv, cert.delta_provenance,
            cert.inverse_provenance, cert.equations)


def _assert_matches_reference(st):
    """Every triple of objects, then condition 4 over all of them; returns
    the errors of the failed certificates by type."""
    objects = st.cat.objects
    failed = Counter()
    for a in objects:
        for b in objects:
            for c in objects:
                for new, old in ((build_delta, ref.build_delta),
                                 (build_delta_inverse, ref.build_delta_inverse)):
                    assert _outcome(new, st, a, b, c) == _outcome(old, st, a, b, c)
                cert = _certificate(delta_certificate, st, a, b, c)
                assert cert == _certificate(ref.delta_certificate, st, a, b, c)
                if len(cert) == 2:
                    failed[cert[0]] += 1
    verdict = _outcome(distributivity_verdict, st, objects)
    if not isinstance(verdict, tuple):
        verdict = verdict.status, verdict.details
    assert verdict == _outcome(ref.ref_condition4, st, objects)
    return failed


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_delta_matches_reference(name):
    cat = REFERENCE_MODELS[name]()
    assert validate_category(cat).ok
    failed = _assert_matches_reference(discover_structure(cat))
    # the finite sets and Z2 lack exponentials or products, so their failure
    # messages are compared too
    assert bool(failed) == (name.startswith("finset") or name == "Z2")


def test_condition4_on_reach_matches_reference(prepared_suites):
    for _, _, st, interp in prepared_suites:
        verdict = distributivity_verdict(st, interp.reach.objects)
        assert (verdict.status, verdict.details) == ref.ref_condition4(st, interp.reach.objects)


@pytest.mark.parametrize("kind", ["universal", "broken", "mistyped"])
def test_replaced_witnesses_match_reference(kind):
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    one, two, three = cat.objects[1:]
    first = delta_certificate(st, one, one, one)
    assert first.delta_provenance == ref.delta_certificate(st, one, one, one).delta_provenance
    pw = st.product(one, two)    # apex 2 with projections (constant 0, identity)
    cw = st.coproduct(one, one)  # apex 2 with injections (0, 1)
    ew = st.exponential(one, two)
    cone = "is not a bijection onto the cones"
    stores = {
        # the other automorphism of 2 as second projection, the injections
        # exchanged and a copy of the exponential
        "universal": [(st.products, (1, 2), replace(pw, proj2=cat.arrow("f2_2_10")), None),
                      (st.coproducts, (1, 1), replace(cw, inj1=cw.inj2, inj2=cw.inj1), None),
                      (st.exponentials, (1, 2), replace(ew), None)],
        "broken": [(st.products, (1, 2), replace(pw, proj2=cat.arrow("f2_2_00")),
                    f"(x1n1, x2n2) with apex x2n2: composing with (f2_1_00, f2_2_00) {cone}"),
                   (st.coproducts, (1, 1), replace(cw, inj2=cw.inj1),
                    f"(x1n1, x1n1) with apex x2n2: composing with (f1_2_0, f1_2_0) {cone}")],
        # legs and apexes on the wrong objects
        "mistyped": [(st.coproducts, (1, 1), replace(cw, inj1=cat.arrow("f2_2_01")),
                      f"(x1n1, x1n1) with apex x2n2: composing with (f2_2_01, f1_2_1) {cone}"),
                     (st.exponentials, (1, 2), replace(ew, apex=three),
                      "exponential x2n2^x1n1 with apex x3n3: composing with f2_2_01 is not "
                      "a bijection onto the arrows into x2n2"),
                     (st.products, (2, 1), replace(st.product(two, one), apex=three),
                      f"(x2n2, x1n1) with apex x3n3: composing with (f2_2_01, f2_1_00) {cone}")],
    }[kind]
    for witnesses, key, witness, message in stores:
        if message is None:
            witnesses[key] = witness
        else:
            # refused when stored, which leaves the discovered witness in place
            kept = witnesses[key]
            with pytest.raises(UniversalityBroken) as exc:
                witnesses[key] = witness
            assert str(exc.value) == message and witnesses[key] is kept
    failed = _assert_matches_reference(st)
    if kind == "universal":
        assert delta_certificate(st, one, one, one).delta_provenance != first.delta_provenance
    else:
        assert failed == _assert_matches_reference(discover_structure(cat))


_FIELDS = {"products": ("apex", "proj1", "proj2"), "coproducts": ("apex", "inj1", "inj2"),
           "exponentials": ("apex", "eval")}
_FINSET = make_finset([0, 1, 2, 3], "finset-0123")
_WITNESS_KEYS = {kind: sorted(getattr(discover_structure(_FINSET), kind)) for kind in _FIELDS}


@strategies.composite
def _corruption(draw):
    kind = draw(strategies.sampled_from(sorted(_FIELDS)))
    field = draw(strategies.sampled_from(_FIELDS[kind]))
    values = _FINSET.objects if field == "apex" else _FINSET.arrows
    return (kind, draw(strategies.sampled_from(_WITNESS_KEYS[kind])), field,
            draw(strategies.sampled_from(values)))


def _universal(st, kind, w):
    """The independent hom-set scan's verdict on ``w`` as a witness of ``st``."""
    if kind == "exponentials":
        products = {key: (p.apex.index, p.proj1.index, p.proj2.index)
                    for key, p in st.products.items()}
        return ref_is_exponential(st.cat, products, w.apex, w.eval.index, w.base, w.target)
    legs = (w.proj1, w.proj2) if kind == "products" else (w.inj1, w.inj2)
    return ref_is_cone(st.cat, w.apex, legs[0].index, legs[1].index, *w.pair,
                       op=kind == "coproducts")


@settings(max_examples=30, deadline=None)
@given(strategies.lists(_corruption(), min_size=1, max_size=4))
def test_corrupted_witnesses_match_reference(corruptions):
    # witnesses replaced by copies with one leg, eval or apex set to any
    # arrow or object, well-typed or not: the table refuses exactly those
    # the hom-set scan finds not universal, and what it accepts gives the
    # reference's delta on every triple
    st = discover_structure(_FINSET)
    for kind, key, field, value in corruptions:
        witnesses = getattr(st, kind)
        witness = replace(witnesses[key], **{field: value})
        try:
            witnesses[key] = witness
        except UniversalityBroken:
            assert not _universal(st, kind, witness)
        else:
            assert _universal(st, kind, witness)
    _assert_matches_reference(st)


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_inverse_scans_match_reference(name):
    # sections and retractions of the finite sets are one-sided inverses
    cat = REFERENCE_MODELS[name]()
    for f in cat.arrows:
        assert inverses(cat, f) == ref.inverses(cat, f)
        for g in cat.hom(cat.objects[f.cod], cat.objects[f.dom]):
            assert mutually_inverse(cat, f, g) == ref.mutually_inverse(cat, f, g)


def test_certificates_with_a_moved_apex_match_reference():
    # the product 1 x 3 moved to the isomorphic copy 3' of 3 along a
    # bijection: delta then runs from 3 to 3', and its equations name both
    cat = make_finset([0, 1, 2, 3, 3, 3], "finset-012333")
    st = discover_structure(cat)
    one, three, copy = cat.objects[1], cat.objects[3], cat.objects[4]
    pw = st.product(one, three)
    assert pw.apex == three
    iso = cat.arrow("f4_3_012")
    moved = replace(pw, apex=copy, proj1=cat.compose(pw.proj1, iso),
                    proj2=cat.compose(pw.proj2, iso))
    # 1^3 = 1 evaluates out of 1 x 3, so the move is refused while it is stored
    ew = st.exponential(three, one)
    message = ("exponential x1n1^x3n3 with apex x1n1: composing with f3_1_000 is not "
               "a bijection onto the arrows into x1n1")
    with pytest.raises(UniversalityBroken, match=re.escape(message)):
        st.products[(1, 3)] = moved
    assert st.products[(1, 3)] is pw and st.exponentials[(3, 1)] is ew
    # and stored after it, with its eval moved along
    del st.exponentials[(3, 1)]
    st.products[(1, 3)] = moved
    st.exponentials[(3, 1)] = replace(ew, eval=cat.compose(ew.eval, iso))
    _assert_matches_reference(st)
    cert = delta_certificate(st, one, three, cat.objects[0])
    assert cert.equations == (f"{cert.delta_inv.name} . {cert.delta.name} = id_{three.name}",
                              f"{cert.delta.name} . {cert.delta_inv.name} = id_{copy.name}")


# The witnesses each construction reads on (a, b, c), in the order the
# combinator chains of delta_reference first look them up.  ``_NAMED`` names
# the apex a read finds, for the reads after it.
_DELTA_READS = ("C b c", "P a b", "P a b+c", "P a c", "C a*b a*c")
_INVERSE_READS = ("P a b", "P a c", "C a*b a*c", "P b a", "P c a", "E a D", "C b c",
                  "P b+c a", "P D^a a", "P a b+c")
_NAMED = {"C b c": "b+c", "P a b": "a*b", "P a c": "a*c", "C a*b a*c": "D", "E a D": "D^a"}
_KINDS = {"P": "product", "C": "coproduct", "E": "exponential"}


def _reads(st, triple, spec):
    """(kind, key) of each distinct witness of ``spec`` on ``triple``, up to
    and including the first one ``st`` lacks."""
    objects, out = dict(zip("abc", triple)), []
    for read in spec:
        letter, x, y = read.split()
        kind, key = _KINDS[letter], (objects[x].index, objects[y].index)
        if (kind, key) not in out:
            out.append((kind, key))
        witness = getattr(st, kind + "s").get(key)
        if witness is None:
            break
        if read in _NAMED:
            objects[_NAMED[read]] = witness.apex
    return out


def _without(st, deleted, text):
    """Delete the witnesses ``deleted`` from ``st``, each with a failure text
    of its own if ``text`` and none otherwise; returns the undo."""
    saved = []
    for kind, key in deleted:
        witnesses, failures = getattr(st, kind + "s"), getattr(st, kind + "_failures")
        saved.append((witnesses, failures, key, witnesses.pop(key, None), failures.pop(key, None)))
        if text:
            failures[key] = f"{kind} {key} deleted"

    def undo():
        for witnesses, failures, key, witness, failure in reversed(saved):
            failures.pop(key, None)
            if failure is not None:
                failures[key] = failure
            if witness is not None:
                dict.__setitem__(witnesses, key, witness)  # as it was, verified
    return undo


def _default(objects, kind, key):
    """The message of a missing witness with no recorded failure."""
    x, y = (objects[i].name for i in key)
    if kind == "exponential":
        return f"no exponential base {x} target {y}"
    return f"no {kind} for ({x}, {y})"


@pytest.mark.parametrize("name", ["finset-0123", "suite-powerset-3"])
def test_a_missing_witness_raises_what_the_chain_raises(name):
    # delete one witness a construction reads, and then that witness with
    # every witness read after it: either way the construction must raise
    # the chain's NoSuchStructure for it, so reading any two witnesses in
    # another order than the chain fails here
    st = discover_structure(REFERENCE_MODELS[name]())
    objects = st.cat.objects
    constructions = ((build_delta, ref.build_delta, _DELTA_READS),
                     (build_delta_inverse, ref.build_delta_inverse, _INVERSE_READS),
                     (delta_certificate, ref.delta_certificate,
                      _DELTA_READS + _INVERSE_READS + ("C b c",)))
    checked = 0
    for triple in ((a, b, c) for a in objects for b in objects for c in objects):
        for new, old, spec in constructions:
            reads = _reads(st, triple, spec)
            for i, (kind, key) in enumerate(reads):
                for deleted in (reads[i:i + 1], reads[i:]):
                    for text in (True, False):
                        undo = _without(st, deleted, text)
                        try:
                            outcome = _outcome(new, st, *triple)
                            assert outcome == _outcome(old, st, *triple)
                        finally:
                            undo()
                        assert outcome == ("NoSuchStructure", f"{kind} {key} deleted"
                                           if text else _default(objects, kind, key))
                        checked += 1
    assert _assert_matches_reference(st) == _assert_matches_reference(
        discover_structure(st.cat))
    assert checked > 1000
