"""Quantifier objects, their revalidation and the frobenius initiality sweep
against the family-listing reference in ``quantifier_reference.py``.  A
failed search must fail in the reference too, and ``hom_recount`` confirms
the hom-set count its message states."""

import dataclasses
from collections import Counter

import pytest

from catlogic.bundles import bundled_suites
from catlogic.errors import CertificateFailure, NoQuantifierObject, WorkbenchError
from catlogic.kernel import validate_category
from catlogic.logic import Atom, Exists, Forall, Var, parse_theory, substitute
from catlogic.semantics import (
    build_interpretation,
    checked_formulas,
    derive_instances,
    revalidate_quantifier,
    search_quantifier_object,
    subformulas,
)
from catlogic.structure import discover_structure
from catlogic.theorems import _context, _initiality_sweep

from conftest import PAIR_CONST_THEORY, make_finset, make_fork
from hom_recount import check_quantifier_failure
from quantifier_reference import ref_revalidate, ref_search, ref_sweep

_FINSET_THEORY = PAIR_CONST_THEORY.format("x2n2", "x3n3", "x1n1")

MODELS = {s.suite_id: (lambda s=s: (s.model.category(), s.theory()))
          for s in bundled_suites()}
MODELS["finset-0123"] = lambda: (make_finset([0, 1, 2, 3], "finset-0123"),
                                 parse_theory(_FINSET_THEORY))
MODELS["finset-012333"] = lambda: (make_finset([0, 1, 2, 3, 3, 3], "finset-012333"),
                                   parse_theory(_FINSET_THEORY))


@pytest.fixture(scope="module", params=sorted(MODELS))
def prepared(request):
    cat, theory = MODELS[request.param]()
    assert validate_category(cat).ok
    return cat, build_interpretation(discover_structure(cat), theory)


def _quantified(interp):
    seen, out = set(), []
    for f in (*interp._quantifier_pool(), *checked_formulas(interp)):
        for sub in subformulas(f):
            if isinstance(sub, (Forall, Exists)) and sub not in seen:
                seen.add(sub)
                out.append(sub)
    return out


def test_search_and_revalidation_match_reference(prepared):
    cat, interp = prepared
    st = interp.structure
    everything = list(reversed(cat.objects))
    searched, failed = 0, Counter()
    for f in _quantified(interp):
        quant = "forall" if isinstance(f, Forall) else "exists"
        try:
            legs = [interp.interpret(substitute(f.body, t, f.var))
                    for t in interp.universe.terms(f.sort)]
        except WorkbenchError:
            continue
        for vertexes in (interp.reach.objects, everything):
            want = ref_search(cat, vertexes, quant, legs)
            searched += 1
            try:
                family = search_quantifier_object(st, vertexes, f, legs)
            except NoQuantifierObject as exc:
                assert isinstance(want, str)
                failed[check_quantifier_failure(cat, str(exc), quant, f.body,
                                                vertexes, legs)] += 1
                continue
            assert (family.apex, family.legs) == want
    for sol in interp.qmemo.values():
        for vertexes in (interp.reach.objects, everything):
            assert (revalidate_quantifier(st, vertexes, sol)
                    == ref_revalidate(cat, vertexes, sol))
    assert searched
    if cat.name.startswith("finset"):
        # hom-set sizes tell finite sets apart, so no vertex has the sizes
        assert set(failed) == {"no column"}


@pytest.mark.parametrize("op", [False, True], ids=["forall", "exists"])
def test_vertex_with_the_sizes_of_a_quantifier_object_is_named(op):
    # in the fork v has the hom-set sizes of a cone over the legs a and c (of
    # a cocone on the opposite side), but id_v and e compose with the legs
    # alike; the reference search fails there too
    cat = make_fork(op)
    st = discover_structure(cat)
    quant = "exists" if op else "forall"
    legs = [cat.obj("a"), cat.obj("c")]
    body = Atom("B", (Var("x", "s"),))
    f = (Exists if op else Forall)("x", "s", body)
    out = " counting arrows out of it" if op else ""
    # the second round reads each refutation from the table's search cache
    rounds = ((cat.objects, "[0, 2, 0]"), (cat.objects[:2], "[0, 2] from (a, v)")) * 2
    for vertexes, sizes in rounds:
        with pytest.raises(NoQuantifierObject) as exc:
            search_quantifier_object(st, vertexes, f, legs)
        assert str(exc.value) == (
            f"no {quant} object over B(x) among {[o.name for o in vertexes]}: v has the "
            f"hom-set sizes {sizes}{out}, but 2 arrows v -> v compose with (t, f) to (t, f)")
        assert isinstance(ref_search(cat, vertexes, quant, legs), str)
        assert check_quantifier_failure(cat, str(exc.value), quant, body, vertexes,
                                        legs) == "fits"


def _sweep(interp, ctx):
    try:
        sweep = _initiality_sweep(interp, ctx)
    except CertificateFailure as exc:
        return str(exc)
    return sweep.vertexes_checked, sweep.families_checked


def _ref_sweep(cat, interp, ctx):
    leg_objects = [cat.objects[e.dom] for e in ctx.sol_ab.family.legs]
    return ref_sweep(cat, interp.reach.objects, ctx.vertex, ctx.q_legs, leg_objects)


def test_initiality_sweep_matches_reference(prepared):
    cat, interp = prepared
    swept = 0
    for inst in derive_instances(interp.theory):
        try:
            ctx = _context(interp, inst)
        except WorkbenchError:
            continue
        swept += 1
        assert _sweep(interp, ctx) == _ref_sweep(cat, interp, ctx)
    assert swept


def test_sweep_with_a_replaced_leg_fails_like_reference():
    cat, theory = MODELS["finset-0123"]()
    interp = build_interpretation(discover_structure(cat), theory)
    failures = 0
    for inst in derive_instances(theory):
        try:
            ctx = _context(interp, inst)
        except WorkbenchError:
            continue
        assert isinstance(_sweep(interp, ctx), tuple)
        for i, q in enumerate(ctx.q_legs):
            for other in cat.hom(cat.objects[q.dom], cat.objects[q.cod]):
                if other == q:
                    continue
                legs = ctx.q_legs[:i] + (other,) + ctx.q_legs[i + 1:]
                bad = dataclasses.replace(ctx, q_legs=legs)
                got = _sweep(interp, bad)
                assert got == _ref_sweep(cat, interp, bad)
                failures += isinstance(got, str)
    assert failures

