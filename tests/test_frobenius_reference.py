"""alpha, gamma and beta against the hom-set scan reference in
``frobenius_reference.py``: equal arrows, or equal error types and
messages."""

from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from catlogic.bundles import bundled_suites
from catlogic.errors import WorkbenchError
from catlogic.heyting import gen_powerset
from catlogic.kernel import validate_category
from catlogic.logic import parse_formula, parse_theory
from catlogic.semantics import Instance, build_interpretation, derive_instances
from catlogic.structure import discover_structure
from catlogic.theorems import _alpha, _context, build_alpha, build_gamma, verify_frobenius

import frobenius_reference as ref
from conftest import PAIR_CONST_THEORY, make_finset

_FINSET_THEORY = PAIR_CONST_THEORY.format("x2n2", "x3n3", "x1n1")

MODELS = {s.suite_id: (lambda s=s: (s.model.category(), s.theory()))
          for s in bundled_suites()}
MODELS["powerset-4"] = lambda: (gen_powerset(4).category(),
                                parse_theory(PAIR_CONST_THEORY.format("e12", "e23", "e4")))
MODELS["finset-0123"] = lambda: (make_finset([0, 1, 2, 3], "finset-0123"),
                                 parse_theory(_FINSET_THEORY))
MODELS["finset-012333"] = lambda: (make_finset([0, 1, 2, 3, 3, 3], "finset-012333"),
                                   parse_theory(_FINSET_THEORY))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WorkbenchError as exc:
        return type(exc).__name__, str(exc)


def _certificate(interp, inst):
    cert = verify_frobenius(interp, inst)
    assert cert.instance is inst
    return cert.alpha, cert.gamma, cert.beta


def _assert_matches_reference(interp):
    """Every derived instance; returns the error types of the failed ones."""
    failed = []
    for inst in derive_instances(interp.theory):
        args = (interp, inst)
        cert = _outcome(_certificate, interp, inst)
        assert cert == _outcome(ref.frobenius_arrows, interp, inst)
        assert _outcome(build_alpha, *args) == _outcome(ref.build_alpha, *args)
        sol_ab = _outcome(interp.quantifier_solution, inst.existentials[0])
        if not isinstance(sol_ab, tuple):
            gamma_args = (*args, sol_ab.family.apex, sol_ab.family)
            assert _outcome(build_gamma, *gamma_args) == _outcome(ref.build_gamma, *gamma_args)
        if isinstance(cert[0], str):
            failed.append(cert[0])
    return failed


@pytest.mark.parametrize("name", sorted(MODELS))
def test_frobenius_matches_reference(name):
    cat, theory = MODELS[name]()
    assert validate_category(cat).ok
    failed = _assert_matches_reference(build_interpretation(discover_structure(cat), theory))
    # the finite sets lack exponentials, so their failure messages are compared too
    assert bool(failed) == name.startswith("finset")


def test_sabotaged_memo_matches_reference():
    # the atom map changed after preparation, as in
    # test_certificate_failure_names_arrows: the stored legs then admit no mediator
    cat = gen_powerset(2).category()
    validate_category(cat)
    theory = parse_theory(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "interp B(c) = e2\ninterp B(d) = e12\ninterp P = e1\n")
    interp = build_interpretation(discover_structure(cat), theory)
    key = ("B", (interp.universe.terms("s")[0],))
    interp.atom_map[key] = cat.obj("e12")
    interp.memo.clear()
    left = parse_formula("P", theory.signature)
    body = parse_formula("B(x)", theory.signature, env={"x": "s"})
    inst = Instance(left, body, "x", "s")
    cert = _outcome(_certificate, interp, inst)
    assert cert == _outcome(ref.frobenius_arrows, interp, inst)
    assert cert[0] in ("NoMediator", "CertificateFailure")
    _assert_matches_reference(interp)


@pytest.mark.parametrize("name", ["powerset-3/pair-const", "finset-0123"])
def test_alpha_with_replaced_legs_matches_reference(name):
    # the legs of the cocone of exists x. (A x B) replaced by every family of
    # arrows with their ends, and each leg of the other one by every arrow
    # with its ends: alpha then has one mediator or none
    cat, theory = MODELS[name]()
    interp = build_interpretation(discover_structure(cat), theory)
    st, outcomes = interp.structure, Counter()

    def compare(ctx):
        got = _outcome(_alpha, st, ctx)
        assert got == _outcome(ref._alpha, st, ctx)
        outcomes[got[0] if isinstance(got, tuple) else "alpha"] += 1

    for inst in derive_instances(theory):
        try:
            ctx = _context(interp, inst)
        except WorkbenchError:
            continue
        for fam in product(*(cat.hom(cat.objects[e.dom], cat.objects[e.cod])
                             for e in ctx.sol_ab.family.legs)):
            family = replace(ctx.sol_ab.family, legs=fam)
            compare(replace(ctx, sol_ab=replace(ctx.sol_ab, family=family)))
        for i, q in enumerate(ctx.q_legs):
            for other in cat.hom(cat.objects[q.dom], cat.objects[q.cod]):
                compare(replace(ctx, q_legs=ctx.q_legs[:i] + (other,) + ctx.q_legs[i + 1:]))
    assert outcomes["alpha"] and bool(outcomes["NoMediator"]) == name.startswith("finset")
