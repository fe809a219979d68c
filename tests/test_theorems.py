from dataclasses import replace

import pytest

from catlogic.errors import CertificateFailure, ShapeMismatch
from catlogic.heyting import gen_chain, gen_powerset
from catlogic.kernel import mutually_inverse, validate_category
from catlogic.logic import Atom, Exists, One, Times, parse_formula
from catlogic.semantics import Instance, build_interpretation, check_conditions, derive_instances
from catlogic.structure import discover_structure
from catlogic.theorems import (
    build_alpha,
    build_delta,
    build_delta_inverse,
    build_gamma,
    delta_certificate,
    verify_frobenius,
)

from conftest import subset_of, subset_name


def test_delta_endpoints_shape(b4_prepared):
    _, cat, st, _ = b4_prepared
    a, b = cat.obj("e1"), cat.obj("e2")
    delta = build_delta(st, a, b, b)
    src = st.coproduct(st.product(a, b).apex, st.product(a, b).apex).apex
    tgt = st.product(a, st.coproduct(b, b).apex).apex
    assert delta.dom == src.index and delta.cod == tgt.index


def test_delta_h2_top_bot_bot(h2, h2_structure):
    top, bot = h2.obj("top"), h2.obj("bot")
    delta = build_delta(h2_structure, top, bot, bot)
    assert delta == h2.identity_of(bot)  # both sides interpret to bot


def test_delta_b4_worked_example(b4_prepared):
    _, cat, st, _ = b4_prepared
    a, b, c = cat.obj("e1"), cat.obj("e2"), cat.obj("e12")
    # lattice oracle on both endpoints
    source = (subset_of("e1") & subset_of("e2")) | (subset_of("e1") & subset_of("e12"))
    target = subset_of("e1") & (subset_of("e2") | subset_of("e12"))
    assert source == target == subset_of("e1")
    delta = build_delta(st, a, b, c)
    assert delta == cat.identity_of(a)


def test_delta_inverse_all_h2_triples(h2, h2_structure):
    for a in h2.objects:
        for b in h2.objects:
            for c in h2.objects:
                delta = build_delta(h2_structure, a, b, c)
                inv = build_delta_inverse(h2_structure, a, b, c)
                assert mutually_inverse(h2, delta, inv)


def test_delta_inverse_all_b4_triples_with_lattice_oracle(b4_prepared):
    _, cat, st, _ = b4_prepared
    count = 0
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                # oracle: distributivity of intersection over union
                sa, sb, sc = (subset_of(o.name) for o in (a, b, c))
                assert sa & (sb | sc) == (sa & sb) | (sa & sc)
                cert = delta_certificate(st, a, b, c)
                assert mutually_inverse(cat, cert.delta, cert.delta_inv)
                count += 1
    assert count == 64


def test_delta_degenerate_initial_components(b4_prepared):
    _, cat, st, _ = b4_prepared
    a = cat.obj("e12")
    bottom = cat.obj("e")
    cert = delta_certificate(st, a, bottom, bottom)
    assert mutually_inverse(cat, cert.delta, cert.delta_inv)


# -- the frobenius construction -------------------------------------------------

def test_alpha_b4_worked_example():
    # MA = e1, universe {c, d}, legs B(c) = e2, B(d) = e12:
    # M(exists x. A x B) = (e1 & e2) | (e1 & e12) = e1
    # MA x M(exists x. B) = e1 & (e2 | e12) = e1, so alpha = id_e1
    cat = gen_powerset(2).category()
    validate_category(cat)
    st = discover_structure(cat)
    from catlogic.logic import parse_theory
    theory = parse_theory(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "interp B(c) = e2\ninterp B(d) = e12\ninterp P = e1\n")
    interp = build_interpretation(st, theory)
    a = parse_formula("P", theory.signature)
    body = parse_formula("B(x)", theory.signature, env={"x": "s"})
    alpha = build_alpha(interp, Instance(a, body, "x", "s"))
    assert alpha == cat.identity_of(cat.obj("e1"))
    cert = verify_frobenius(interp, Instance(a, body, "x", "s"))
    assert cert.alpha == alpha
    assert cert.initiality.vertexes_checked > 0


def test_alpha_left_one_is_unit_iso(b4_prepared):
    _, cat, st, interp = b4_prepared
    th = interp.theory
    body = parse_formula("B(x)", th.signature, env={"x": "s"})
    alpha = build_alpha(interp, Instance(One(), body, "x", "s"))
    e_b = interp.interpret(Exists("x", "s", body))
    vertex = st.product(st.terminal_obj(), e_b).apex
    assert alpha.cod == vertex.index
    cert = verify_frobenius(interp, Instance(One(), body, "x", "s"))
    assert mutually_inverse(cat, cert.alpha, cert.beta)


def test_frobenius_constant_body_collapses(b4_prepared):
    _, cat, st, interp = b4_prepared
    th = interp.theory
    a = parse_formula("P", th.signature)
    body = parse_formula("B(c)", th.signature)  # x not free: constant diagram
    cert = verify_frobenius(interp, Instance(a, body, "x", "s"))
    assert mutually_inverse(cat, cert.alpha, cert.beta)


def test_gamma_with_own_vertex(b4_prepared):
    _, cat, st, interp = b4_prepared
    th = interp.theory
    a = parse_formula("P", th.signature)
    body = parse_formula("B(x)", th.signature, env={"x": "s"})
    sol_ab = interp.quantifier_solution(Exists("x", "s", Times(a, body)))
    gamma = build_gamma(interp, Instance(a, body, "x", "s"), sol_ab.family.apex, sol_ab.family)
    ma = interp.interpret(a)
    exp_w = st.exponential(ma, sol_ab.family.apex)
    sol_b = interp.quantifier_solution(Exists("x", "s", body))
    assert gamma.dom == sol_b.family.apex.index
    assert gamma.cod == exp_w.apex.index
    # gamma mediates the transposed cocone leg by leg
    for delta_t in sol_b.family.legs:
        assert cat.compose(gamma, delta_t).cod == exp_w.apex.index


def test_gamma_rejects_unreachable_vertex():
    # with every atom at e1, e2 is not reachable at depth 0
    cat = gen_powerset(2).category()
    validate_category(cat)
    st = discover_structure(cat)
    from catlogic.logic import parse_theory
    theory = parse_theory(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "interp B(c) = e1\ninterp B(d) = e1\ninterp P = e1\n")
    interp = build_interpretation(st, theory, reach_depth=0)
    a = parse_formula("P", theory.signature)
    body = parse_formula("B(x)", theory.signature, env={"x": "s"})
    sol = interp.quantifier_solution(Exists("x", "s", Times(a, body)))
    with pytest.raises(CertificateFailure):
        build_gamma(interp, Instance(a, body, "x", "s"), cat.obj("e2"), sol.family)


def test_gamma_refuses_a_cocone_that_does_not_fit_the_diagram(prepared_suites):
    # the given legs were zipped with the stored ones, so a one-leg cocone
    # over this two-leg diagram was cut to fit and gave id_c1
    interp = next(interp for suite, _, _, interp in prepared_suites
                  if suite.suite_id == "chain-4/pair-const")
    body = parse_formula("P & B(x)", interp.theory.signature, env={"x": "s"})
    sol = interp.quantifier_solution(Exists("x", "s", Times(One(), body)))
    assert len(sol.family.legs) == 2
    args = (interp, Instance(One(), body, "x", "s"))
    assert build_gamma(*args, sol.family.apex, sol.family) is not None
    short = replace(sol.family, legs=sol.family.legs[:1])
    with pytest.raises(ShapeMismatch, match="over the 2 legs"):
        build_gamma(*args, sol.family.apex, short)
    # a fitting cocone given with a vertex its legs do not end at
    other = next(o for o in interp.reach.objects if o != sol.family.apex)
    with pytest.raises(ShapeMismatch, match=f"a cocone into {other.name} "):
        build_gamma(*args, other, sol.family)


def test_verify_frobenius_all_bundled_instances(prepared_suites):
    total = 0
    for suite, cat, st, interp in prepared_suites:
        for inst in derive_instances(interp.theory):
            cert = verify_frobenius(interp, inst)
            assert mutually_inverse(cat, cert.alpha, cert.beta)
            # frame-law oracle on thin models: meet distributes over the join
            model = suite.model
            ma = interp.interpret(inst.left).index
            legs = [cat.objects[arr.dom].index
                    for arr in interp.quantifier_solution(inst.existentials[1]).family.legs]
            join_all = legs[0] if legs else model.bottom
            for leg in legs[1:]:
                join_all = model.join[join_all][leg]
            lhs = model.meet[ma][join_all]
            joined_meets = model.bottom
            for leg in legs:
                joined_meets = model.join[joined_meets][model.meet[ma][leg]]
            if legs:
                assert lhs == joined_meets
                assert interp.interpret(
                    Exists(inst.var, inst.sort,
                           Times(inst.left, inst.body))).index == lhs
            total += 1
    assert total >= 12


def test_alpha_agrees_with_condition_check(b4_prepared):
    # the condition checker and the certificate name the same arrow
    _, cat, st, interp = b4_prepared
    report = check_conditions(interp)
    assert report.verdict(7).status == "PASS"
    for inst in derive_instances(interp.theory):
        alpha = build_alpha(interp, inst)
        cert = verify_frobenius(interp, inst)
        assert cert.alpha == alpha


def test_alpha_commutes_with_cocone_legs(b4_prepared):
    _, cat, st, interp = b4_prepared
    th = interp.theory
    a = parse_formula("P", th.signature)
    body = parse_formula("B(x)", th.signature, env={"x": "s"})
    alpha = build_alpha(interp, Instance(a, body, "x", "s"))
    sol_ab = interp.quantifier_solution(Exists("x", "s", Times(a, body)))
    sol_b = interp.quantifier_solution(Exists("x", "s", body))
    ma = interp.interpret(a)
    for e, d in zip(sol_ab.family.legs, sol_b.family.legs):
        assert cat.compose(alpha, e) == st.arrow_product(cat.identity_of(ma), d)


def test_certificate_failure_names_arrows():
    # sabotage: swap the atom map after preparation so the memoized quantifier
    # data no longer matches, which must surface as a crisp failure
    cat = gen_powerset(2).category()
    validate_category(cat)
    st = discover_structure(cat)
    from catlogic.logic import parse_theory
    theory = parse_theory(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "interp B(c) = e2\ninterp B(d) = e12\ninterp P = e1\n")
    interp = build_interpretation(st, theory)
    a = parse_formula("P", theory.signature)
    body = parse_formula("B(x)", theory.signature, env={"x": "s"})
    key = ("B", (interp.universe.terms("s")[0],))
    interp.atom_map[key] = cat.obj("e12")  # break leg/memo coherence
    interp.memo.clear()
    from catlogic.errors import NoMediator
    with pytest.raises((CertificateFailure, NoMediator)) as exc:
        verify_frobenius(interp, Instance(a, body, "x", "s"))
    assert "mediat" in str(exc.value).lower() or "alpha" in str(exc.value)


def test_frobenius_empty_universe_degenerates_to_initial():
    # no closed terms: both existentials collapse to the reach-relative
    # initial object and the certificate still verifies; the sort's warning
    # flags the empty diagrams, and the queries add none
    cat = gen_powerset(2).category()
    validate_category(cat)
    st = discover_structure(cat)
    from catlogic.logic import parse_theory
    theory = parse_theory(
        "sort s\nsort t\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "interp B(c) = e1\ninterp B(d) = e2\ninterp P = e1\n")
    interp = build_interpretation(st, theory)
    warnings = list(interp.warnings)
    assert any(w.startswith("sort t has no closed terms") for w in warnings)
    a = parse_formula("P", theory.signature)
    body = parse_formula("B(c)", theory.signature)
    cert = verify_frobenius(interp, Instance(a, body, "y", "t"))
    assert cert.alpha.dom == st.initial_obj().index
    assert mutually_inverse(cat, cert.alpha, cert.beta)
    assert interp.warnings == warnings
