import itertools
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies

from catlogic.bundles import bundled_suites
from catlogic.errors import MalformedInput, MissingAtom
from catlogic.heyting import gen_powerset, thin_category_from_leq
from catlogic.kernel import validate_category
from catlogic.logic import (
    Atom,
    Exists,
    Forall,
    FunDecl,
    One,
    Quantifier,
    RelDecl,
    Signature,
    Times,
    Var,
    Zero,
    alpha_key,
    connective_depth,
    enumerate_closed_terms,
    parse_formula,
    parse_theory,
    subformulas,
    substitute,
)
from catlogic.semantics import (
    Interpretation,
    QuantifierSolution,
    build_interpretation,
    check_conditions,
    derive_instances,
    search_quantifier_object,
)
from catlogic.structure import Cone, discover_structure

from conftest import PAIR_CONST_THEORY, make_finset, moore_lattice, subset_of, subset_name


def _b4_interp(atoms: dict[str, str], depth_k: int = 3,
               axioms: str = "") -> Interpretation:
    cat = gen_powerset(2).category()
    assert validate_category(cat).ok
    st = discover_structure(cat)
    theory = parse_theory(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        + axioms
        + f"interp B(c) = {atoms['B(c)']}\n"
        + f"interp B(d) = {atoms['B(d)']}\n"
        + f"interp P = {atoms['P']}\n")
    return build_interpretation(st, theory, reach_depth=depth_k)


def _subalgebra_closure(generators: set[frozenset]) -> set[frozenset]:
    """Independent oracle: close subsets of {1,2} under meet/join/implication."""
    full = frozenset({1, 2})
    acc = set(generators) | {frozenset(), full}
    while True:
        fresh = set()
        for a in acc:
            for b in acc:
                fresh.add(a & b)
                fresh.add(a | b)
                fresh.add((full - a) | b)
        if fresh <= acc:
            return acc
        acc |= fresh


def test_reach_b4_single_atom_generates_everything():
    interp = _b4_interp({"B(c)": "e1", "B(d)": "e1", "P": "e1"}, depth_k=2)
    expected = _subalgebra_closure({frozenset({1})})
    got = {subset_of(m.obj.name) for m in interp.reach.members}
    assert got == expected
    assert len(got) == 4


def test_reach_depth_zero_is_base_only():
    interp = _b4_interp({"B(c)": "e", "B(d)": "e", "P": "e"}, depth_k=0)
    got = {m.obj.name for m in interp.reach.members}
    assert got == {"e", "e12"}  # value of 0, value of 1, atom image e


def test_reach_provenance_reinterprets_to_member():
    interp = _b4_interp({"B(c)": "e1", "B(d)": "e2", "P": "e1"})
    for m in interp.reach.members:
        assert interp.interpret(m.provenance) == m.obj


def test_interpret_zero_one(b4_prepared):
    _, cat, st, interp = b4_prepared
    assert interp.interpret(Zero()) == st.initial_obj()
    assert interp.interpret(One()) == st.terminal_obj()


def test_interpret_matches_clauses(b4_prepared):
    _, cat, st, interp = b4_prepared
    th = interp.theory
    f = parse_formula("P & (B(c) | B(d))", th.signature)
    a = interp.interpret(f)
    left = interp.interpret(parse_formula("P", th.signature))
    right = interp.interpret(parse_formula("B(c) | B(d)", th.signature))
    assert a == st.product(left, right).apex


def test_interpret_exists_is_join():
    interp = _b4_interp({"B(c)": "e2", "B(d)": "e12", "P": "e1"})
    th = interp.theory
    got = interp.interpret(parse_formula("exists x:s. B(x)", th.signature))
    assert got.name == subset_name(subset_of("e2") | subset_of("e12"))  # e12


def test_interpret_forall_is_meet():
    interp = _b4_interp({"B(c)": "e2", "B(d)": "e12", "P": "e1"})
    th = interp.theory
    got = interp.interpret(parse_formula("forall x:s. B(x)", th.signature))
    assert got.name == subset_name(subset_of("e2") & subset_of("e12"))  # e2


def test_interpret_requires_closed_formula(b4_prepared):
    _, _, _, interp = b4_prepared
    th = interp.theory
    f = parse_formula("B(x)", th.signature, env={"x": "s"})
    with pytest.raises(MalformedInput):
        interp.interpret(f)


@pytest.mark.parametrize("thing", ["P", Var("x", "s")], ids=["string", "variable"])
def test_interpret_refuses_what_is_not_a_formula(b4_prepared, thing):
    _, _, _, interp = b4_prepared
    with pytest.raises(TypeError, match=re.escape(f"not a formula: {thing!r}")):
        interp.interpret(thing)


def test_missing_atom_is_reported():
    cat = gen_powerset(2).category()
    validate_category(cat)
    st = discover_structure(cat)
    theory = parse_theory(
        "sort s\nfun c : s\nfun d : s\nrel B : s\ndepth 1\ninterp B(c) = e1\n")
    with pytest.raises(MissingAtom) as exc:
        build_interpretation(st, theory)
    assert "B(d)" in str(exc.value)


def test_memo_is_alpha_invariant(b4_prepared):
    _, _, _, interp = b4_prepared
    th = interp.theory
    f1 = parse_formula("forall x:s. B(x)", th.signature)
    f2 = parse_formula("forall y:s. B(y)", th.signature)
    assert interp.interpret(f1) == interp.interpret(f2)


# -- diagrams and quantifier objects -----------------------------------------------

def test_quantifier_legs_in_universe_order(b4_prepared):
    _, cat, _, interp = b4_prepared
    th = interp.theory
    body = parse_formula("B(x)", th.signature, env={"x": "s"})
    terms = interp.universe.terms("s")
    assert [str(t) for t in terms] == ["c", "d"]
    legs = [interp.interpret(substitute(body, t, "x")) for t in terms]
    for f in (Forall("x", "s", body), Exists("x", "s", body)):
        family = interp.quantifier_solution(f).family
        assert [cat.objects[a.dom if family.op else a.cod] for a in family.legs] == legs


def test_constant_diagram(b4_prepared):
    _, _, _, interp = b4_prepared
    th = interp.theory
    body = parse_formula("P", th.signature)
    legs = [interp.interpret(substitute(body, t, "x")) for t in interp.universe.terms("s")]
    assert legs
    assert set(legs) == {interp.interpret(body)}
    # quantifier object of a constant diagram is the value itself, both ways
    assert interp.interpret(Forall("x", "s", body)) == interp.interpret(body)
    assert interp.interpret(Exists("x", "s", body)) == interp.interpret(body)


_B_X = Atom("B", (Var("x", "s"),))


@pytest.mark.parametrize("thing", [
    Atom("P"), Times(Atom("P"), _B_X),
    Exists("y", "s", Times(_B_X, Atom("B", (Var("y", "s"),)))), "exists"],
    ids=["atom", "times", "open-exists", "string"])
def test_quantifier_solution_refuses_all_but_a_closed_quantifier(b4_prepared, thing):
    _, _, _, interp = b4_prepared
    with pytest.raises(MalformedInput, match=re.escape(
            f"quantifier_solution needs a closed forall or exists formula, got {thing}")):
        interp.quantifier_solution(thing)


def test_search_quantifier_object_returns_cocone(prepared_suites):
    # every stored solution, forall and exists: the search over the values of
    # its body's instances gives the stored cone, whose leg ends are those
    # values in universe order
    sides = set()
    for _, cat, st, interp in prepared_suites:
        for sol in interp.qmemo.values():
            f = sol.formula
            legs = [interp.interpret(substitute(f.body, t, f.var))
                    for t in interp.universe.terms(f.sort)]
            family = search_quantifier_object(st, interp.reach.objects, f, legs)
            assert family == sol.family and family.apex == interp.interpret(f)
            assert family.op == isinstance(f, Exists)
            assert [cat.objects[a.dom if family.op else a.cod] for a in family.legs] == legs
            assert all((a.cod if family.op else a.dom) == family.apex.index
                       for a in family.legs)
            sides.add(type(f))
    assert sides == {Forall, Exists}


def test_quantifier_objects_in_thin_models_match_lattice(prepared_suites):
    for suite, cat, st, interp in prepared_suites:
        model = suite.model
        th = interp.theory
        body = parse_formula("B(x)", th.signature, env={"x": "s"})
        legs = [interp.interpret(parse_formula(f"B({t})", th.signature)).index
                for t in (str(term) for term in interp.universe.terms("s"))]
        meet = legs[0]
        join = legs[0]
        for leg in legs[1:]:
            meet = model.meet[meet][leg]
            join = model.join[join][leg]
        assert interp.interpret(Forall("x", "s", body)).index == meet
        assert interp.interpret(Exists("x", "s", body)).index == join


# -- degenerate universes --------------------------------------------------------------

def test_empty_universe_quantifiers_flagged():
    cat = gen_powerset(2).category()
    validate_category(cat)
    st = discover_structure(cat)
    theory = parse_theory(
        "sort s\nsort t\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "interp B(c) = e1\ninterp B(d) = e2\ninterp P = e1\n")
    interp = build_interpretation(st, theory)
    warnings = list(interp.warnings)
    assert any(w.startswith("sort t has no closed terms") for w in warnings)
    th = interp.theory
    p = parse_formula("P", th.signature)
    # the empty diagram degenerates to reach-relative terminal and initial;
    # the sort's warning already flags it, so the queries add none
    assert interp.interpret(Forall("y", "t", p)) == st.terminal_obj()
    assert interp.interpret(Exists("y", "t", p)) == st.initial_obj()
    assert interp.warnings == warnings


def test_an_undeclared_sort_is_refused():
    # it gave the top object c3 with an empty-diagram warning, as if the
    # sort were declared and had no closed terms
    suite = next(s for s in bundled_suites() if s.suite_id == "chain-4/pair-const")
    interp = build_interpretation(discover_structure(suite.model.category()), suite.theory())
    f = Forall("x", "nosuch", Atom("P"))
    warnings = list(interp.warnings)
    for ask in (interp.interpret, interp.quantifier_solution):
        with pytest.raises(MalformedInput, match="undeclared sort nosuch"):
            ask(f)
    assert interp.warnings == warnings


def test_unsaturated_universe_flagged(prepared_suites):
    for suite, _, _, interp in prepared_suites:
        if suite.suite_id.endswith("unary-fun"):
            assert not interp.universe.saturated
            assert any("not saturated" in w for w in interp.warnings)


# -- the seven conditions ---------------------------------------------------------------

def test_conditions_pass_on_all_bundled_suites(prepared_suites):
    for suite, _, _, interp in prepared_suites:
        report = check_conditions(interp)
        assert report.all_pass, (suite.suite_id, [
            (v.number, v.status, v.details) for v in report.verdicts
            if not v.passed])


def test_vee_poset_fails_exponentials():
    # bot < a, bot < b and nothing else: meets exist but the poset is not
    # closed, so exponentiation fails (there is not even a terminal object)
    names = ["bot", "a", "b"]
    leq = ((True, True, True), (False, True, False), (False, False, True))
    cat = thin_category_from_leq(names, leq, name="vee")
    assert validate_category(cat).ok
    st = discover_structure(cat)
    assert st.exponential_failures
    theory = parse_theory(
        "sort s\nfun c : s\nrel B : s\ndepth 1\ninterp B(c) = a\n")
    interp = build_interpretation(st, theory)
    report = check_conditions(interp)
    assert report.verdict(3).status == "FAIL"
    assert any("bot" in d or "a" in d for d in report.verdict(3).details)


def test_powerset3_without_coatom_fails_condition3_only_there():
    # drop e23 = (e1 => e2) from powerset-3: products, coproducts and the two
    # extremal objects survive, exponentiation does not
    model = gen_powerset(3)
    keep = [i for i, name in enumerate(model.elements) if name != "e23"]
    names = [model.elements[i] for i in keep]
    leq = tuple(tuple(model.leq[i][j] for j in keep) for i in keep)
    cat = thin_category_from_leq(names, leq, name="powerset-3-cut")
    assert validate_category(cat).ok
    st = discover_structure(cat)
    assert st.terminal is not None and st.initial is not None
    assert not st.product_failures
    assert not st.coproduct_failures
    assert st.exponential_failures
    base = cat.obj("e1").index
    target = cat.obj("e2").index
    assert (base, target) in st.exponential_failures


def test_condition5_lists_each_failure_once():
    # a quantified subformula shared by several checked formulas was
    # checked, and its failure listed, once per formula
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    theory = parse_theory(PAIR_CONST_THEORY.format("x2n2", "x3n3", "x1n1"))
    verdict = check_conditions(build_interpretation(discover_structure(cat), theory)).verdict(5)
    assert verdict.status == "FAIL"
    assert len(set(verdict.details)) == len(verdict.details) == 16


def test_condition7_fails_on_a_non_distributive_lattice():
    # M3 has no exponentials, so the paper's second dropped condition, the
    # product through an existential, is not derivable and fails: P & -
    # does not preserve the join e1 | e2 = e012
    cat = moore_lattice((0, 1, 2, 4, 7))
    theory = parse_theory(PAIR_CONST_THEORY.format("e1", "e2", "e0"))
    verdict = check_conditions(build_interpretation(discover_structure(cat), theory)).verdict(7)
    assert verdict.status == "FAIL"
    assert "A = P ; B = B(x) ; x:s: 0 inverses for le_e_e0" in verdict.details


_EXISTS_B = "axiom exists x:s. B(x)\n"


def test_condition6_sees_an_edited_memo():
    interp = _b4_interp({"B(c)": "e1", "B(d)": "e2", "P": "e12"}, axioms=_EXISTS_B)
    interp.memo[(Zero(), ())] = interp.cat.obj("e12")
    verdict = check_conditions(interp).verdict(6)
    assert verdict.status == "FAIL"
    assert verdict.details == ("value of 0 is not the initial object",
                               "memo holds e12 for 0, clauses give e")


@pytest.mark.parametrize("legs, op, detail", [
    (("le_e_e1", "le_e_e1"), False,
     "stored quantifier object e no longer unique: vertex e1 has 0 leg-commuting "
     "arrows into it"),
    (("le_e_e12", "le_e_e12"), True,
     "stored quantifier object is malformed: leg le_e_e12 of the cocone at e "
     "does not enter it"),
], ids=["not-universal", "malformed"])
def test_condition6_sees_an_edited_qmemo(legs, op, detail):
    interp = _b4_interp({"B(c)": "e1", "B(d)": "e2", "P": "e12"}, axioms=_EXISTS_B)
    f = parse_formula("forall x:s. B(x)", interp.theory.signature)
    cone = Cone(interp.cat.obj("e"), tuple(map(interp.cat.arrow, legs)), op)
    interp.qmemo[alpha_key(f)] = QuantifierSolution(f, cone)
    verdict = check_conditions(interp).verdict(6)
    assert verdict.status == "FAIL"
    assert verdict.details == (f"forall x:s. B(x): {detail}",)


def test_condition_checks_are_deterministic(b4_prepared):
    suite, cat, st, _ = b4_prepared
    theory1 = suite.theory()
    theory2 = suite.theory()
    r1 = check_conditions(build_interpretation(st, theory1))
    r2 = check_conditions(build_interpretation(st, theory2))
    assert r1.verdicts == r2.verdicts


def test_reach_fixpoint_recompute():
    atoms = {"B(c)": "e1", "B(d)": "e1", "P": "e1"}
    before = {m.obj.name for m in _b4_interp(atoms).reach.members}
    assert before == {"e", "e1", "e2", "e12"}
    after = {m.obj.name for m in _b4_interp(atoms, depth_k=0).reach.members}
    assert after == {"e", "e1", "e12"}  # just 0, 1 and the atom image


def test_derive_instances_properties(prepared_suites):
    for suite, _, _, interp in prepared_suites:
        instances = derive_instances(interp.theory)
        assert len(instances) >= 2
        for inst in instances:
            from catlogic.logic import free_vars
            assert (inst.var, inst.sort) not in free_vars(inst.left)
            assert free_vars(inst.body) <= {(inst.var, inst.sort)}
        # the degenerate cases demanded of every suite: A = 1 and a closed body
        assert any(inst.left == One() for inst in instances)
        assert any(not free_vars(inst.body) for inst in instances)


def test_quantifier_tiebreak_between_isomorphic_candidates():
    # the walking isomorphism: both objects qualify as the quantifier object;
    # the lower index wins and the loser is isomorphic to it
    from catlogic.kernel import FinCategory, mutually_inverse
    cat = FinCategory.build(
        ["x", "y"], [("f", "x", "y"), ("g", "y", "x")],
        compositions=[("g", "f", "id_x"), ("f", "g", "id_y")], name="iso")
    assert validate_category(cat).ok
    st = discover_structure(cat)
    assert st.complete
    theory = parse_theory(
        "sort s\nfun c : s\nfun d : s\nrel B : s\ndepth 1\n"
        "interp B(c) = y\ninterp B(d) = x\n")
    interp = build_interpretation(st, theory)
    th = interp.theory
    got = interp.interpret(parse_formula("exists u:s. B(u)", th.signature))
    assert got.name == "x"  # deterministic tie-break by object index
    f, g = cat.arrow("f"), cat.arrow("g")
    assert mutually_inverse(cat, f, g)  # the unchosen candidate is isomorphic


def test_only_none_universe_depth_means_the_theory_depth(b4_prepared):
    # a universe depth of 0 was read as "use the theory's depth"
    _, _, st, interp = b4_prepared
    theory = interp.theory
    assert Interpretation(st, theory).universe.depth == theory.depth
    assert Interpretation(st, theory, universe_depth=2).universe.depth == 2
    with pytest.raises(ValueError, match="depth must be >= 1"):
        Interpretation(st, theory, universe_depth=0)


def _pool_over_every_sort(interp) -> list:
    """The quantifier pool as it was built before ``Signature`` indexed its
    sorts: each relation tried against every sort of the signature."""
    sig = interp.theory.signature
    pool = {}

    def add(f):
        if connective_depth(f) <= interp.reach_depth and not f.fv:
            pool.setdefault(alpha_key(f), f)

    for rel in sig.relations:
        for sort in sig.sorts:
            if sort not in rel.arg_sorts:
                continue
            v = Var("x" if len(sig.sorts) == 1 else f"x{sig.sorts.index(sort)}", sort)
            slot_pools = []
            for s in rel.arg_sorts:
                opts = list(interp.universe.terms(s))
                if s == sort:
                    opts.append(v)
                slot_pools.append(opts)
            for combo in itertools.product(*slot_pools):
                if not any(t == v for t in combo):
                    continue
                atom = Atom(rel.name, tuple(combo))
                add(Forall(v.name, sort, atom))
                add(Exists(v.name, sort, atom))

    for f in sig.axioms:
        for sub in subformulas(f):
            if isinstance(sub, Quantifier):
                add(sub)
    return list(pool.values())


def test_quantifier_pool_matches_the_loop_over_every_sort(prepared_suites):
    for _, _, _, interp in prepared_suites:
        assert interp._quantifier_pool() == _pool_over_every_sort(interp)


@strategies.composite
def _small_signatures(draw):
    sorts = tuple(draw(strategies.lists(strategies.sampled_from("pqrst"),
                                        min_size=1, max_size=4, unique=True)))
    of_sort = strategies.sampled_from(sorts)
    # a constant of every sort, so that no slot pool is empty
    functions = [FunDecl(f"c{i}", (), s)
                 for i, s in enumerate(sorts + tuple(draw(strategies.lists(of_sort, max_size=2))))]
    functions += [FunDecl(f"f{i}", (a,), r) for i, (a, r) in
                  enumerate(draw(strategies.lists(strategies.tuples(of_sort, of_sort),
                                                  max_size=2)))]
    relations = [RelDecl(f"R{i}", tuple(args)) for i, args in
                 enumerate(draw(strategies.lists(strategies.lists(of_sort, min_size=1,
                                                                  max_size=3),
                                                 min_size=1, max_size=4)))]
    return Signature(sorts, tuple(functions), tuple(relations))


@settings(max_examples=80, deadline=None)
@given(_small_signatures(), strategies.integers(1, 2), strategies.integers(1, 2))
def test_quantifier_pool_matches_the_loop_over_every_sort_on_random_signatures(
        sig, depth, reach_depth):
    # sorts in any order, relations over any of them, repeated or missing
    interp = SimpleNamespace(theory=SimpleNamespace(signature=sig), reach_depth=reach_depth,
                             universe=enumerate_closed_terms(sig, depth))
    assert Interpretation._quantifier_pool(interp) == _pool_over_every_sort(interp)
