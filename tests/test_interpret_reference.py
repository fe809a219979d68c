"""Environment evaluation against the substitution evaluator it replaced
(``interpret_reference.py``): the reachable set, every query answer or
error, every warning and every stored quantifier solution must be the same,
also when garbage collection runs between queries and frees the ids of the
formulas already answered."""

import gc
import random

import pytest

from catlogic import semantics, structure
from catlogic.bundles import bundled_suites
from catlogic.errors import WorkbenchError
from catlogic.heyting import gen_chain, gen_powerset
from catlogic.kernel import gen_finset, validate_category
from catlogic.logic import parse_formula, parse_theory
from catlogic.semantics import (
    Interpretation,
    build_interpretation,
    check_conditions,
    derive_instances,
)
from catlogic.structure import discover_structure

from conftest import (
    PAIR_CONST_THEORY,
    make_finset,
    moore_families,
    moore_lattice,
    two_sort_theory,
)
from interpret_reference import ReferenceInterpretation


def _models():
    models = {s.suite_id: (lambda s=s: (s.model.category(), s.theory()))
              for s in bundled_suites()}
    models["powerset-4"] = lambda: (gen_powerset(4).category(),
                                    parse_theory(PAIR_CONST_THEORY.format("e1", "e2", "e3")))
    models["finset-0123"] = lambda: (make_finset([0, 1, 2, 3], "finset-0123"),
                                     parse_theory(PAIR_CONST_THEORY.format("x2n2", "x3n3",
                                                                           "x1n1")))

    def two_sort():
        cat = gen_powerset(3).category()
        return cat, parse_theory(two_sort_theory(cat.objects[1:]))
    models["powerset-3/two-sort"] = two_sort
    return models


MODELS = _models()


# -- random closed formulas -------------------------------------------------------

def _term(rng, sig, universe, visible, sort, depth=1):
    """A term of ``sort``: a visible variable, a closed term of the
    universe, or a function applied to such terms (possibly outside the
    universe); None if the sort has none."""
    names = [v for v, s in visible.items() if s == sort]
    closed = universe.terms(sort)
    funcs = [f for f in sig.functions if f.result == sort and f.arg_sorts]
    roll = rng.random()
    if names and roll < 0.5:
        return rng.choice(names)
    if depth and funcs and roll < 0.7:
        f = rng.choice(funcs)
        args = [_term(rng, sig, universe, visible, s, depth - 1) for s in f.arg_sorts]
        if None not in args:
            return f"{f.name}({', '.join(args)})"
    if closed:
        return str(rng.choice(closed))
    return rng.choice(names) if names else None


def _leaf(rng, sig, universe, visible):
    if rng.random() < 0.08:
        return rng.choice(("0", "1"))
    rel = rng.choice(sig.relations)
    args = [_term(rng, sig, universe, visible, s) for s in rel.arg_sorts]
    if None in args:
        return "1"
    return f"{rel.name}({', '.join(args)})" if args else rel.name


def random_formula(rng, sig, universe, depth=4, bound=()):
    """A random closed formula text of connective depth <= ``depth``, fully
    parenthesized; a quantifier sometimes rebinds a variable already bound."""
    visible = dict(bound)
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng, sig, universe, visible)
    op = rng.choice(("&", "|", "->", "forall", "exists"))
    if op in ("forall", "exists"):
        var = rng.choice([v for v, _ in bound]) if bound and rng.random() < 0.2 \
            else f"v{len(bound)}"
        sort = rng.choice(sig.sorts)
        body = random_formula(rng, sig, universe, depth - 1, bound + ((var, sort),))
        return f"({op} {var}:{sort}. {body})"
    left = random_formula(rng, sig, universe, depth - 1, bound)
    right = random_formula(rng, sig, universe, depth - 1, bound)
    return f"({left} {op} {right})"


# -- the comparison ---------------------------------------------------------------------

@pytest.fixture(scope="module", params=sorted(MODELS))
def pair(request):
    cat, theory = MODELS[request.param]()
    assert validate_category(cat).ok
    st = discover_structure(cat)
    return (request.param, build_interpretation(st, theory),
            ReferenceInterpretation(st, theory))


def _outcome(run):
    try:
        return run()
    except WorkbenchError as exc:
        return type(exc).__name__, str(exc)


def _solutions(interp):
    return [(key, sol, str(sol.formula)) for key, sol in interp.qmemo.items()]


def _assert_same_state(new, ref):
    assert new.reach.members == ref.reach.members
    assert new.reach_failures == ref.reach_failures
    assert new.warnings == ref.warnings
    assert _solutions(new) == _solutions(ref)


def test_prepare_matches_reference(pair):
    _, new, ref = pair
    _assert_same_state(new, ref)


def test_queries_match_reference(pair):
    name, new, ref = pair
    sig = new.theory.signature
    rng = random.Random(f"queries:{name}")
    answered = 0
    for i in range(150):
        text = random_formula(rng, sig, new.universe)
        got = _outcome(lambda: new.interpret(parse_formula(text, sig)).name)
        want = _outcome(lambda: ref.interpret(parse_formula(text, sig)).name)
        assert got == want, text
        answered += isinstance(got, str)
        if i % 50 == 0:
            # answered formulas are freed as they go out of scope, so their
            # ids come back; a full collection also frees any cyclic garbage
            gc.collect()
    _assert_same_state(new, ref)
    assert answered


def test_quantifier_solutions_of_open_bodies_match_reference(pair):
    # the theorems module asks for exists x. B and exists x. (A x B) directly
    _, new, ref = pair
    for i, inst in enumerate(derive_instances(new.theory)):
        for f in inst.existentials:
            assert _outcome(lambda: new.quantifier_solution(f)) == _outcome(
                lambda: ref.quantifier_solution(f))
        if i % 10 == 0:
            gc.collect()
    _assert_same_state(new, ref)


def test_search_runs_once_per_distinct_diagram(monkeypatch):
    # a diagram met again, by another formula or query, reuses the
    # outcome of its one cone search
    cat, theory = MODELS["powerset-3/two-sort"]()
    st = discover_structure(cat)
    searched, met = [], []
    cone_search, search = structure._universal_cone, semantics.search_quantifier_object

    def counted_cone_search(view, legs, what, ws=None):
        searched.append((tuple(legs), ws, view.op))
        return cone_search(view, legs, what, ws)

    def counted_search(st, vertexes, f, legs, *args):
        met.append((tuple(obj.index for obj in legs),
                    tuple(sorted({o.index for o in vertexes})), f.symbol == "exists"))
        return search(st, vertexes, f, legs, *args)

    monkeypatch.setattr(structure, "_universal_cone", counted_cone_search)
    monkeypatch.setattr(semantics, "search_quantifier_object", counted_search)
    interp = build_interpretation(st, theory)
    sig = theory.signature
    rng = random.Random("searches")
    for _ in range(200):
        text = random_formula(rng, sig, interp.universe)
        _outcome(lambda: interp.interpret(parse_formula(text, sig)))
    assert sorted(searched) == sorted(set(met))
    assert len(met) > 2 * len(searched) > 20


# -- the reachable set is one closure ------------------------------------------------

def _pair_const(*atoms):
    return parse_theory(PAIR_CONST_THEORY.format(*atoms))


def _moore_models():
    """The 61 Moore families on 3 points, each with the pair-const theory's
    atoms on its objects 1, 2 and 3, taken modulo the object count."""
    out = {}
    for family in moore_families(3):
        cat = moore_lattice(family)
        names = [cat.objects[k % len(cat.objects)].name for k in (1, 2, 3)]
        out[cat.name] = lambda cat=cat, names=names: (cat, _pair_const(*names))
    return out


MOORE_MODELS = _moore_models()
# the larger thin models and the non-thin finite-set skeleta
LADDER_MODELS = {
    "chain-32": lambda: (gen_chain(32).category(), _pair_const("c5", "c17", "c9")),
    "finset-3": lambda: (gen_finset(3), _pair_const("s2", "s3", "s1")),
    "finset-4": lambda: (gen_finset(4), _pair_const("s2", "s3", "s1")),
}


@pytest.fixture
def closures(monkeypatch):
    """The Interpretation of each ``_binary_closure`` call, in order."""
    calls = []
    closure = Interpretation._binary_closure

    def counted(self, members):
        calls.append(self)
        return closure(self, members)

    monkeypatch.setattr(Interpretation, "_binary_closure", counted)
    return calls


def test_the_reach_is_one_closure_and_holds_every_quantifier_apex(closures):
    # a quantifier object is searched among the members, so it adds none:
    # one closure per construction, and every stored apex already a member
    assert len(MOORE_MODELS) == 61
    solutions = failing = 0
    for name, make in {**MODELS, **LADDER_MODELS, **MOORE_MODELS}.items():
        cat, theory = make()
        closures.clear()
        interp = build_interpretation(discover_structure(cat), theory)
        assert closures == [interp], name
        if name in MODELS:
            check_conditions(interp)  # its queries store more solutions
        assert all(sol.family.apex in interp.reach for sol in interp.qmemo.values()), name
        solutions += len(interp.qmemo)
        failing += bool(interp.reach_failures)
    # pool failures: finset-0123, finset-3, finset-4, an atom outside the
    # cut universe of powerset-3/two-sort, and 3 Moore families
    assert solutions > 300 and failing == 7


@pytest.mark.parametrize("name", sorted(MOORE_MODELS))
def test_prepare_matches_reference_on_moore_families(name, closures):
    cat, theory = MOORE_MODELS[name]()
    st = discover_structure(cat)
    new = build_interpretation(st, theory)
    closures.clear()
    ref = ReferenceInterpretation(st, theory)
    # the reference still runs its rounds: a second one when the first
    # stores a solution, two closures in each
    assert len(closures) == (4 if ref.qmemo else 2)
    _assert_same_state(new, ref)


def test_a_quantifier_object_is_searched_among_the_members():
    # at reach depth 1 the closure joins two atom images at a time, so the
    # join of three, e123, is no member, and exists x. B(x) is the least
    # member above all three legs
    theory = parse_theory("sort s\nfun c : s\nfun d : s\nfun e : s\nrel B : s\ndepth 1\n"
                          "interp B(c) = e1\ninterp B(d) = e2\ninterp B(e) = e3\n")
    st = discover_structure(gen_powerset(4).category())
    new = build_interpretation(st, theory, reach_depth=1)
    _assert_same_state(new, ReferenceInterpretation(st, theory, reach_depth=1))
    assert st.cat.obj("e123") not in new.reach
    solution = new.quantifier_solution(parse_formula("exists x:s. B(x)", theory.signature))
    assert solution.family.apex.name == "e1234"
