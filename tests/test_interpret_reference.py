"""Environment evaluation against the substitution evaluator it replaced
(``interpret_reference.py``): the reach fixpoint, every query answer or
error, every warning and every stored quantifier solution must be the same,
also when garbage collection runs between queries and frees the ids of the
formulas already answered."""

import gc
import itertools
import random

import pytest

from catlogic import semantics, structure
from catlogic.bundles import bundled_suites
from catlogic.errors import WorkbenchError
from catlogic.heyting import gen_powerset
from catlogic.kernel import validate_category
from catlogic.logic import parse_formula, parse_theory
from catlogic.semantics import build_interpretation, derive_instances
from catlogic.structure import discover_structure

from conftest import PAIR_CONST_THEORY, make_finset
from interpret_reference import ReferenceInterpretation


def _two_sort_theory(objects) -> str:
    """Sorts s and t, where t has no closed terms (empty diagrams), a binary
    function and relation, and an universe cut at depth 2 (unsaturated)."""
    lines = ["sort s", "sort t", "fun c : s", "fun d : s", "fun g : s * s -> s",
             "rel B : s", "rel R : s * s", "rel P", "rel Q : t", "depth 2",
             "axiom forall x:s. exists y:s. (R(x, y) -> B(g(x, y)))",
             "axiom exists z:t. (Q(z) | P)"]
    terms = ["c", "d"] + [f"g({a}, {b})" for a in "cd" for b in "cd"]
    atoms = ["P"] + [f"B({t})" for t in terms] + [f"R({a}, {b})" for a in terms for b in terms]
    names = itertools.cycle(o.name for o in objects)
    return "\n".join(lines + [f"interp {a} = {next(names)}" for a in atoms]) + "\n"


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
        return cat, parse_theory(_two_sort_theory(cat.objects[1:]))
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
    # a diagram met again, by another formula, round or query, reuses the
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
