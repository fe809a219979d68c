import copy
import dataclasses
import itertools
import pickle
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from catlogic.errors import (
    FormulaSyntaxError,
    SortError,
    SortMismatch,
    TheoryFileError,
    UnknownSymbol,
)
from catlogic.logic import (
    App,
    Arrow,
    Atom,
    Binary,
    Exists,
    Forall,
    Formula,
    One,
    Plus,
    Quantifier,
    Term,
    Times,
    Var,
    Zero,
    alpha_key,
    connective_depth,
    enumerate_closed_terms,
    enumerate_formulas,
    format_formula,
    free_vars,
    parse_formula,
    parse_theory,
    substitute,
)

THEORY = """\
sort s
fun c : s
fun d : s
fun f : s -> s
fun g : s * s -> s
rel B : s
rel P
rel R : s * s
depth 2
axiom exists x:s. (B(x) & P)
interp B(c) = whatever
"""


@pytest.fixture(scope="module")
def sig():
    return parse_theory(THEORY).signature


def test_parse_forall_arrow(sig):
    f = parse_formula("forall x:s. (B(x) -> P)", sig)
    assert f == Forall("x", "s", Arrow(Atom("B", (Var("x", "s"),)), Atom("P")))


def test_parse_exists_times(sig):
    f = parse_formula("exists x:s. (P & B(x))", sig)
    assert f == Exists("x", "s", Times(Atom("P"), Atom("B", (Var("x", "s"),))))


def test_parse_sort_error_on_bad_arity(sig):
    with pytest.raises(SortError):
        parse_formula("B(g(c, c), c)", sig)
    with pytest.raises(SortError):
        parse_formula("P(c)", sig)


def test_parse_unknown_symbols(sig):
    with pytest.raises(UnknownSymbol):
        parse_formula("Q(c)", sig)
    with pytest.raises(UnknownSymbol):
        parse_formula("B(nope)", sig)


def test_precedence_and_associativity(sig):
    f = parse_formula("P & P | P -> P -> P", sig)
    # & binds tighter than |, | tighter than ->, -> right associative
    p = Atom("P")
    assert f == Arrow(Plus(Times(p, p), p), Arrow(p, p))


def test_quantifier_scope_extends_right(sig):
    f = parse_formula("forall x:s. B(x) -> P", sig)
    assert isinstance(f, Forall)
    assert isinstance(f.body, Arrow)


def test_unbound_variable_rejected(sig):
    with pytest.raises(UnknownSymbol):
        parse_formula("B(x)", sig)
    # but fine when declared as a free variable of the context
    f = parse_formula("B(x)", sig, env={"x": "s"})
    assert free_vars(f) == {("x", "s")}


def test_syntax_error_position(sig):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("P &", sig)
    assert "end of input" in str(exc.value)


def test_free_vars_binders(sig):
    assert free_vars(parse_formula("forall x:s. B(x)", sig)) == frozenset()
    f = parse_formula("B(x) & (exists x:s. B(x))", sig, env={"x": "s"})
    assert free_vars(f) == {("x", "s")}
    assert free_vars(Arrow(One(), Zero())) == frozenset()


def test_substitute_basic(sig):
    c = App("c", (), "s")
    b_x = parse_formula("B(x)", sig, env={"x": "s"})
    assert substitute(b_x, c, "x") == Atom("B", (c,))


def test_substitute_respects_binders(sig):
    c = App("c", (), "s")
    f = parse_formula("forall x:s. B(x)", sig)
    assert substitute(f, c, "x") == f


def test_substitute_partial(sig):
    d = App("d", (), "s")
    f = parse_formula("P & B(x)", sig, env={"x": "s"})
    assert substitute(f, d, "x") == Times(Atom("P"), Atom("B", (d,)))


def test_substitute_requires_closed_term(sig):
    with pytest.raises(SortMismatch):
        substitute(Atom("B", (Var("x", "s"),)), Var("y", "s"), "x")


def test_substitute_checks_the_sort_of_the_variable():
    sig2 = parse_theory("sort s\nsort t\nfun c : s\nrel B : s\nrel Q : t\n").signature
    f = parse_formula("Q(x) & forall x:s. B(x)", sig2, env={"x": "t"})
    c = App("c", (), "s")
    with pytest.raises(SortMismatch, match=r"cannot substitute c : s for x : t"):
        substitute(f, c, "x")
    # the bound x:s is no free occurrence, so there is nothing to check
    assert substitute(f.right, c, "x") is f.right


def test_fv_holds_the_sorted_free_variables(sig):
    f = parse_formula("R(y, x) & (exists x:s. B(x)) | P", sig, env={"x": "s", "y": "s"})
    assert f.fv == (("x", "s"), ("y", "s")) and free_vars(f) == frozenset(f.fv)
    assert f.left.left.fv == f.fv and f.left.right.fv == f.right.fv == ()
    with pytest.raises(TypeError, match="not a formula"):
        free_vars(Var("x", "s"))


def test_substitution_commutes_for_distinct_vars(sig):
    c, d = App("c", (), "s"), App("d", (), "s")
    f = parse_formula("R(x, y)", sig, env={"x": "s", "y": "s"})
    one = substitute(substitute(f, c, "x"), d, "y")
    other = substitute(substitute(f, d, "y"), c, "x")
    assert one == other == Atom("R", (c, d))


def test_free_vars_after_substitution(sig):
    c = App("c", (), "s")
    f = parse_formula("R(x, y)", sig, env={"x": "s", "y": "s"})
    assert free_vars(substitute(f, c, "x")) == {("y", "s")}


def test_alpha_key_identifies_renamed_binders(sig):
    f1 = parse_formula("forall x:s. B(x)", sig)
    f2 = parse_formula("forall y:s. B(y)", sig)
    assert f1 != f2
    assert alpha_key(f1) == alpha_key(f2)
    g = parse_formula("exists y:s. B(y)", sig)
    assert alpha_key(f1) != alpha_key(g)


# the formula classes that share a base and differ only in their class
# constants, each with a way to build one over a body
SIBLINGS = {"connectives": ((Times, Plus, Arrow), lambda kind, body: kind(body, Atom("P"))),
            "quantifiers": ((Forall, Exists), lambda kind, body: kind("y", "s", body))}


@pytest.mark.parametrize("family", sorted(SIBLINGS))
def test_siblings_over_the_same_children_stay_apart(family):
    kinds, build = SIBLINGS[family]
    b_x, c = Atom("B", (Var("x", "s"),)), App("c", (), "s")
    open_ = [build(kind, b_x) for kind in kinds]
    closed = [substitute(f, c, "x") for f in open_]
    assert closed == [build(kind, Atom("B", (c,))) for kind in kinds]
    assert [type(f) for f in closed] == list(kinds)
    for f, g in itertools.combinations(open_ + closed, 2):
        assert f != g and f is not g and alpha_key(f) != alpha_key(g)
    assert substitute(b_x, c, "x") is Atom("B", (c,))


# each connective's symbol and precedence, & binding tightest; & and |
# associate to the left and -> to the right
RANK = {Times: ("&", 3), Plus: ("|", 2), Arrow: ("->", 1)}


@pytest.mark.parametrize("outer, inner, side", [
    (outer, inner, side) for outer in RANK for inner in RANK for side in (0, 1)])
def test_a_connective_inside_another_prints_and_parses_back(outer, inner, side, sig):
    p = Atom("P")
    f = outer(inner(p, p), p) if side == 0 else outer(p, inner(p, p))
    (outer_symbol, outer_rank), (inner_symbol, inner_rank) = RANK[outer], RANK[inner]
    associates = 1 if outer is Arrow else 0  # the side a repeat stands bare on
    bracketed = inner_rank < outer_rank or (inner is outer and side != associates)
    assert bracketed == (inner.prec < outer.floors[side])
    operand = f"P {inner_symbol} P"
    if bracketed:
        operand = f"({operand})"
    want = f"{operand} {outer_symbol} P" if side == 0 else f"P {outer_symbol} {operand}"
    assert format_formula(f) == want
    assert parse_formula(want, sig) == f


# -- one object per term and formula ------------------------------------------------

# every syntax class, abstract bases included
SYNTAX_CLASSES = (Term, Var, App, Formula, Atom, Zero, One, Binary, Times, Plus,
                  Arrow, Quantifier, Forall, Exists)


def test_a_node_is_built_once_whatever_the_call():
    assert Atom("P") is Atom("P", ()) is Atom(rel="P")
    assert App("c", (), "s") is App(func="c", sort="s", args=())
    assert Forall("x", "s", One()) is Forall(body=One(), var="x", sort="s")
    assert Zero() is Zero()


def test_syntax_compares_and_hashes_by_identity():
    for cls in SYNTAX_CLASSES:
        assert cls.__eq__ is object.__eq__, cls
        assert cls.__hash__ is object.__hash__, cls


def test_copies_and_replacements_are_the_interned_node(sig):
    f = parse_formula("forall x:s. exists y:s. R(x, g(y, c)) -> P | 0", sig)
    for copied in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f),
                   dataclasses.replace(f)):
        assert copied is f
    assert dataclasses.replace(f, var="z").body is f.body
    assert dataclasses.replace(f, var="z") is parse_formula(
        "forall z:s. exists y:s. R(x, g(y, c)) -> P | 0", sig, env={"x": "s"})


def test_a_node_nothing_holds_leaves_the_table():
    from catlogic.logic import _NODES
    f = Atom("Fleeting", (App("once", (), "s"),))
    gone = weakref.ref(f)
    assert (Atom, "Fleeting", f.args) in _NODES
    del f
    assert gone() is None
    assert not any("Fleeting" in key or "once" in key for key in _NODES)


def test_a_dead_entry_is_replaced():
    # an entry whose node died but whose callback has not run yet
    from catlogic.logic import _NODES, _Ref

    class Dead:
        pass

    ghost = Dead()
    ref = _Ref(ghost)
    ref.key = key = (Atom, "Ghost", ())
    _NODES[key] = ref
    del ghost
    node = Atom("Ghost")
    assert isinstance(node, Atom) and node.rel == "Ghost"
    assert _NODES[key]() is node and Atom("Ghost", ()) is node


def test_threads_building_the_same_nodes_get_one_object():
    # names no other test builds, so every node starts missing from the table
    def build(out):
        out.extend(Atom(f"Threaded{i}", (App(f"t{i}", (), "s"),)) for i in range(3000))

    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=build, args=(r,)) for r in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for r in results:
        assert len(r) == 3000 and all(a is b for a, b in zip(r, results[0]))


# -- closed term enumeration -----------------------------------------------------

def test_enumerate_constants_only():
    sig = parse_theory("sort s\nfun c : s\nfun d : s\n").signature
    u = enumerate_closed_terms(sig, 1)
    assert [str(t) for t in u.terms("s")] == ["c", "d"]
    assert u.saturated
    assert u.empty_sorts == ()


def test_enumerate_unary_function_depth2():
    sig = parse_theory("sort s\nfun c : s\nfun f : s -> s\n").signature
    u = enumerate_closed_terms(sig, 2)
    assert [str(t) for t in u.terms("s")] == ["c", "f(c)"]
    assert not u.saturated  # f(f(c)) appears at depth 3


def test_enumerate_flags_empty_sort():
    sig = parse_theory("sort s\nsort t\nfun c : s\n").signature
    u = enumerate_closed_terms(sig, 2)
    assert u.empty_sorts == ("t",)
    assert u.terms("t") == ()


def _naive_terms(sig, sort, depth):
    """Independent brute-force enumeration by direct recursion."""
    if depth == 0:
        return set()
    out = set()
    for fn in sig.functions:
        if fn.result != sort:
            continue
        if not fn.arg_sorts:
            out.add(App(fn.name, (), sort))
            continue
        pools = [_naive_terms(sig, s, depth - 1) for s in fn.arg_sorts]
        for combo in itertools.product(*pools):
            out.add(App(fn.name, tuple(combo), sort))
    return out


def test_enumeration_matches_naive_oracle():
    sig = parse_theory(
        "sort s\nsort t\nfun c : s\nfun e : t\nfun f : s -> t\nfun g : t * s -> s\n").signature
    for depth in (1, 2, 3):
        u = enumerate_closed_terms(sig, depth)
        for sort in sig.sorts:
            assert set(u.terms(sort)) == _naive_terms(sig, sort, depth)


def test_enumeration_order_is_depth_then_declaration():
    sig = parse_theory("sort s\nfun c : s\nfun d : s\nfun f : s -> s\n").signature
    u = enumerate_closed_terms(sig, 2)
    assert [str(t) for t in u.terms("s")] == ["c", "d", "f(c)", "f(d)"]


# -- printing round trips -----------------------------------------------------------

def closed_formulas(sig):
    p = Atom("P")
    bc = Atom("B", (App("c", (), "s"),))
    quantified = st.sampled_from([
        Forall("x", "s", Atom("B", (Var("x", "s"),))),
        Exists("x", "s", Times(Atom("B", (Var("x", "s"),)), p)),
        Exists("z", "s", Atom("R", (Var("z", "s"), App("d", (), "s")))),
    ])
    leaves = st.sampled_from([Zero(), One(), p, bc]) | quantified
    return st.recursive(
        leaves,
        lambda kids: st.builds(Times, kids, kids) | st.builds(Plus, kids, kids)
        | st.builds(Arrow, kids, kids)
        | st.builds(lambda b: Forall("w", "s", b), kids),
        max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_print_roundtrip(data):
    sig = parse_theory(THEORY).signature
    f = data.draw(closed_formulas(sig))
    assert parse_formula(format_formula(f), sig) == f
    assert parse_formula(str(f), sig) is f


def test_roundtrip_bundled_axioms():
    from catlogic.bundles import bundled_suites
    for suite in bundled_suites():
        theory = suite.theory()
        for ax in theory.signature.axioms:
            assert parse_formula(str(ax), theory.signature) == ax


# -- theory files -------------------------------------------------------------------

def test_parse_theory_full():
    th = parse_theory(THEORY)
    assert th.signature.sorts == ("s",)
    assert [f.name for f in th.signature.functions] == ["c", "d", "f", "g"]
    assert [r.name for r in th.signature.relations] == ["B", "P", "R"]
    assert th.depth == 2
    assert len(th.signature.axioms) == 1
    assert ("B", (App("c", (), "s"),)) in th.atom_interp


def test_theory_errors_carry_line_numbers():
    with pytest.raises(TheoryFileError) as exc:
        parse_theory("sort s\nfun f : s -> t\n")
    assert "line 2" in str(exc.value)
    # c is not declared: the atom inside the interp line cannot be parsed, and
    # the diagnostic still points at the right theory-file line
    with pytest.raises(UnknownSymbol) as exc2:
        parse_theory("sort s\nrel B : s\ninterp B(c) = top\n")
    assert "at 3:" in str(exc2.value)


def test_theory_rejects_wrong_interp_arity():
    with pytest.raises(SortError):
        parse_theory("sort s\nfun c : s\nrel B : s\ninterp B = top\n")


def test_theory_rejects_open_interp_atom():
    with pytest.raises(UnknownSymbol):
        parse_theory("sort s\nfun c : s\nrel B : s\ninterp B(x) = top\n")


_DECLS = "sort s\nfun c : s\nrel B : s\n"


@pytest.mark.parametrize("text, message", [
    ("sort s\nsort s\n", "line 2: sort s already declared"),
    ("sort s\nfun c s\n", "line 2: malformed fun line"),
    ("sort s\nrel B s\n", "line 2: malformed rel line"),
    ("sort s\nrel B : t\n", "line 2: rel B: unknown sort t"),
    ("sort s\ndepth x\n", "line 2: depth needs an integer"),
    ("sort s\ndepth 0\n", "line 2: depth must be >= 1"),
    (_DECLS + "interp B(c) & B(c) = e1\n",
     "line 4: interp left side must be an atom, got B(c) & B(c)"),
    # the atom is parsed with no variable in scope, so an open one is an
    # unknown symbol at its place in the file
    (_DECLS + "interp B(x) = e1\n", "unknown term symbol x at 4:3"),
    (_DECLS + "interp B(c) = e1\ninterp B(c) = e2\n", "line 5: atom B(c) interpreted twice"),
    # a second depth line replaced the first; a name with a tab or another
    # space in it was declared, and no formula could name that sort
    ("sort s\ndepth 1\ndepth 3\n", "line 3: depth already given on line 2"),
    ("sort s\ndepth 2\n\ndepth x\n", "line 4: depth already given on line 2"),
    ("sort a\tb\n", "line 1: sort line needs exactly one name"),
    ("sort s\nsort a\u00a0b\n", "line 2: sort line needs exactly one name"),
], ids=["sort-twice", "fun-malformed", "rel-malformed", "rel-unknown-sort",
        "depth-not-integer", "depth-zero", "interp-not-atom", "interp-open-atom",
        "interp-twice", "depth-twice", "depth-twice-bad", "sort-tab", "sort-nbsp"])
def test_each_theory_file_error_names_its_line(text, message):
    with pytest.raises((TheoryFileError, UnknownSymbol)) as exc:
        parse_theory(text)
    assert str(exc.value) == message


def test_a_wide_theory_parses_in_linear_time():
    # each duplicate check scanned every earlier declaration: 20,000 fun
    # and 20,000 rel lines took about 16 s
    text = ("sort s\n" + "".join(f"fun f{i} : s\n" for i in range(20_000))
            + "".join(f"rel R{i} : s\n" for i in range(20_000)))
    t0 = time.perf_counter()
    theory = parse_theory(text)
    assert time.perf_counter() - t0 < 2.0
    assert len(theory.signature.functions) == len(theory.signature.relations) == 20_000
    assert theory.signature.functions[-1].name == "f19999"


def test_formula_enumeration_deterministic_and_large():
    th = parse_theory(THEORY)
    u = enumerate_closed_terms(th.signature, 1)
    one = enumerate_formulas(th.signature, u)
    two = enumerate_formulas(th.signature, u)
    assert one == two
    assert len(one) >= 500
    assert all(not free_vars(f) for f in one)
    assert all(connective_depth(f) <= 3 for f in one)
    assert any(connective_depth(f) == 3 for f in one)
