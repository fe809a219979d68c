import copy
import gc
import operator
import pickle
import weakref
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from catlogic.errors import NoSuchStructure, ShapeMismatch
from catlogic.heyting import gen_powerset
from catlogic.kernel import FinCategory, validate_category
from catlogic.structure import (
    discover_structure,
    find_coproduct,
    find_exponential,
    find_initial,
    find_product,
    find_terminal,
)

from conftest import REFERENCE_MODELS, make_finset, subset_name, subset_of
from structure_reference import assert_discovery_matches


@pytest.fixture(scope="module")
def b4():
    cat = gen_powerset(2).category()
    assert validate_category(cat).ok
    return cat


@pytest.fixture(scope="module")
def b4_st(b4):
    return discover_structure(b4)


def test_h2_products(h2, h2_structure):
    st = h2_structure
    w = st.product(h2.obj("top"), h2.obj("bot"))
    assert w.apex.name == "bot"
    assert w.proj1.name == "u" and w.proj2.name == "id_bot"
    assert st.product(h2.obj("top"), h2.obj("top")).apex.name == "top"


def test_h2_terminal_initial(h2_structure):
    assert h2_structure.terminal_obj().name == "top"
    assert h2_structure.initial_obj().name == "bot"


def test_single_object_category_initial_is_that_object():
    cat = FinCategory.build(["star"], [], name="one")
    assert validate_category(cat).ok
    assert find_initial(cat).obj.name == "star"
    assert find_terminal(cat).obj.name == "star"


def test_empty_category_has_no_terminal_or_initial_object():
    st = discover_structure(FinCategory.build([], [], name="empty"))
    assert st.terminal_failure == "empty: no terminal object; the category has no objects"
    assert st.initial_failure == "empty: no initial object; the category has no objects"


def test_b4_products_match_set_intersection(b4, b4_st):
    # oracle: the meet of two subsets is their intersection
    for a in b4.objects:
        for b in b4.objects:
            w = b4_st.product(a, b)
            assert subset_of(w.apex.name) == subset_of(a.name) & subset_of(b.name)
    assert b4_st.product(b4.obj("e1"), b4.obj("e2")).apex.name == "e"


def test_b4_coproducts_match_set_union(b4, b4_st):
    for a in b4.objects:
        for b in b4.objects:
            w = b4_st.coproduct(a, b)
            assert subset_of(w.apex.name) == subset_of(a.name) | subset_of(b.name)
    assert b4_st.coproduct(b4.obj("e1"), b4.obj("e2")).apex.name == "e12"


def test_h2_exponentials(h2, h2_structure):
    st = h2_structure
    w = st.exponential(h2.obj("top"), h2.obj("bot"))  # top => bot
    assert w.apex.name == "bot"
    assert w.eval.name == "id_bot"
    assert st.exponential(h2.obj("bot"), h2.obj("bot")).apex.name == "top"


def test_b4_exponentials_match_boolean_implication(b4, b4_st):
    # oracle: a => c in a Boolean algebra of subsets is complement(a) union c
    full = subset_of("e12")
    for a in b4.objects:
        for c in b4.objects:
            w = b4_st.exponential(a, c)
            expected = (full - subset_of(a.name)) | subset_of(c.name)
            assert subset_of(w.apex.name) == expected
    assert b4_st.exponential(b4.obj("e1"), b4.obj("e2")).apex.name == "e2"


def test_pair_copair_h2(h2, h2_structure):
    st = h2_structure
    bot, top = h2.obj("bot"), h2.obj("top")
    u = h2.arrow("u")
    id_bot, id_top = h2.identity_of(bot), h2.identity_of(top)
    # pairing into bot x top = bot
    assert st.pair(id_bot, u) == id_bot
    # copairing out of bot + top = top
    assert st.copair(u, id_top) == id_top


def test_pair_b4_meets(b4, b4_st):
    e = b4.obj("e")
    f = b4.hom(e, b4.obj("e1"))[0]
    g = b4.hom(e, b4.obj("e2"))[0]
    assert b4_st.pair(f, g) == b4.identity_of(e)


def test_pair_shape_mismatch(h2, h2_structure):
    u = h2.arrow("u")
    id_top = h2.identity_of(h2.obj("top"))
    with pytest.raises(ShapeMismatch):
        h2_structure.pair(u, id_top)


def test_arrow_product_of_identities_is_identity(b4, b4_st):
    for a in b4.objects:
        for b in b4.objects:
            w = b4_st.product(a, b)
            got = b4_st.arrow_product(b4.identity_of(a), b4.identity_of(b))
            assert got == b4.identity_of(w.apex)


def test_arrow_product_h2(h2, h2_structure):
    u = h2.arrow("u")
    id_top = h2.identity_of(h2.obj("top"))
    got = h2_structure.arrow_product(u, id_top)  # bot x top -> top x top
    assert got == u


def test_arrow_product_interchange(b4, b4_st):
    # (f x g) . (h x k) = (f . h) x (g . k), checked exhaustively
    cat = b4
    checked = 0
    for f in cat.arrows:
        for g in cat.arrows:
            fg = b4_st.arrow_product(f, g)
            for h in cat.arrows:
                if h.cod != f.dom:
                    continue
                for k in cat.arrows:
                    if k.cod != g.dom:
                        continue
                    hk = b4_st.arrow_product(h, k)
                    lhs = cat.compose(fg, hk)
                    rhs = b4_st.arrow_product(cat.compose(f, h), cat.compose(g, k))
                    assert lhs == rhs
                    checked += 1
    assert checked > 100


def test_transpose_theta_bijection_exhaustive(b4, b4_st):
    cat = b4
    for w in cat.objects:
        for a in cat.objects:
            for c in cat.objects:
                pw = b4_st.product(w, a)
                ew = b4_st.exponential(a, c)
                for f in cat.hom(pw.apex, c):
                    tf = b4_st.transpose(f, w, a)
                    assert tf.dom == w.index and tf.cod == ew.apex.index
                    assert b4_st.theta(tf, a, c) == f
                for g in cat.hom(w, ew.apex):
                    assert b4_st.transpose(b4_st.theta(g, a, c), w, a) == g


def test_transpose_of_eval_is_identity(b4, b4_st):
    for a in b4.objects:
        for c in b4.objects:
            ew = b4_st.exponential(a, c)
            assert b4_st.transpose(ew.eval, ew.apex, a) == b4.identity_of(ew.apex)


def test_transpose_b4_worked_example(b4, b4_st):
    # W = e2, A = e1, C = e2: the unique arrow e2 x e1 = e -> e2 transposes to
    # e2 -> (e2 ^ e1) = e2 -> e2, the identity
    w, a, c = b4.obj("e2"), b4.obj("e1"), b4.obj("e2")
    pw = b4_st.product(w, a)
    assert pw.apex.name == "e"
    f = b4.hom(pw.apex, c)[0]
    assert b4_st.transpose(f, w, a) == b4.identity_of(w)


def test_swap_is_self_inverse(b4, b4_st):
    for a in b4.objects:
        for b in b4.objects:
            s1 = b4_st.swap(a, b)
            s2 = b4_st.swap(b, a)
            assert b4.compose(s2, s1) == b4.identity_of(b4_st.product(a, b).apex)


def test_no_product_in_two_element_group_category():
    # the one-object category with arrows {id, s}, s.s = id: no products exist
    cat = FinCategory.build(["m"], [("s", "m", "m")],
                            compositions=[("s", "s", "id_m")], name="Z2")
    assert validate_category(cat).ok
    with pytest.raises(NoSuchStructure) as exc:
        find_product(cat, cat.obj("m"), cat.obj("m"))
    assert "[4]" in str(exc.value)
    with pytest.raises(NoSuchStructure):
        find_terminal(cat)


def test_tiebreak_prefers_lowest_index():
    # the walking isomorphism: both objects qualify as terminal, x wins by index
    cat = FinCategory.build(
        ["x", "y"], [("f", "x", "y"), ("g", "y", "x")],
        compositions=[("g", "f", "id_x"), ("f", "g", "id_y")], name="iso")
    assert validate_category(cat).ok
    assert find_terminal(cat).obj.name == "x"
    assert find_initial(cat).obj.name == "x"
    w = find_product(cat, cat.obj("x"), cat.obj("y"))
    assert w.apex.name == "x"


def test_discovery_is_deterministic(b4):
    st1 = discover_structure(b4)
    st2 = discover_structure(b4)
    assert st1.products == st2.products
    assert st1.coproducts == st2.coproducts
    assert st1.exponentials == st2.exponentials
    assert st1.terminal == st2.terminal and st1.initial == st2.initial


def test_structure_search_requires_validated_category():
    from catlogic.errors import LawViolation
    cat = gen_powerset(2).category()
    g, f = next(cat.composable_pairs())
    k = (cat.table_entry(g, f) + 1) % len(cat.arrows)
    broken = cat.with_composition(g, f, cat.arrows[k])
    with pytest.raises(LawViolation):
        discover_structure(broken)


def test_exponential_needs_products_first(b4):
    with pytest.raises(NoSuchStructure):
        find_exponential(b4, {}, b4.obj("e1"), b4.obj("e2"))


def test_find_coproduct_single(b4):
    w = find_coproduct(b4, b4.obj("e1"), b4.obj("e2"))
    assert w.apex.name == "e12"
    assert w.inj1.dom == b4.obj("e1").index
    assert w.inj2.dom == b4.obj("e2").index


@pytest.mark.parametrize("kind", ["products", "coproducts", "exponentials"],
                         ids=["product", "coproduct", "exponential"])
def test_a_witness_is_stored_only_under_its_own_pair(kind):
    # the table reads take a stored witness to be one for its key, and no
    # store checks the key: discovery must file each witness under the
    # indices of its own objects
    for name, make in sorted(REFERENCE_MODELS.items()):
        witnesses = getattr(discover_structure(make()), kind)
        assert witnesses or name == "Z2"
        for key, w in witnesses.items():
            ends = (w.base, w.target) if kind == "exponentials" else w.pair
            assert key == tuple(o.index for o in ends)


def test_a_dropped_structure_table_is_freed_at_once():
    # nothing a table holds may refer back to it: a reference cycle would
    # keep every dropped table, witness tables and all, until the cycle
    # collector runs
    gc.disable()
    try:
        st = discover_structure(gen_powerset(2).category())
        ref = weakref.ref(st)
        del st
        assert ref() is None
    finally:
        gc.enable()


_STORES = ("products", "coproducts", "exponentials")


def _contents(st):
    """Every witness with its table, and every failure, of ``st``."""
    return ({kind: {k: (w, w.table) for k, w in getattr(st, kind).items()} for kind in _STORES},
            st.terminal, st.initial, st.terminal_failure, st.initial_failure,
            st.product_failures, st.coproduct_failures, st.exponential_failures)


def _transposes_invert_theta(st):
    """theta(transpose(f)) = f for every f : w x a -> c with c^a stored."""
    cat = st.cat
    for (a, c), ew in st.exponentials.items():
        for w in cat.objects:
            if (w.index, a) in st.products:
                for f in cat.hom(st.product(w, ew.base).apex, ew.target):
                    if st.theta(st.transpose(f, w, ew.base), ew.base, ew.target) != f:
                        return False
    return True


_MUTATORS = {
    "setitem": lambda store, key, w: operator.setitem(store, key, w),
    "delitem": lambda store, key, w: operator.delitem(store, key),
    "update-dict": lambda store, key, w: store.update({key: w}),
    "update-pairs": lambda store, key, w: store.update([(key, w)]),
    "setdefault": lambda store, key, w: store.setdefault(key, w),
    "pop": lambda store, key, w: store.pop(key),
    "popitem": lambda store, key, w: store.popitem(),
    "clear": lambda store, key, w: store.clear(),
    "ior": lambda store, key, w: operator.ior(store, {key: w}),
}
_DUPLICATES = {"deepcopy": copy.deepcopy, "pickle": lambda st: pickle.loads(pickle.dumps(st))}


def _refused(st, mutator, kind):
    """``mutator`` on the store ``kind`` of ``st``, given a table-less copy of
    a stored witness, raises TypeError and leaves ``st`` as it was."""
    before = _contents(st)
    witnesses = getattr(st, kind)
    key, witness = next(iter(witnesses.items()))
    with pytest.raises(TypeError, match="written only by discover_structure"):
        _MUTATORS[mutator](witnesses, key, replace(witness))
    assert _contents(st) == before and witnesses[key] is witness


@pytest.mark.parametrize("kind", _STORES)
@pytest.mark.parametrize("mutator", sorted(_MUTATORS))
def test_every_mutator_is_refused(mutator, kind):
    # discovery is the only writer, so every witness a table holds is one a
    # search verified: even a universal copy of a stored witness is refused
    _refused(discover_structure(make_finset([0, 1, 2, 3], "finset-0123")), mutator, kind)


@pytest.mark.parametrize("duplicate", sorted(_DUPLICATES))
def test_a_store_into_a_copy_leaves_the_original_unchanged(duplicate):
    # a copied or unpickled table refuses every store as the original does
    st = discover_structure(make_finset([0, 1, 2, 3], "finset-0123"))
    before = _contents(st)
    twin = _DUPLICATES[duplicate](st)
    assert _contents(twin) == before
    for mutator in _MUTATORS:
        for kind in _STORES:
            _refused(twin, mutator, kind)
    assert _contents(st) == before and _transposes_invert_theta(twin)


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_a_pickled_structure_table_round_trips(name):
    st = discover_structure(REFERENCE_MODELS[name]())
    back = pickle.loads(pickle.dumps(st))
    assert _contents(back) == _contents(st)
    assert _transposes_invert_theta(back)


@pytest.mark.parametrize("op", [False, True], ids=["cone", "cocone"])
def test_mediators_match_a_hom_set_scan(op):
    # every two legs among the sets {0, 1, 2} and every family at every W:
    # the key check finds what composing each arrow of the hom-set finds,
    # in the same order, universal cone or not
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    small = cat.objects[:3]
    homs = (lambda x, y: cat.hom(y, x)) if op else cat.hom
    after = (lambda p, m: cat.compose(m, p)) if op else cat.compose
    found = Counter()
    for v, a, b, w in product(small, repeat=4):
        for legs in product(homs(v, a), homs(v, b)):
            for family in product(homs(w, a), homs(w, b)):
                ms = st.mediators(v, legs, w, family, op=op)
                assert ms == [m for m in homs(w, v)
                              if all(after(p, m) == f for p, f in zip(legs, family))]
                found[min(len(ms), 2)] += 1
    assert found[0] and found[1] and found[2]


# -- the search against the mediator-counting reference --------------------------------

@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_witnesses_and_failures_match_reference(name):
    assert_discovery_matches(discover_structure(REFERENCE_MODELS[name]()))


@pytest.mark.parametrize("make", [lambda: gen_powerset(3).category(),
                                  lambda: make_finset([0, 1, 2, 3], "finset-0123")],
                         ids=["powerset-3", "finset-0123"])
def test_pairing_and_transpose_tables(make):
    cat = make()
    st = discover_structure(cat)
    for pw in st.products.values():
        a, b = pw.pair
        for w in cat.objects:
            for f in cat.hom(w, a):
                for g in cat.hom(w, b):
                    m = st.pair(f, g)
                    assert (cat.compose(pw.proj1, m), cat.compose(pw.proj2, m)) == (f, g)
    for cw in st.coproducts.values():
        a, b = cw.pair
        for w in cat.objects:
            for f in cat.hom(a, w):
                for g in cat.hom(b, w):
                    m = st.copair(f, g)
                    assert (cat.compose(m, cw.inj1), cat.compose(m, cw.inj2)) == (f, g)
    checked = 0
    for ew in st.exponentials.values():
        a, c = ew.base, ew.target
        for w in cat.objects:
            if (w.index, a.index) not in st.products:
                continue
            for g in cat.hom(w, ew.apex):
                assert st.transpose(st.theta(g, a, c), w, a) == g
                checked += 1
            for f in cat.hom(st.product(w, a).apex, c):
                assert st.theta(st.transpose(f, w, a), a, c) == f
    assert checked > 0
