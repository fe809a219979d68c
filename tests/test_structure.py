import copy
import gc
import pickle
import re
import weakref
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from catlogic.errors import NoSuchStructure, ShapeMismatch, UniversalityBroken
from catlogic.heyting import gen_powerset
from catlogic.kernel import FinCategory, validate_category
from catlogic import structure
from catlogic.structure import (
    discover_structure,
    find_coproduct,
    find_exponential,
    find_initial,
    find_product,
    find_terminal,
)

from conftest import REFERENCE_MODELS, make_finset, subset_name, subset_of
from hom_recount import recount
from structure_reference import ref_cone, ref_exponential, ref_universal_object


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


def test_corrupted_witness_breaks_universality():
    # a witness whose projections are swapped relative to its pair admits no
    # mediator for some cones; the table refuses it when it is stored
    from catlogic.structure import ProductWitness
    cat = FinCategory.build(["m"], [("s", "m", "m")],
                            compositions=[("s", "s", "id_m")], name="Z2")
    st = discover_structure(cat)
    m = cat.obj("m")
    fake = ProductWitness((m, m), m, cat.identity_of(m), cat.arrow("s"))
    message = "(m, m) with apex m: composing with (id_m, s) is not a bijection onto the cones"
    with pytest.raises(UniversalityBroken, match=re.escape(message)):
        st.products[(m.index, m.index)] = fake
    assert (m.index, m.index) not in st.products
    with pytest.raises(NoSuchStructure):
        st.pair(cat.identity_of(m), cat.identity_of(m))


def test_replaced_witness_is_verified_again():
    # a copy of a discovered witness with other legs must not answer from
    # the original's pairing table
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    one, two = cat.objects[1], cat.objects[2]
    pw = st.product(one, two)
    assert pw.apex == two and pw.proj2.name == "f2_2_01"
    st.products[(one.index, two.index)] = swapped = replace(pw, proj2=cat.arrow("f2_2_10"))
    for w in cat.objects:
        for f in cat.hom(w, one):
            for g in cat.hom(w, two):
                assert cat.compose(cat.arrow("f2_2_10"), st.pair(f, g)) == g
    message = ("(x1n1, x2n2) with apex x2n2: composing with (f2_1_00, f2_2_00) is not "
               "a bijection onto the cones")
    with pytest.raises(UniversalityBroken, match=re.escape(message)):
        st.products[(one.index, two.index)] = replace(pw, proj2=cat.arrow("f2_2_00"))
    assert st.products[(one.index, two.index)] is swapped


def test_replacing_a_product_verifies_the_exponentials_on_its_base():
    # the transposes of each c^1 from 2 were read through the old proj1 of
    # 2 x 1; storing the other automorphism of 2 gives every c^1 a table over it
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    one, two = cat.objects[1], cat.objects[2]
    st.products[(2, 1)] = replace(st.product(two, one), proj1=cat.arrow("f2_2_10"))
    checked = 0
    for (base, target), ew in st.exponentials.items():
        if base == 1:
            for f in cat.hom(two, cat.objects[target]):
                assert st.theta(st.transpose(f, two, one), one, cat.objects[target]) == f
                checked += 1
    assert checked


@pytest.mark.parametrize("kind, key, other", [
    ("products", (1, 2), (2, 1)),
    ("coproducts", (1, 2), (2, 1)),
    ("exponentials", (1, 2), (1, 1)),
], ids=["product", "coproduct", "exponential"])
def test_a_witness_is_stored_only_under_its_own_pair(kind, key, other):
    # the table reads take a stored witness to be one for its key
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    witnesses = getattr(st, kind)
    kept, moved = witnesses[key], witnesses[other]
    a, b = (cat.objects[i].name for i in other)
    with pytest.raises(ShapeMismatch, match=re.escape(f"a witness for ({a}, {b}) stored under {key}")):
        witnesses[key] = moved
    assert witnesses[key] is kept


def test_a_dropped_structure_table_is_freed_at_once():
    # the stores' checks must not hold the table strongly: a reference cycle
    # would keep every dropped table, witness tables and all, until the
    # cycle collector runs
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


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda st: pickle.loads(pickle.dumps(st))],
                         ids=["deepcopy", "pickle"])
def test_a_store_into_a_copy_leaves_the_original_unchanged(duplicate):
    # the stores' checks ran on the original table: storing the other 2 x 1
    # product into a deep copy verified the original's exponentials on base
    # 1 again, against the copy's product, and 18 of its transposes then
    # stopped inverting theta
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    before = _contents(st)
    twin = duplicate(st)
    assert _contents(twin) == before
    other = replace(twin.products[(2, 1)], proj1=twin.cat.arrow("f2_2_10"))
    twin.products[(2, 1)] = other
    assert twin.products[(2, 1)] is other and st.products[(2, 1)] != other
    assert _contents(st) == before
    assert _transposes_invert_theta(st) and _transposes_invert_theta(twin)
    # the copy refuses a broken witness by itself, and the original is untouched
    with pytest.raises(UniversalityBroken):
        twin.products[(1, 2)] = replace(twin.products[(1, 2)], proj2=cat.arrow("f2_2_00"))
    assert _contents(st) == before


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


def test_table_less_witness_is_verified_once(monkeypatch):
    # a replaced witness is verified when it is stored and never on use;
    # one that fails is refused on every store and leaves the table as it was
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    calls = {"cone": 0, "transpose": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(structure, "_cone_table", counted("cone", structure._cone_table))
    monkeypatch.setattr(structure, "_transpose_tables",
                        counted("transpose", structure._transpose_tables))
    one, two = cat.objects[1], cat.objects[2]
    pw, cw, ew = st.product(one, two), st.coproduct(one, one), st.exponential(one, two)
    st.products[(1, 2)] = replace(pw)
    st.coproducts[(1, 1)] = replace(cw)
    st.exponentials[(1, 2)] = replace(ew)
    assert calls == {"cone": 2, "transpose": 1}
    for _ in range(2):
        for w in cat.objects:
            for f in cat.hom(w, one):
                for g in cat.hom(w, two):
                    m = st.pair(f, g)
                    assert (cat.compose(pw.proj1, m), cat.compose(pw.proj2, m)) == (f, g)
            for f in cat.hom(one, w):
                m = st.copair(f, f)
                assert cat.compose(m, cw.inj1) == cat.compose(m, cw.inj2) == f
            for f in cat.hom(st.product(w, one).apex, two):
                assert st.theta(st.transpose(f, w, one), one, two) == f
    assert calls == {"cone": 2, "transpose": 1}
    st.products[(1, 2)] = kept = replace(pw)  # a new object is verified again
    st.pair(pw.proj1, pw.proj2)
    assert calls == {"cone": 3, "transpose": 1}
    for k in range(4, 7):
        with pytest.raises(UniversalityBroken):
            st.products[(1, 2)] = replace(pw, proj2=cat.arrow("f2_2_00"))
        assert calls["cone"] == k and st.products[(1, 2)] is kept


def test_exponential_apex_without_product_breaks_universality():
    # in the finite sets {0,1,2,3}, 1^3 = 1 but 3 x 3 is missing: an
    # exponential witness with apex 3 cannot be verified, and says so
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    one, three = cat.objects[1], cat.objects[3]
    ew = st.exponential(three, one)
    assert (3, 3) not in st.products
    message = ("exponential x1n1^x3n3 with apex x3n3: composing with f3_1_000 is not "
               "a bijection onto the arrows into x1n1")
    with pytest.raises(UniversalityBroken, match=re.escape(message)):
        st.exponentials[(3, 1)] = replace(ew, apex=three)
    f = cat.hom(st.product(one, three).apex, one)[0]
    assert st.transpose(f, one, three).cod == ew.apex.index


@pytest.mark.parametrize("ev", ["f1_2_0", "f2_3_01"])
def test_theta_verifies_a_replaced_exponential(ev):
    # an eval out of 1 (not 2 x 1) made every theta read UNDEFINED, which
    # indexed the arrows from the end; an eval into 3 (not 2) has a table of
    # the right size but answers into the wrong object.  Both are refused
    # when they are stored, so theta and delta inverse read the intact witness.
    from catlogic.theorems import build_delta_inverse
    from delta_reference import build_delta_inverse as _delta_inverse_chain
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    one, two = cat.objects[1], cat.objects[2]
    ew = st.exponential(one, two)
    message = (f"exponential x2n2^x1n1 with apex x2n2: composing with {ev} is not "
               f"a bijection onto the arrows into x2n2")
    with pytest.raises(UniversalityBroken, match=re.escape(message)):
        st.exponentials[(1, 2)] = replace(ew, eval=cat.arrow(ev))
    assert st.exponentials[(1, 2)] is ew
    assert st.theta(cat.identity_of(two), one, two) == ew.eval
    # delta inverse on (1, 1, 1) transposes into 2^1
    assert build_delta_inverse(st, one, one, one) == _delta_inverse_chain(st, one, one, one)


def test_arrow_product_verifies_its_source_product():
    # a projection out of x1n1 makes the pairing table of the empty product
    # {-60: 0}, a key no pair of arrows has, and arrow_product read the bad
    # projection unchecked to answer f0_0_
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    x0 = cat.objects[0]
    message = ("(x0n0, x0n0) with apex x0n0: composing with (f1_1_0, f0_0_) is not "
               "a bijection onto the cones")
    with pytest.raises(UniversalityBroken, match=re.escape(message)):
        st.products[(0, 0)] = replace(st.products[(0, 0)], proj1=cat.arrow("f1_1_0"))
    assert st.arrow_product(cat.identity_of(x0), cat.identity_of(x0)) == cat.identity_of(x0)


@pytest.mark.parametrize("key, leg, arrow, message", [
    # proj1 runs into x2n2: the error named the next product and the
    # category's last arrow
    ((1, 1), "proj1", "f1_2_0", "(x1n1, x1n1) with apex x1n1: composing with "
                                "(f1_2_0, f1_1_0) is not a bijection onto the cones"),
    # a constant proj2 is typed but not a product: delta came out f3_3_112,
    # not f3_3_012
    ((1, 2), "proj2", "f2_2_11", "(x1n1, x2n2) with apex x2n2: composing with "
                                 "(f2_1_00, f2_2_11) is not a bijection onto the cones"),
], ids=["mistyped", "constant"])
def test_delta_verifies_its_source_product(key, leg, arrow, message):
    # id_x1n1 x inj projects from x1n1 x b for the b of the triple
    from catlogic.theorems import build_delta
    from delta_reference import build_delta as _delta_chain
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    a, b = (cat.objects[i] for i in key)
    with pytest.raises(UniversalityBroken) as exc:
        st.products[key] = replace(st.products[key], **{leg: cat.arrow(arrow)})
    assert str(exc.value) == message
    assert build_delta(st, a, b, a) == _delta_chain(st, a, b, a)
    if key == (1, 2):
        assert build_delta(st, a, b, a).name == "f3_3_012"


def test_swap_verifies_its_product():
    # proj2 out of x1n1 was read unchecked, and the error blamed the intact
    # product (x2n2, x1n1) for the missing mediator of (f1_2_0, f2_1_00)
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    message = ("(x1n1, x2n2) with apex x2n2: composing with (f2_1_00, f1_2_0) is not "
               "a bijection onto the cones")
    with pytest.raises(UniversalityBroken, match=re.escape(message)):
        st.products[(1, 2)] = replace(st.products[(1, 2)], proj2=cat.arrow("f1_2_0"))
    one, two = cat.objects[1], cat.objects[2]
    assert cat.compose(st.swap(two, one), st.swap(one, two)) == cat.identity_of(two)


@pytest.mark.parametrize("key, leg, arrow, legs", [
    ((2, 1), "proj1", "f2_2_00", "(f2_2_00, f2_1_00)"),    # b x a, a constant proj1
    ((1, 1), "proj2", "f1_2_0", "(f1_1_0, f1_2_0)"),       # c x a, a mistyped proj2
    # a x (b + c), a constant proj2: the table reads answered f3_3_000
    ((1, 3), "proj2", "f3_3_000", "(f3_1_000, f3_3_000)"),
], ids=["b-x-a", "c-x-a", "a-x-bc"])
def test_delta_inverse_verifies_the_products_it_swaps(key, leg, arrow, legs):
    # on (x1n1, x2n2, x1n1) the inverse swaps out of b x a, c x a and
    # a x (b + c); a broken one is refused before the inverse can read it
    from catlogic.theorems import build_delta_inverse
    from delta_reference import build_delta_inverse as _delta_inverse_chain
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    a, b, c = (cat.objects[i] for i in (1, 2, 1))
    pw = st.products[key]
    with pytest.raises(UniversalityBroken) as exc:
        st.products[key] = replace(pw, **{leg: cat.arrow(arrow)})
    x, y = (cat.objects[i].name for i in key)
    assert str(exc.value) == (f"({x}, {y}) with apex {pw.apex.name}: composing with "
                              f"{legs} is not a bijection onto the cones")
    assert build_delta_inverse(st, a, b, c) == _delta_inverse_chain(st, a, b, c)


def test_every_mistyped_leg_fails_verification():
    # a leg must run from the apex to its pair object (into the apex for a
    # coproduct); a size check alone let 490 products and 24 coproducts
    # with one mistyped leg through
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    tried = 0
    for witnesses, legs, op in ((st.products, ("proj1", "proj2"), False),
                                (st.coproducts, ("inj1", "inj2"), True)):
        for key, w in list(witnesses.items()):
            for leg, obj in zip(legs, w.pair):
                ends = (obj.index, w.apex.index) if op else (w.apex.index, obj.index)
                for arr in cat.arrows:
                    if (arr.dom, arr.cod) != ends:
                        tried += 1
                        with pytest.raises(UniversalityBroken):
                            witnesses[key] = replace(w, **{leg: arr})
                        assert witnesses[key] is w
    assert tried


@pytest.mark.parametrize("store", [
    lambda table, key, w: table.__setitem__(key, w),
    lambda table, key, w: table.update({key: w}),
    lambda table, key, w: table.update([(key, w)]),
    lambda table, key, w: table.setdefault(key, w),
    lambda table, key, w: table.__ior__({key: w}),
], ids=["setitem", "update-dict", "update-pairs", "setdefault", "ior"])
def test_every_mutator_verifies_what_it_stores(store):
    # 3 x 3 is missing from the finite sets {0,1,2,3}; the product 1 x 3
    # restated as a product of (3, 3) has a proj1 into 1, not 3
    cat = make_finset([0, 1, 2, 3], "finset-0123")
    st = discover_structure(cat)
    three, pw = cat.objects[3], st.products[(1, 3)]
    before = dict(st.products)
    message = ("(x3n3, x3n3) with apex x3n3: composing with (f3_1_000, f3_3_012) is not "
               "a bijection onto the cones")
    with pytest.raises(UniversalityBroken, match=re.escape(message)):
        store(st.products, (3, 3), replace(pw, pair=(three, three)))
    assert st.products == before
    # a universal copy is stored, and given its table, by any of them
    del st.products[(1, 3)]
    store(st.products, (1, 3), copy := replace(pw))
    assert st.products[(1, 3)] is copy and copy.table == pw.table


# -- the search against the mediator-counting reference --------------------------------

@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_witnesses_and_failures_match_reference(name):
    cat = REFERENCE_MODELS[name]()
    st = discover_structure(cat)

    def found(witness, failure, fields):
        return failure if witness is None else tuple(getattr(witness, f).index for f in fields)

    def same(got, ref):
        # the same witness, or both fail; the recount below checks the failure
        return isinstance(got, str) if isinstance(ref, str) else got == ref

    assert same(found(st.terminal, st.terminal_failure, ["obj"]), ref_universal_object(cat))
    assert same(found(st.initial, st.initial_failure, ["obj"]),
                ref_universal_object(cat, op=True))
    ref_products = {}
    for a in cat.objects:
        for b in cat.objects:
            key = (a.index, b.index)
            ref = ref_cone(cat, a, b)
            assert same(found(st.products.get(key), st.product_failures.get(key),
                              ["apex", "proj1", "proj2"]), ref)
            if not isinstance(ref, str):
                ref_products[key] = ref
            assert same(found(st.coproducts.get(key), st.coproduct_failures.get(key),
                              ["apex", "inj1", "inj2"]), ref_cone(cat, a, b, op=True))
    for a in cat.objects:
        for c in cat.objects:
            key = (a.index, c.index)
            assert same(found(st.exponentials.get(key), st.exponential_failures.get(key),
                              ["apex", "eval"]), ref_exponential(cat, ref_products, a, c))
    recount(cat, st)


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
