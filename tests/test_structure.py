import copy
import gc
import operator
import pickle
import random
import weakref
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from catlogic.errors import NoSuchStructure, ShapeMismatch
from catlogic.heyting import gen_powerset
from catlogic.kernel import FinCategory, validate_category
from catlogic import structure
from catlogic.structure import Cone, discover_structure

from conftest import (
    REFERENCE_MODELS,
    composable_pairs,
    make_finset,
    opposite,
    subset_name,
    subset_of,
    with_arrow_order,
    with_composition,
)
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
    assert [p.name for p in w.legs] == ["u", "id_bot"] and not w.op
    assert st.product(h2.obj("top"), h2.obj("top")).apex.name == "top"


def test_h2_terminal_initial(h2_structure):
    assert h2_structure.terminal_obj().name == "top"
    assert h2_structure.initial_obj().name == "bot"


def test_single_object_category_initial_is_that_object():
    cat = FinCategory.build(["star"], [], name="one")
    assert validate_category(cat).ok
    st = discover_structure(cat)
    assert st.initial.apex.name == "star"
    assert st.terminal.apex.name == "star"


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
    st = discover_structure(cat)
    with pytest.raises(NoSuchStructure) as exc:
        st.product(cat.obj("m"), cat.obj("m"))
    assert "[4]" in str(exc.value)
    with pytest.raises(NoSuchStructure):
        st.terminal_obj()


def test_tiebreak_prefers_lowest_index():
    # the walking isomorphism: both objects qualify as terminal, x wins by index
    cat = FinCategory.build(
        ["x", "y"], [("f", "x", "y"), ("g", "y", "x")],
        compositions=[("g", "f", "id_x"), ("f", "g", "id_y")], name="iso")
    assert validate_category(cat).ok
    st = discover_structure(cat)
    assert st.terminal.apex.name == "x"
    assert st.initial.apex.name == "x"
    w = st.product(cat.obj("x"), cat.obj("y"))
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
    g, f = next(composable_pairs(cat))
    k = (cat.table_entry(g, f) + 1) % len(cat.arrows)
    broken = with_composition(cat, g, f, cat.arrows[k])
    with pytest.raises(LawViolation):
        discover_structure(broken)


def test_discovery_builds_the_tables_two_views(b4, monkeypatch):
    # every fixed-diagram search runs on the table's own view or its opposite
    built = []
    init = structure._View.__init__
    monkeypatch.setattr(structure._View, "__init__",
                        lambda view, *args, **kw: built.append(view) or init(view, *args, **kw))
    st = discover_structure(b4)
    assert built == [st._view, st._op]


def test_malformed_cone_is_refused(b4, b4_st):
    e1, e2, e12 = (b4.obj(n) for n in ("e1", "e2", "e12"))
    legs = b4_st.product(e1, e2).legs
    id_e1 = b4_st.identity(e1)
    for cone, message in (
            (Cone(e12, legs), "leg le_e_e1 of the cone at e12 does not leave it"),
            (Cone(e2, (id_e1,)), "leg id_e1 of the cone at e2 does not leave it"),
            (Cone(e12, (b4_st.coproduct(e1, e2).legs[0], id_e1), op=True),
             "leg id_e1 of the cocone at e12 does not enter it")):
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            b4_st.cone_miss(cone, b4.objects)
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            b4_st.mediators(cone, e1, [id_e1] * len(cone.legs))
    # well-formed cones are answered as before
    assert b4_st.cone_miss(Cone(e1, (id_e1,)), b4.objects) is None
    assert b4_st.mediators(Cone(e1, (id_e1,)), e1, [id_e1]) == [id_e1]


def test_mediators_refuse_a_family_of_another_length(b4, b4_st):
    # one arrow of index 1 has the radix key of the pair of indices 0 and 1,
    # so a short family would alias the family (le_e_e1, le_e_e2)
    e, e1, e2 = (b4.obj(n) for n in ("e", "e1", "e2"))
    product_cone = b4_st.product(e1, e2)
    with pytest.raises(ShapeMismatch,
                       match="^family of 1 arrows for the cone at e with 2 legs$"):
        b4_st.mediators(product_cone, e, [b4.arrow("le_e_e2")])
    coproduct_cone = b4_st.coproduct(e1, e2)
    fam = [b4.arrow("le_e1_e12"), b4.arrow("le_e2_e12"), b4.arrow("id_e12")]
    with pytest.raises(ShapeMismatch,
                       match="^family of 3 arrows for the cocone at e12 with 2 legs$"):
        b4_st.mediators(coproduct_cone, b4.obj("e12"), fam)
    assert b4_st.mediators(product_cone, e, [b4.arrow("le_e_e1"), b4.arrow("le_e_e2")]) \
        == [b4_st.identity(e)]


def test_mediators_refuse_a_family_off_the_test_object(b4, b4_st):
    e, e1, e2, e12 = (b4.obj(n) for n in ("e", "e1", "e2", "e12"))
    with pytest.raises(ShapeMismatch, match="^family arrow id_e1 does not leave e$"):
        b4_st.mediators(b4_st.product(e1, e2), e, [b4.arrow("le_e_e1"), b4_st.identity(e1)])
    with pytest.raises(ShapeMismatch, match="^family arrow le_e_e1 does not enter e12$"):
        b4_st.mediators(b4_st.coproduct(e1, e2), e12,
                        [b4.arrow("le_e1_e12"), b4.arrow("le_e_e1")])


def test_find_coproduct_single(b4, b4_st):
    w = b4_st.coproduct(b4.obj("e1"), b4.obj("e2"))
    assert w.apex.name == "e12"
    inj1, inj2 = w.legs
    assert inj1.dom == b4.obj("e1").index
    assert inj2.dom == b4.obj("e2").index
    assert w.op


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
            if kind == "exponentials":
                ends = (w.base.index, w.target.index)
            else:  # the leg objects: codomains of a cone, domains of a cocone
                ends = tuple(p.dom if w.op else p.cod for p in w.legs)
            assert key == ends


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
    return ({kind: {(x, y): (w, getattr(st, kind).rows[x][y][-1])
                    for (x, y), w in getattr(st, kind).items()} for kind in _STORES},
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
    """``mutator`` on the store ``kind`` of ``st``, given a copy of a stored
    witness, raises TypeError and leaves ``st`` as it was."""
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


_ENDS = ("terminal", "initial")


@pytest.mark.parametrize("name", ["finset-0123", "Z2"])
def test_every_record_write_is_refused(name):
    # the terminal and initial records and the failures a missing witness
    # raises are discovery's alone too: finset-0123 has both ends and fails
    # some keys of every store, Z2 has neither end
    st = discover_structure(REFERENCE_MODELS[name]())
    before = _contents(st)
    ends = {end: _outcome(getattr(st, end + "_obj")) for end in _ENDS}
    for attr in (*_ENDS, *(end + "_failure" for end in _ENDS),
                 *(kind[:-1] + "_failures" for kind in _STORES)):
        for write in (setattr, lambda obj, attr, _: delattr(obj, attr)):
            with pytest.raises(TypeError, match="written only by discover_structure"):
                write(st, attr, "forged")
    for kind in _STORES:
        failures = getattr(st, kind[:-1] + "_failures")
        assert failures
        for key, text in failures.items():
            for write in (operator.setitem, lambda view, key, _: operator.delitem(view, key)):
                with pytest.raises(TypeError):
                    write(failures, key, "forged")
            assert _outcome(lambda: getattr(st, kind)[key]) == ("NoSuchStructure", text)
    assert {end: _outcome(getattr(st, end + "_obj")) for end in _ENDS} == ends
    assert _contents(st) == before


def test_the_category_and_the_stores_cannot_be_rebound():
    # rebinding a store once turned every later read of it into a KeyError
    st = discover_structure(make_finset([0, 1, 2, 3], "finset-0123"))
    before = _contents(st)
    cat, a, b = st.cat, *st.cat.objects[:2]
    for attr in ("cat", *_STORES):
        for write in (setattr, lambda obj, attr, _: delattr(obj, attr)):
            with pytest.raises(TypeError, match="written only by discover_structure"):
                write(st, attr, {})
    assert st.cat is cat and _contents(st) == before
    assert st.product(a, b) is st.products[(a.index, b.index)]


def _outcome(read):
    try:
        return read()
    except NoSuchStructure as exc:
        return "NoSuchStructure", str(exc)


@pytest.mark.parametrize("relabel", [False, True], ids=["built", "relabelled"])
@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_every_key_holds_a_witness_or_its_failure(name, relabel):
    # each store holds exactly one of a witness and a failure under each of
    # its n^2 keys, and each end exactly one of a witness and a failure: a
    # read of a missing witness never needs a text of its own
    cat = REFERENCE_MODELS[name]()
    if relabel:
        order = list(range(len(cat.arrows)))
        random.Random(name).shuffle(order)
        cat = with_arrow_order(cat, order)
    st = discover_structure(cat)
    keys = set(product(range(len(cat.objects)), repeat=2))
    for kind in _STORES:
        witnesses, failures = getattr(st, kind), getattr(st, kind[:-1] + "_failures")
        assert witnesses.keys() | failures.keys() == keys
        assert not witnesses.keys() & failures.keys()
    for end in _ENDS:
        assert (getattr(st, end) is None) == (getattr(st, end + "_failure") is not None)


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
                ms = st.mediators(Cone(v, legs, op), w, family)
                assert ms == [m for m in homs(w, v)
                              if all(after(p, m) == f for p, f in zip(legs, family))]
                found[min(len(ms), 2)] += 1
    assert found[0] and found[1] and found[2]


def _named(cone):
    """``cone`` by the names of its apex and legs and its side; None for a failure."""
    if isinstance(cone, Cone):
        return cone.apex.name, tuple(p.name for p in cone.legs), cone.op
    return None


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_a_cocone_is_a_cone_of_the_opposite_category(name):
    # the one op flag against an explicit C^op built from the table: every
    # cocone of C is by name the cone of C^op on the other side, and each
    # search fails in one exactly when it fails in the other
    cat = REFERENCE_MODELS[name]()
    st, st_op = discover_structure(cat), discover_structure(opposite(cat))
    pairs = [(st.initial, st_op.terminal), (st.terminal, st_op.initial)]
    for key in product(range(len(cat.objects)), repeat=2):
        pairs += [(st.coproducts.get(key), st_op.products.get(key)),
                  (st.products.get(key), st_op.coproducts.get(key))]
    for a, b in product(cat.objects, repeat=2):
        for op in (False, True):
            pairs.append(tuple(_outcome(lambda: s.find_cone([a, b], cat.objects, op=side))
                               for s, side in ((st, op), (st_op, not op))))
    for mine, theirs in pairs:
        mine, theirs = _named(mine), _named(theirs)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert mine[:2] == theirs[:2] and mine[2] != theirs[2]
    assert any(_named(mine) for mine, _ in pairs) or name == "Z2"


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
        p1, p2 = pw.legs
        a, b = cat.objects[p1.cod], cat.objects[p2.cod]
        for w in cat.objects:
            for f in cat.hom(w, a):
                for g in cat.hom(w, b):
                    m = st.pair(f, g)
                    assert (cat.compose(p1, m), cat.compose(p2, m)) == (f, g)
    for cw in st.coproducts.values():
        i1, i2 = cw.legs
        a, b = cat.objects[i1.dom], cat.objects[i2.dom]
        for w in cat.objects:
            for f in cat.hom(a, w):
                for g in cat.hom(b, w):
                    m = st.copair(f, g)
                    assert (cat.compose(m, i1), cat.compose(m, i2)) == (f, g)
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
