"""Structure failures are exact hom-count refutations, checked by a recount.

``hom_recount.recount`` counts hom-sets with ``FinCategory.hom`` alone and
checks every FAIL line's column of hom-set sizes and every PASS witness's
column; the tests here run it on the non-thin models and count the work
discovery does on its failure path.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st_

from catlogic import structure
from catlogic.kernel import gen_finset, validate_category
from catlogic.structure import discover_structure

from conftest import _z2, make_finset, make_fork, with_copy
from hom_recount import recount
from structure_reference import ref_cone, ref_exponential

MODELS = {
    "Z2": (_z2, {"no column": 4, "empty": 1}),
    "finset-0123": (lambda: make_finset([0, 1, 2, 3], "finset-0123"),
                    {"pass": 36, "no column": 14}),
    "finset-012333": (lambda: make_finset([0, 1, 2, 3, 3, 3], "finset-012333"),
                      {"pass": 56, "no column": 54}),
    "gen-finset-3": (lambda: gen_finset(3), {"pass": 36, "no column": 14}),
    "fork": (make_fork, {"pass": 10, "no column": 13, "fits": 3, "empty": 3}),
    "fork-op": (lambda: make_fork(op=True), {"pass": 10, "no column": 17, "fits": 2}),
    # two apexes with the sizes of a x c: the first is named
    "fork+w": (lambda: with_copy(make_fork(), "v", "w"),
               {"pass": 16, "no column": 27, "fits": 3, "empty": 4}),
    "fork-op+w": (lambda: with_copy(make_fork(op=True), "v", "w"),
                  {"pass": 18, "no column": 30, "fits": 2}),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_recount_confirms_every_verdict(name):
    make, kinds = MODELS[name]
    cat = make()
    assert validate_category(cat).ok
    assert recount(cat, discover_structure(cat)) == Counter(kinds)


@settings(max_examples=25, deadline=None)
@given(st_.lists(st_.integers(0, 3), min_size=1, max_size=6))
def test_recount_on_random_finite_sets(sizes):
    cat = make_finset(sizes)
    seen = recount(cat, discover_structure(cat))
    # hom-set sizes tell finite sets apart, and a set of the right size is
    # a universal apex, so no failure names an apex that has the sizes
    assert "fits" not in seen


@pytest.mark.parametrize("op", [False, True], ids=["product", "coproduct"])
def test_apex_with_the_sizes_of_a_cone_is_named(op):
    # in the fork v has the hom-set sizes of a x c (of a + c on the
    # opposite side) but is neither; the reference search fails there too
    cat = make_fork(op)
    st = discover_structure(cat)
    a, c = cat.obj("a"), cat.obj("c")
    failures = st.coproduct_failures if op else st.product_failures
    assert isinstance(ref_cone(cat, a, c, op=op), str)
    assert failures[(a.index, c.index)] == (
        f"{cat.name}: no {'coproduct' if op else 'product'} for (a, c); v has the hom-set "
        f"sizes [0, 2, 0]{' counting arrows out of it' if op else ''}, but 2 arrows "
        f"v -> v compose with (t, f) to (t, f)")


def test_apex_with_the_sizes_of_an_exponential_is_named():
    # from a and v, the objects with a product with a, v has the hom-set
    # sizes of c^a, but both evals send id_v and e to the same arrow
    cat = make_fork()
    st = discover_structure(cat)
    a, c = cat.obj("a"), cat.obj("c")
    ref_products = {k: (w.apex.index, *(p.index for p in w.legs))
                    for k, w in st.products.items()}
    assert isinstance(ref_exponential(cat, ref_products, a, c), str)
    assert st.exponential_failures[(a.index, c.index)] == (
        "fork: no exponential with base a, target c; v has the hom-set sizes [0, 2] "
        "from (a, v), but with eval f, 2 arrows m : v -> v have eval . (m x id_a) = f")


def _counted(monkeypatch, *names):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(structure, name, counted(name, getattr(structure, name)))
    return calls


@pytest.mark.parametrize("make, counts", [
    (lambda: make_finset([0, 1, 2, 3, 3, 3], "finset-012333"),
     {"_refutation": 54, "_keys": 145, "_transpose_tables": 20, "_times_id": 20}),
    (make_fork, {"_refutation": 19, "_keys": 24, "_first_miss": 2,
                 "_transpose_tables": 4, "_times_id": 5}),
], ids=["finset-012333", "fork"])
def test_failure_path_examines_at_most_one_apex(monkeypatch, make, counts):
    # one refutation per failure, which examines no apex when no object has
    # the column (every failure in finite sets) and one otherwise: a
    # _first_miss for a cone, and for an exponential one _times_id more
    # than the search's one per _transpose_tables.  Candidates are never
    # scored, so the counts are exact.  _keys also runs once per stored cone
    # off a thin view, to tabulate it: 36 of finset-012333's calls (20
    # products, 14 coproducts and both ends) and 7 of the fork's.
    cat = make()
    calls = _counted(monkeypatch, "_refutation", "_keys", "_first_miss",
                     "_transpose_tables", "_times_id")
    st = discover_structure(cat)
    assert calls == Counter(counts)
    assert calls["_refutation"] == (
        len(st.product_failures) + len(st.coproduct_failures)
        + len(st.exponential_failures) + (st.terminal is None) + (st.initial is None))
    apexes = calls["_first_miss"] + calls["_times_id"] - calls["_transpose_tables"]
    assert apexes <= calls["_refutation"]
