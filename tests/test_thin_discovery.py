"""Discovery on a thin view against the general path.

On a view whose hom-sets hold at most one arrow, equal hom-set sizes are
the universal property and its tables are read off the hom lists.  These
tests force ``_View.thin`` off to run the general, composing path on the
same category and compare everything discovery stores, on the ladder, on
every lattice of a Moore family on three points and on the bundled suites.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from catlogic import structure
from catlogic.bundles import bundled_suites
from catlogic.errors import NoSuchStructure
from catlogic.heyting import gen_chain, gen_powerset
from catlogic.kernel import gen_finset
from catlogic.semantics import build_interpretation, check_conditions
from catlogic.structure import Cone, StructureTable, discover_structure

from conftest import LADDER_MODELS, moore_families, moore_lattice

MOORE = moore_families(3)


@contextmanager
def _general(monkeypatch):
    """Every view built inside the block takes the general path."""
    init = structure._View.__init__

    def general_init(view, *args, **kwargs):
        init(view, *args, **kwargs)
        view.thin = False

    with monkeypatch.context() as patch:
        patch.setattr(structure._View, "__init__", general_init)
        yield


def _thin(cat) -> bool:
    return all(len(h) <= 1 for h in cat.index().hom.values())


def _stored(st: StructureTable):
    """Every witness with the table its store holds, and every failure text,
    of the five stores: the terminal and initial objects, products,
    coproducts and exponentials."""
    def tabled(store):
        return {k: (w, store._tables[k]) for k, w in store.items()}

    return ([tabled(st._ends), st.terminal_failure, st.initial_failure]
            + [tabled(store) for store in (st.products, st.coproducts, st.exponentials)]
            + [dict(failures) for failures in (st.product_failures, st.coproduct_failures,
                                               st.exponential_failures)])


def _assert_thin_path_matches(cat, monkeypatch):
    st = discover_structure(cat)
    assert st._view.thin == st._op.thin == _thin(cat)
    with _general(monkeypatch):
        general = discover_structure(cat)
    assert not general._view.thin and not general._op.thin
    assert _stored(st) == _stored(general)
    return st


@pytest.mark.parametrize("name", sorted(LADDER_MODELS))
def test_thin_path_matches_the_general_path(name, monkeypatch):
    _assert_thin_path_matches(LADDER_MODELS[name](), monkeypatch)


def test_there_are_61_moore_families_on_three_points():
    assert len(MOORE) == 61  # OEIS A102896


def test_thin_path_matches_the_general_path_on_every_moore_family(monkeypatch):
    # every lattice with at most three join-irreducibles, M3 and N5 among
    # them: the non-distributive ones lack exponentials, so failure texts
    # are compared too
    failing = 0
    for family in MOORE:
        st = _assert_thin_path_matches(moore_lattice(family), monkeypatch)
        assert st._view.thin
        failing += bool(st.exponential_failures)
    assert 0 < failing < len(MOORE)


def test_a_complete_table_is_thin():
    # every finite bicartesian closed category is a preorder: n.1 = m.1 for
    # some n < m forces |hom(1, X)| <= 1, and hom(A, B) = hom(1, B^A)
    cats = [make() for make in LADDER_MODELS.values()] + [moore_lattice(f) for f in MOORE]
    complete = [cat for cat in cats if discover_structure(cat).complete]
    assert all(_thin(cat) for cat in complete)
    assert len(complete) > len(MOORE) // 2
    assert {"Z2", "finset-0123", "finset-012333"} <= {cat.name for cat in cats if not _thin(cat)}


def test_quantifier_searches_match_the_general_path(monkeypatch):
    # the cones build_interpretation searches and the conditions re-check
    # take the thin path through the one predicate, _universal, too
    searches = {name: getattr(StructureTable, name) for name in ("find_cone", "cone_miss")}
    calls = []

    def recording(name):
        def record(st, *args, **kwargs):
            calls.append((name, args, kwargs))
            return searches[name](st, *args, **kwargs)
        return record

    for name in searches:
        monkeypatch.setattr(StructureTable, name, recording(name))
    refuted = Counter()
    for suite in bundled_suites():
        cat = suite.model.category()
        calls.clear()
        st = discover_structure(cat)
        check_conditions(build_interpretation(st, suite.theory()))
        assert st._view.thin and calls
        # and searches that fail: each diagram without its apex, and every
        # other cone (cocone) over its legs
        for _, (legs, among), kwargs in [c for c in calls if c[0] == "find_cone"]:
            cone = searches["find_cone"](st, legs, among, **kwargs)
            calls.append(("find_cone", (legs, [o for o in among if o != cone.apex]), kwargs))
            for v in among:
                homs = [cat.hom(x, v) if cone.op else cat.hom(v, x) for x in legs]
                if all(homs):
                    other = Cone(v, tuple(h[0] for h in homs), cone.op)
                    calls.append(("cone_miss", (other, among), {}))
        with _general(monkeypatch):
            general = discover_structure(cat)
        for name, args, kwargs in calls:
            mine = _outcome(searches[name], st, *args, **kwargs)
            assert mine == _outcome(searches[name], general, *args, **kwargs), (name, args)
            refuted[name] += isinstance(mine, (str, tuple))
    assert refuted["find_cone"] and refuted["cone_miss"]


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except NoSuchStructure as exc:
        return str(exc)


def _composing_calls(monkeypatch, cat) -> int:
    """The calls discovery of ``cat`` makes to the helpers that compose."""
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(structure._View, "after", counted("after", structure._View.after))
    monkeypatch.setattr(structure, "_times_id", counted("_times_id", structure._times_id))
    discover_structure(cat)
    return sum(calls.values())


@pytest.mark.parametrize("make, composes", [
    (lambda: gen_chain(32).category(), False),
    (lambda: gen_powerset(4).category(), False),
    (lambda: gen_finset(3), True),
], ids=["chain-32", "powerset-4", "finset-3"])
def test_discovery_composes_only_off_thin_views(monkeypatch, make, composes):
    # a count, not a timing: a thin view reads its tables off the hom lists
    assert (_composing_calls(monkeypatch, make()) > 0) == composes
