"""The row index of each witness store against the store itself, and the
store reads of the distributivity sweeps.

Discovery indexes each store of object index pairs as n x n rows: the
witness as plain ints and the table the store holds for it, or None where a
failure is recorded.  The combinators, the delta constructions and
condition 4 read their witnesses from the rows, and read a store only where
a row is None, to raise the recorded failure.
"""

import copy
import pickle
from itertools import product

import pytest

from catlogic import structure
from catlogic.errors import WorkbenchError
from catlogic.heyting import gen_chain, gen_powerset
from catlogic.kernel import gen_finset
from catlogic.logic import parse_theory
from catlogic.semantics import (build_interpretation, check_conditions, derive_instances,
                                distributivity_verdict)
from catlogic.structure import Cone, discover_structure
from catlogic.theorems import build_delta, delta_certificate, verify_frobenius

from conftest import (LADDER_MODELS, PAIR_CONST_THEORY, make_finset, moore_families,
                      moore_lattice)

_STORES = ("products", "coproducts", "exponentials")


def _assert_rows_match(st):
    n = len(st.cat.objects)
    for kind in _STORES:
        store = getattr(st, kind)
        assert len(store.rows) == n and all(len(row) == n for row in store.rows)
        for x, y in product(range(n), repeat=2):
            row = store.rows[x][y]
            if (x, y) in store._failures:
                assert row is None and (x, y) not in store
                continue
            w = store[x, y]
            arrows = w.legs if isinstance(w, Cone) else (w.eval,)
            assert row[0] == w.apex.index
            assert row[1:-1] == tuple(p.index for p in arrows)
            assert row[-1] is store._tables[x, y]


@pytest.mark.parametrize("name", sorted(LADDER_MODELS))
def test_rows_match_the_stores(name):
    _assert_rows_match(discover_structure(LADDER_MODELS[name]()))


def test_rows_match_the_stores_on_every_moore_family():
    for family in moore_families(3):
        _assert_rows_match(discover_structure(moore_lattice(family)))


def test_rows_refuse_every_write():
    st = discover_structure(LADDER_MODELS["finset-0123"]())
    store = st.products
    with pytest.raises(TypeError):
        store.rows[0][0] = None
    for write in (lambda: setattr(store, "rows", ()), lambda: delattr(store, "rows")):
        with pytest.raises(TypeError, match="written only by discover_structure"):
            write()
    _assert_rows_match(st)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda st: pickle.loads(pickle.dumps(st))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_table_keeps_its_rows(duplicate):
    st = discover_structure(LADDER_MODELS["finset-0123"]())
    twin = duplicate(st)
    _assert_rows_match(twin)
    triples = list(product(st.cat.objects, repeat=3))
    assert ([_outcome(delta_certificate, twin, *t) for t in triples]
            == [_outcome(delta_certificate, st, *t) for t in triples])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WorkbenchError as exc:
        return str(exc)


def _store_reads(monkeypatch, run) -> int:
    """The ``[]`` reads of any witness store while ``run()`` runs."""
    reads = []
    getitem = structure._Witnesses.__getitem__

    def counted(store, key):
        reads.append(key)
        return getitem(store, key)

    with monkeypatch.context() as patch:
        patch.setattr(structure._Witnesses, "__getitem__", counted)
        run()
    return len(reads)


@pytest.mark.parametrize("make", [lambda: gen_chain(32).category(),
                                  lambda: gen_powerset(4).category(), lambda: gen_finset(3)],
                         ids=["chain-32", "powerset-4", "finset-3"])
def test_the_sweeps_read_a_store_only_to_raise(make, monkeypatch):
    # a store is read only where a row is None, and the read raises: once
    # per failed certificate and once per BLOCKED triple of condition 4
    st = discover_structure(make())
    triples = list(product(st.cat.objects, repeat=3))
    failed = sum(isinstance(_outcome(delta_certificate, st, *t), str) for t in triples)
    blocked = sum(isinstance(_outcome(build_delta, st, *t), str) for t in triples)
    assert (failed > 0) == (blocked > 0) == (not st.complete)

    def sweep():
        for t in triples:
            _outcome(delta_certificate, st, *t)

    assert _store_reads(monkeypatch, sweep) == failed
    assert _store_reads(monkeypatch, lambda: distributivity_verdict(st, st.cat.objects)) == blocked


@pytest.mark.parametrize("make, atoms", [
    (lambda: gen_chain(32).category(), ("c1", "c2", "c3")),
    (lambda: gen_powerset(4).category(), ("e1", "e2", "e3")),
    (lambda: gen_finset(3), ("s2", "s3", "s1")),
    (lambda: make_finset([0, 1, 2, 3, 3, 3], "finset-012333"), ("x2n2", "x3n3", "x1n1")),
], ids=["chain-32", "powerset-4", "finset-3", "finset-012333"])
def test_discovery_tabulates_each_stored_cone_once(make, atoms, monkeypatch):
    # searches decide and build no table: discovery tabulates each product
    # and coproduct it stores once, and the terminal and initial objects,
    # the interpretation, the conditions and the certificates, which search
    # and re-check quantifier cones and read the combinators, build none
    cat = make()
    calls = []
    tabulate = structure._tabulate
    monkeypatch.setattr(structure, "_tabulate",
                        lambda *args: calls.append(args) or tabulate(*args))
    st = discover_structure(cat)
    stored = len(st.products) + len(st.coproducts)
    assert len(calls) == stored
    assert all(cone.legs for _, cone in calls)
    if cat.name == "chain-32":
        assert stored == 2048
    calls.clear()
    interp = build_interpretation(st, parse_theory(PAIR_CONST_THEORY.format(*atoms)))
    check_conditions(interp)
    for t in product(cat.objects, repeat=3):
        _outcome(delta_certificate, st, *t)
    instances = derive_instances(interp.theory)
    for inst in instances:
        _outcome(verify_frobenius, interp, inst)
    assert instances and calls == []
