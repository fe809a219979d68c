"""``validate_category`` against the exhaustive reference in
``validation_reference.py``, and the work Light's associativity test does."""

import pytest
from hypothesis import given, settings, strategies as st

from catlogic import kernel
from catlogic.bundles import bundled_suites
from catlogic.heyting import gen_chain
from catlogic.kernel import (
    UNDEFINED, ArrId, FinCategory, ObjId, light_generators, parse_category, validate_category)

from conftest import composable_pairs, make_finset
import validation_reference as reference

MODELS = {s.model.name: s.model.category for s in bundled_suites()}
MODELS["chain-32"] = lambda: gen_chain(32).category()
MODELS["finset-012333"] = lambda: make_finset([0, 1, 2, 3, 3, 3], "finset-012333")

FINSET = make_finset([0, 1, 2, 3], "finset-0123")
_IDS = [FINSET.identity_of(o).index for o in FINSET.objects]
_PAIRS = [(g.index, f.index) for g, f in composable_pairs(FINSET)]
# pairs of non-identities whose composite can be replaced by another arrow of
# the same hom-set: the table keeps its typing, totality and identity laws,
# so only associativity can fail
_SAME_HOM = [(g, f) for g, f in _PAIRS if g not in _IDS and f not in _IDS
             and len(FINSET.index().hom[(FINSET.arrows[f].dom, FINSET.arrows[g].cod)]) > 1]


def _assert_matches_reference(cat):
    got = validate_category(cat)
    want = reference.validate_category(cat)
    assert got.ok == want.ok
    assert got.violations == want.violations


@pytest.mark.parametrize("name", sorted(MODELS))
def test_valid_models_match_reference(name):
    cat = MODELS[name]()
    _assert_matches_reference(cat)
    assert cat.validated


@st.composite
def _mutated_tables(draw):
    table = [list(row) for row in FINSET.index().table]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["same-hom", "any-arrow", "clear"]))
        if kind == "same-hom":
            g, f = draw(st.sampled_from(_SAME_HOM))
            hom = FINSET.index().hom[(FINSET.arrows[f].dom, FINSET.arrows[g].cod)]
            table[g][f] = draw(st.sampled_from([k for k in hom if k != table[g][f]]))
        elif kind == "any-arrow":
            g, f = draw(st.sampled_from(_PAIRS))
            table[g][f] = draw(st.integers(0, len(FINSET.arrows) - 1))
        else:
            g, f = draw(st.sampled_from(_PAIRS))
            table[g][f] = UNDEFINED
    return table


@settings(max_examples=25, deadline=None)
@given(_mutated_tables())
def test_mutated_tables_match_reference(table):
    _assert_matches_reference(
        FinCategory(FINSET.name, FINSET.objects, FINSET.arrows, _IDS, table))


def _cyclic(n, edits=()):
    """Z/n as one object o, a_i . a_j = a_(i+j mod n), with the (g, f, k)
    ``edits`` putting k at g . f."""
    table = [[(g + f) % n for f in range(n)] for g in range(n)]
    for g, f, k in edits:
        table[g][f] = k
    return FinCategory(f"z{n}", [ObjId(0, "o")], [ArrId(i, f"a{i}", 0, 0) for i in range(n)],
                       [0], table)


# broken tables: (model, the kinds of its violations in order)
BROKEN = {
    # a23 . a23 = a1, not a22
    "z24": (lambda: _cyclic(24, [(23, 23, 1)]), ["associativity"] * 88),
    # one row holds an undefined and a wrong composite: the row comparison
    # reads index -1 for the first, and only the second is listed
    "z24-cleared-beside-wrong": (lambda: _cyclic(24, [(5, 3, UNDEFINED), (5, 4, 0)]),
                                 ["compose-missing"] + ["associativity"] * 88),
    # id a = f with f : a -> b: no arrow enters a, so the loop has no row at f
    "mistyped-identity": (
        lambda: parse_category("object a\nobject b\narrow f : a -> b\nid a = f\nid b = auto\n"),
        ["identity-endpoints", "compose-spurious"]),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_tables_match_reference(name):
    make, kinds = BROKEN[name]
    cat = make()
    _assert_matches_reference(cat)
    assert [v.kind for v in validate_category(cat).violations] == kinds


def _closure(cat, gens):
    table = cat.index().table
    closed = set(gens)
    while True:
        grown = closed | {table[g][f] for g in closed for f in closed} - {UNDEFINED}
        if grown == closed:
            return closed
        closed = grown


@pytest.mark.parametrize("name", sorted(MODELS))
def test_generators_close_to_every_arrow(name):
    cat = MODELS[name]()
    gens = light_generators(cat)
    assert list(gens) == sorted(set(gens))
    assert _closure(cat, gens) == set(range(len(cat.arrows)))
    assert light_generators(MODELS[name]()) == gens


def _count_exhaustive_passes(monkeypatch):
    calls = []
    exhaustive = kernel._associativity_violations

    def counted(cat):
        calls.append(cat)
        return exhaustive(cat)

    monkeypatch.setattr(kernel, "_associativity_violations", counted)
    return calls


def test_valid_table_skips_the_exhaustive_pass(monkeypatch):
    cat = MODELS["finset-012333"]()
    calls = _count_exhaustive_passes(monkeypatch)
    assert validate_category(cat).ok
    assert calls == []


def test_associativity_fault_runs_the_exhaustive_pass(monkeypatch):
    calls = _count_exhaustive_passes(monkeypatch)
    g, f = _SAME_HOM[len(_SAME_HOM) // 2]
    hom = FINSET.index().hom[(FINSET.arrows[f].dom, FINSET.arrows[g].cod)]
    table = [list(row) for row in FINSET.index().table]
    table[g][f] = next(k for k in hom if k != table[g][f])
    mutated = FinCategory(FINSET.name, FINSET.objects, FINSET.arrows, _IDS, table)
    report = validate_category(mutated)
    assert len(calls) == 1
    assert report.violations and {v.kind for v in report.violations} == {"associativity"}
    assert report.violations == reference.validate_category(mutated).violations
