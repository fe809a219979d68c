import itertools

import pytest

from catlogic.bundles import bundled_suites
from catlogic.heyting import gen_chain, gen_powerset
from catlogic.kernel import FinCategory, validate_category
from catlogic.semantics import build_interpretation
from catlogic.structure import discover_structure


def make_h2() -> FinCategory:
    """The two-element chain as a bare category: bot, top, u : bot -> top."""
    return FinCategory.build(["bot", "top"], [("u", "bot", "top")], name="H2")


@pytest.fixture(scope="session")
def h2():
    cat = make_h2()
    assert validate_category(cat).ok
    return cat


@pytest.fixture(scope="session")
def h2_structure(h2):
    return discover_structure(h2)


@pytest.fixture(scope="session")
def prepared_suites():
    """Every bundled suite with its category, structure table and interpretation."""
    out = []
    for suite in bundled_suites():
        cat = suite.model.category()
        assert validate_category(cat).ok
        st = discover_structure(cat)
        theory = suite.theory()
        interp = build_interpretation(st, theory)
        out.append((suite, cat, st, interp))
    return out


@pytest.fixture(scope="session")
def b4_prepared(prepared_suites):
    for suite, cat, st, interp in prepared_suites:
        if suite.suite_id == "powerset-2/pair-const":
            return suite, cat, st, interp
    raise RuntimeError("powerset-2/pair-const suite missing")


# subset encodings used as an oracle independent of the lattice tables
def subset_of(name: str) -> frozenset:
    assert name.startswith("e")
    return frozenset(int(ch) for ch in name[1:])


def subset_name(s: frozenset) -> str:
    return "e" + "".join(str(i) for i in sorted(s))


# the bundled pair-const theory with its three atoms left as {} slots
PAIR_CONST_THEORY = """\
sort s
fun c : s
fun d : s
rel B : s
rel P
depth 1
axiom exists x:s. (P & B(x))
axiom forall x:s. (B(x) -> P)
axiom exists x:s. (B(x) & (P | B(c)))
interp B(c) = {}
interp B(d) = {}
interp P = {}
"""


def make_finset(sizes, name="finset") -> FinCategory:
    """The full subcategory of finite sets on objects of the given sizes,
    with every function as an arrow (a non-thin category)."""
    objects = [f"x{i}n{n}" for i, n in enumerate(sizes)]
    funcs = {(x, y): [f"f{x}_{y}_" + "".join(map(str, vals))
                      for vals in itertools.product(range(sizes[y]), repeat=sizes[x])]
             for x in range(len(sizes)) for y in range(len(sizes))}
    values = {name: tuple(int(ch) for ch in name.rsplit("_", 1)[1])
              for names in funcs.values() for name in names}
    arrows = [(f, objects[x], objects[y]) for (x, y), names in funcs.items() for f in names]
    identities = {objects[x]: "f{0}_{0}_".format(x) + "".join(map(str, range(n)))
                  for x, n in enumerate(sizes)}
    compositions = []
    for (x, y), fs in funcs.items():
        for z in range(len(sizes)):
            for f in fs:
                for g in funcs[(y, z)]:
                    h = "".join(str(values[g][v]) for v in values[f])
                    compositions.append((g, f, f"f{x}_{z}_{h}"))
    return FinCategory.build(objects, arrows, identities=identities,
                             compositions=compositions, name=name)


def _z2():
    return FinCategory.build(["m"], [("s", "m", "m")],
                             compositions=[("s", "s", "id_m")], name="Z2")


def _walking_iso():
    return FinCategory.build(
        ["x", "y"], [("f", "x", "y"), ("g", "y", "x")],
        compositions=[("g", "f", "id_x"), ("f", "g", "id_y")], name="iso")


# the models the reference tests compare on, thin and non-thin
REFERENCE_MODELS = {
    "powerset-4": lambda: gen_powerset(4).category(),
    "chain-8": lambda: gen_chain(8).category(),
    "finset-0123": lambda: make_finset([0, 1, 2, 3], "finset-0123"),
    "finset-012333": lambda: make_finset([0, 1, 2, 3, 3, 3], "finset-012333"),
    "Z2": _z2,
    "iso": _walking_iso,
}
REFERENCE_MODELS.update({f"suite-{m.name}": m.category for m in
                         {s.model.name: s.model for s in bundled_suites()}.values()})
