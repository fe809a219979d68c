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


def make_fork(op=False) -> FinCategory:
    """An idempotent e : v -> v that t : v -> a and f, g : v -> c absorb
    (t.e = t, f.e = f, g.e = g).  v has the hom-set sizes of a x c and, from
    the objects with a product with a, of c^a, yet it is neither: id_v and e
    compose with every leg or eval alike.  The smallest category found whose
    failures name an apex that has the sizes.  With ``op``, the opposite
    category, where v has the sizes of the coproduct of a and c."""
    arrows = [("e", "v", "v"), ("t", "v", "a"), ("f", "v", "c"), ("g", "v", "c")]
    compositions = [("e", "e", "e"), ("t", "e", "t"), ("f", "e", "f"), ("g", "e", "g")]
    if op:
        arrows = [(f, cod, dom) for f, dom, cod in arrows]
        compositions = [(f, g, h) for g, f, h in compositions]
    return FinCategory.build(["a", "v", "c"], arrows, compositions=compositions,
                             name="fork-op" if op else "fork")


def with_copy(cat: FinCategory, name: str, copy: str) -> FinCategory:
    """``cat`` with ``copy``, an isomorphic copy of its object ``name``
    placed last: each arrow into or out of ``name`` also runs into or out
    of the copy, and composites follow the original's."""
    o = cat.obj(name).index

    def versions(f):
        return [(d, c) for d in ((False, True) if f.dom == o else (False,))
                for c in ((False, True) if f.cod == o else (False,))]

    def label(f, d, c):
        return f.name + (f"_from_{copy}" if d else "") + (f"_to_{copy}" if c else "")

    def end(x, is_copy):
        return copy if is_copy else cat.objects[x].name

    arrows = [(label(f, d, c), end(f.dom, d), end(f.cod, c))
              for f in cat.arrows for d, c in versions(f)]
    identities = {x.name: cat.identity_of(x).name for x in cat.objects}
    identities[copy] = label(cat.identity_of(cat.objects[o]), True, True)
    compositions = [(label(g, gd, gc), label(f, fd, fc), label(cat.compose(g, f), fd, gc))
                    for f in cat.arrows for g in cat.arrows if f.cod == g.dom
                    for fd, fc in versions(f) for gd, gc in versions(g) if fc == gd]
    return FinCategory.build([x.name for x in cat.objects] + [copy], arrows,
                             identities=identities, compositions=compositions,
                             name=f"{cat.name}+{copy}")


def with_arrow_order(cat: FinCategory, order) -> FinCategory:
    """``cat`` rebuilt with its arrows listed in ``order``, a permutation of
    their indices: the same objects, names and composites, so every search
    that breaks ties by arrow index may pick another witness."""
    objects = [x.name for x in cat.objects]
    arrows = [cat.arrows[i] for i in order]
    return FinCategory.build(
        objects, [(f.name, objects[f.dom], objects[f.cod]) for f in arrows],
        identities={x.name: cat.identity_of(x).name for x in cat.objects},
        compositions=[(g.name, f.name, cat.compose(g, f).name)
                      for f in cat.arrows for g in cat.arrows if f.cod == g.dom],
        name=cat.name)


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
