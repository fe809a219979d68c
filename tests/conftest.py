import itertools

import pytest

from catlogic.bundles import bundled_suites
from catlogic.heyting import gen_chain, gen_powerset, thin_category_from_leq
from catlogic.kernel import UNDEFINED, ArrId, FinCategory, validate_category
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


def two_sort_theory(objects) -> str:
    """Sorts s and t, where t has no closed terms (empty diagrams), a binary
    function and relation, and an universe cut at depth 2 (unsaturated)."""
    lines = ["sort s", "sort t", "fun c : s", "fun d : s", "fun g : s * s -> s",
             "rel B : s", "rel R : s * s", "rel P", "rel Q : t", "depth 2",
             "axiom forall x:s. exists y:s. (R(x, y) -> B(g(x, y)))",
             "axiom exists z:t. (Q(z) | P)"]
    terms = ["c", "d"] + [f"g({a}, {b})" for a in "cd" for b in "cd"]
    atoms = ["P"] + [f"B({t})" for t in terms] + [f"R({a}, {b})" for a in terms for b in terms]
    names = itertools.cycle(o.name for o in objects)
    return "\n".join(lines + [f"interp {a} = {next(names)}" for a in atoms]) + "\n"


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


def opposite(cat: FinCategory) -> FinCategory:
    """C^op, built from the table: the same objects and arrow indices and
    names, the ends of every arrow swapped, and g . f in C^op the composite
    f . g of C."""
    arrows = [ArrId(f.index, f.name, f.cod, f.dom) for f in cat.arrows]
    identity = [cat.identity_of(o).index for o in cat.objects]
    table = cat.index().table
    op = FinCategory(f"{cat.name}-op", cat.objects, arrows, identity,
                     [[table[f][g] for f in range(len(arrows))] for g in range(len(arrows))])
    assert validate_category(op).ok
    return op


def with_composition(cat: FinCategory, g: ArrId, f: ArrId, h: ArrId | None) -> FinCategory:
    """``cat`` with the table entry g . f set to ``h``, or cleared when h is
    None: a fault to inject, which no category file can declare."""
    table = [list(row) for row in cat.index().table]
    table[g.index][f.index] = UNDEFINED if h is None else h.index
    return FinCategory(cat.name, cat.objects, cat.arrows, cat.index().identity, table)


def composable_pairs(cat: FinCategory):
    """Every (g, f) with cod f = dom g, by the index of g, then of f."""
    return ((g, f) for g in cat.arrows for f in cat.arrows if f.cod == g.dom)


def moore_families(points: int) -> list[tuple[int, ...]]:
    """Every family of subsets of {0, ..., points - 1} that contains the
    whole set and is closed under intersection, each as its sorted bit
    masks.  Ordered by inclusion, a Moore family is a finite lattice, and
    every finite lattice is one (on enough points)."""
    whole = (1 << points) - 1
    families = []
    for chosen in range(1 << whole):
        family = {s for s in range(whole) if chosen >> s & 1} | {whole}
        if all(s & t in family for s in family for t in family):
            families.append(tuple(sorted(family)))
    return families


def moore_lattice(family: tuple[int, ...]) -> FinCategory:
    """The thin category of ``family`` ordered by inclusion; object ``e01``
    is the set {0, 1}."""
    names = [subset_name(frozenset(i for i in range(s.bit_length()) if s >> i & 1))
             for s in family]
    leq = tuple(tuple(s & t == s for t in family) for s in family)
    return thin_category_from_leq(names, leq, name="moore-" + "-".join(names))


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


def five_element_lattice(name: str) -> FinCategory:
    """M3 or N5 on 0 < a, b, c < 1: in M3 a, b and c are incomparable, in N5
    a < b.  They are the two five-element lattices that are not distributive."""
    elements = ("0", "a", "b", "c", "1")
    leq = tuple(tuple(x == y or x == "0" or y == "1" or (name, x, y) == ("N5", "a", "b")
                      for y in elements) for x in elements)
    return thin_category_from_leq(elements, leq, name=name)


# the reference models with the ladder's thin end and the non-distributive lattices
LADDER_MODELS = dict(REFERENCE_MODELS)
LADDER_MODELS.update({"powerset-4": lambda: gen_powerset(4).category(),
                      "chain-32": lambda: gen_chain(32).category(),
                      "M3": lambda: five_element_lattice("M3"),
                      "N5": lambda: five_element_lattice("N5")})
