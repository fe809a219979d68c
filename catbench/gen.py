"""Seeded input generators: the category, theory and formula texts that
catlogic receives.  Everything here is plain text built from a
``random.Random``; nothing is imported from catlogic, so the generators
cannot share a bug with the engine under test.

* ``downset_lattice`` and ``thin_category_text`` -- the lattice of
  down-sets of a random poset (Birkhoff's representation of finite
  distributive lattices), written as a thin category with one arrow per
  strict inclusion.
* ``finset_category_text`` -- the full subcategory of finite sets on a list
  of set sizes, duplicates allowed, with every function as an arrow.
* ``theory_text`` -- the benchmark theory for thin models: three constants,
  ``f : s -> s`` at depth 2, relations ``B : s``, nullary ``P`` and
  ``R : s * s``, axioms of fixed shape with seeded terms and a seeded atom map.
* ``finset_theory_text`` -- the smaller theory for finite-set models: two
  constants, ``B : s`` and ``P``, atoms on sets of sizes 2, 3 and 1.
* ``random_formula`` -- random closed formula text with both quantifiers.
"""

from __future__ import annotations

import itertools
import random

MAX_ELEMENTS = 32

CONSTANTS = ("c", "d", "e")
UNIVERSE = CONSTANTS + tuple(f"f({c})" for c in CONSTANTS)  # depth 2: six terms
RELATIONS = (("B", 1), ("P", 0), ("R", 2))
VARIABLES = ("x", "y", "z", "w")
LEAF_P = 0.25  # chance that a formula node above depth 0 is a leaf


# -- thin categories of down-set lattices -------------------------------------

def random_poset(rng: random.Random, k: int, p: float) -> list[int]:
    """``below[i]`` is the bit mask of the points <= i.  Index order is a
    linear extension: i < j is drawn with probability ``p`` for i < j and
    then closed transitively."""
    below = [1 << i for i in range(k)]
    for j in range(k):
        for i in range(j):
            if rng.random() < p:
                below[j] |= below[i]
    return below


def downsets(below: list[int]) -> list[int]:
    """Every down-set of the poset as a bit mask, smallest first.  Points
    are added in index order, a linear extension, so a down-set of the
    first i points extends by point i exactly when it holds all below i."""
    out = [0]
    for i, mask in enumerate(below):
        strictly_below = mask & ~(1 << i)
        out += [s | 1 << i for s in out if strictly_below & ~s == 0]
    return sorted(out, key=lambda s: (bin(s).count("1"), s))


def downset_lattice(rng: random.Random, size: int,
                    points: int) -> tuple[list[int], list[int]]:
    """A random poset on ``points`` points whose down-set lattice has exactly
    ``size`` elements; the points are the lattice's join-irreducibles.

    Fixing both keeps the arrow count within a few per cent from seed to
    seed; with the point count free it varied by 15% and job times by 40%.
    Returns ``(below, elements)``; rejection sampling keeps every draw on the
    one random stream, so the seed fixes the result.
    """
    if not 2 <= size <= MAX_ELEMENTS or not points < size <= 1 << points:
        raise ValueError(f"no lattice of {size} elements on {points} points "
                         f"within desk scale {MAX_ELEMENTS}")
    while True:
        below = random_poset(rng, points, rng.uniform(0.1, 0.6))
        elems = downsets(below)
        if len(elems) == size:
            return below, elems


def element_name(mask: int) -> str:
    return f"d{mask}"


def thin_category_text(name: str, elements: list[int]) -> str:
    """The inclusion order of ``elements`` (bit masks) as a category file."""
    names = [element_name(m) for m in elements]
    lines = [f"# {name}: down-set lattice, {len(elements)} elements"]
    lines += [f"object {n}" for n in names]
    sub = [[a != b and a & ~b == 0 for b in elements] for a in elements]
    n = len(elements)
    for i in range(n):
        for j in range(n):
            if sub[i][j]:
                lines.append(f"arrow le_{names[i]}_{names[j]} : {names[i]} -> {names[j]}")
    lines += [f"id {nm} = auto" for nm in names]
    for i in range(n):
        for j in range(n):
            if not sub[i][j]:
                continue
            for k in range(n):
                if sub[j][k]:
                    lines.append(f"compose le_{names[j]}_{names[k]} . "
                                 f"le_{names[i]}_{names[j]} = le_{names[i]}_{names[k]}")
    return "\n".join(lines) + "\n"


# -- full subcategories of finite sets ------------------------------------------

def finset_object_names(sizes: list[int]) -> list[str]:
    """``s<size>x<copy>``: the size is readable from the name."""
    seen: dict[int, int] = {}
    names = []
    for s in sizes:
        names.append(f"s{s}x{seen.get(s, 0)}")
        seen[s] = seen.get(s, 0) + 1
    return names


def function_name(dom: str, cod: str, values: tuple[int, ...]) -> str:
    return f"fn_{dom}_{cod}_v" + "".join(map(str, values))


def finset_category_text(name: str, sizes: list[int],
                         rng: random.Random | None = None) -> str:
    """Every function between the listed finite sets (sizes at most 9).

    Identities are the ``auto`` arrows ``id_<object>``.  With ``rng`` the
    copies of one size are declared in shuffled order (objects stay sorted by
    size) and the hom-sets in shuffled order (each hom-set in value order).
    That moves every object and arrow index, and so which of several
    isomorphic candidates catlogic picks, but not how long its searches run:
    shuffling arrows within hom-sets made one ``check`` vary by 2x from seed
    to seed.
    """
    if any(not 0 <= s <= 9 for s in sizes):
        raise ValueError("finite set sizes must lie in 0..9")
    names = finset_object_names(sizes)
    size = dict(zip(names, sizes))
    homs: dict[tuple[str, str], list[tuple[int, ...]]] = {
        (a, b): list(itertools.product(range(size[b]), repeat=size[a]))
        for a in names for b in names}

    def arrow(a: str, b: str, vals: tuple[int, ...]) -> str:
        if a == b and vals == tuple(range(size[a])):
            return f"id_{a}"
        return function_name(a, b, vals)

    order = list(names)
    blocks = list(homs)
    if rng is not None:
        rng.shuffle(order)
        order.sort(key=lambda n: size[n])
        rng.shuffle(blocks)
    decls = [(a, b, v) for (a, b) in blocks for v in homs[(a, b)]
             if not (a == b and v == tuple(range(size[a])))]
    lines = [f"# {name}: finite sets of sizes {sorted(sizes)}"]
    lines += [f"object {n}" for n in order]
    lines += [f"arrow {function_name(a, b, v)} : {a} -> {b}" for a, b, v in decls]
    lines += [f"id {n} = auto" for n in order]
    for a, b, fv in decls:
        for c in names:
            for gv in homs[(b, c)]:
                if b == c and gv == tuple(range(size[b])):
                    continue
                hv = tuple(gv[i] for i in fv)
                lines.append(f"compose {arrow(b, c, gv)} . {arrow(a, b, fv)} "
                             f"= {arrow(a, c, hv)}")
    return "\n".join(lines) + "\n"


# -- theories and formulas -----------------------------------------------------

def _atoms() -> list[str]:
    out = []
    for rel, arity in RELATIONS:
        for args in itertools.product(UNIVERSE, repeat=arity):
            out.append(f"{rel}({', '.join(args)})" if args else rel)
    return out


def random_formula(rng: random.Random, depth: int = 4, bound: tuple[str, ...] = ()) -> str:
    """A random closed formula of connective depth <= ``depth``, fully
    parenthesized.  Atom arguments are universe terms or bound variables,
    never ``f`` of a variable, so every instance stays inside the universe."""
    if depth == 0 or rng.random() < LEAF_P:
        return _random_leaf(rng, bound)
    op = rng.choice(("&", "|", "->", "forall", "exists"))
    if op in ("forall", "exists"):
        v = VARIABLES[len(bound)]  # depth <= 4 binds at most four variables
        body = random_formula(rng, depth - 1, bound + (v,))
        return f"({op} {v}:s. {body})"
    left = random_formula(rng, depth - 1, bound)
    right = random_formula(rng, depth - 1, bound)
    return f"({left} {op} {right})"


def _random_leaf(rng: random.Random, bound: tuple[str, ...]) -> str:
    roll = rng.random()
    if roll < 0.06:
        return rng.choice(("0", "1"))
    rel, arity = rng.choice(RELATIONS)
    if arity == 0:
        return rel
    args = [rng.choice(bound) if bound and rng.random() < 0.6 else rng.choice(UNIVERSE)
            for _ in range(arity)]
    return f"{rel}({', '.join(args)})"


AXIOM_TEMPLATES = (
    "exists x:s. (P & B(x))",
    "forall x:s. (R(x, {0}) -> B({1}))",
    "exists y:s. (R({2}, y) & (P | B({3})))",
)


def theory_text(rng: random.Random, objects: list[str]) -> str:
    """The benchmark theory with a seeded atom map onto ``objects``.

    The 43 atoms go round a seeded shuffle of ``objects``, so with at most
    32 objects every object is an atom and the reachable set is the whole
    model: with atoms drawn independently its size, and the reach-cubed
    distributivity sweep, varied from seed to seed.  The axioms have fixed
    shapes with seeded closed terms, so every seed gives the same quantifier
    pool size and the same 21 frobenius instances.
    """
    terms = [rng.choice(UNIVERSE) for _ in range(4)]
    targets = rng.sample(objects, len(objects))
    lines = ["# benchmark theory: three constants, f at depth 2, B, P and R",
             "sort s"]
    lines += [f"fun {c} : s" for c in CONSTANTS]
    lines += ["fun f : s -> s", "rel B : s", "rel P", "rel R : s * s", "depth 2"]
    lines += [f"axiom {ax.format(*terms)}" for ax in AXIOM_TEMPLATES]
    lines += [f"interp {atom} = {targets[i % len(targets)]}"
              for i, atom in enumerate(_atoms())]
    return "\n".join(lines) + "\n"


FINSET_THEORY = """\
# two constants; atoms on sets of sizes 2, 3 and 1
sort s
fun c : s
fun d : s
rel B : s
rel P
depth 1
axiom exists x:s. (P & B(x))
axiom forall x:s. (B(x) -> P)
axiom exists x:s. (B(x) & (P | B(c)))
interp B(c) = {0}
interp B(d) = {1}
interp P = {2}
"""


def finset_theory_text(objects: list[str]) -> str:
    """Atoms go to the first declared set of sizes 2, 3 and 1; which copy
    that is follows the seeded declaration order.  A later copy makes two
    more objects reachable and adds 40% to the compose calls of ``check``.
    Quantifier diagrams have two legs; the three-constant theory makes one
    ``check`` of finset-3 take over a minute."""
    def first_of(size: int) -> str:
        return next(o for o in objects if o.startswith(f"s{size}x"))
    return FINSET_THEORY.format(first_of(2), first_of(3), first_of(1))
