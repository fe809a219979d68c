"""Bicartesian-closed structure discovered by exhaustive universal-property search.

Every search checks one property.  A candidate apex V with legs p_i is
universal iff, for every test object W, the map m |-> (p_i . m)_i from
hom(W, V) to the product of the hom(W, leg_i) is a bijection: a universal
arrow represents a hom-functor (Mac Lane, *Categories for the Working
Mathematician*, III.1-2).  A candidate is tried only if its column of
hom-set sizes equals the product of its legs' columns, and it then passes
iff the map is injective on the arrows into V.  The inverse of that map is
kept in the witness as its pairing table, so the combinators are lookups.
Discovery is the only writer of a structure table: its stores refuse every
other write, so each witness a table holds is one a search verified.
Terminal objects are the case with no legs; coproducts and the initial
object are the same search run on the opposite category; exponentials use
the map m |-> eval . (m x id) over the W that have a product with the base.
Quantifier objects (cones and cocones over any number of legs) are the
same search against a given set of test objects, through
``StructureTable.find_cone``; their re-checks and the frobenius initiality
sweep check one given cone the same way, through ``StructureTable.cone_miss``,
and the frobenius mediators are the arrows of one hom-set whose key is the
given family's, through ``StructureTable.mediators``.  Reading a witness a
structure table lacks raises NoSuchStructure with its recorded failure.

Searches are deterministic: candidates are tried in index order and the
first verified one wins, so two runs on the same input produce identical
witness tables.  When no candidate passes, the failure message is an exact
count: either no object has the column of hom-set sizes a universal apex
must have, or the first object that has it is named with the first test
object W and the first family at W that it does not hit exactly once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice, product
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import LawViolation, NoSuchStructure, ShapeMismatch
from .kernel import ArrId, FinCategory, ObjId, validate_category


@dataclass(frozen=True)
class ProductWitness:
    pair: tuple[ObjId, ObjId]
    apex: ObjId
    proj1: ArrId
    proj2: ArrId
    # f.index * |Arr| + g.index -> <f, g>; see _verified
    table: Mapping[int, int] | None = field(default=None, init=False, repr=False,
                                            compare=False)


@dataclass(frozen=True)
class CoproductWitness:
    pair: tuple[ObjId, ObjId]
    apex: ObjId
    inj1: ArrId
    inj2: ArrId
    # f.index * |Arr| + g.index -> [f, g]; see _verified
    table: Mapping[int, int] | None = field(default=None, init=False, repr=False,
                                            compare=False)


@dataclass(frozen=True)
class TerminalWitness:
    obj: ObjId


@dataclass(frozen=True)
class InitialWitness:
    obj: ObjId


@dataclass(frozen=True)
class ExponentialWitness:
    base: ObjId       # A
    target: ObjId     # C
    apex: ObjId       # C^A
    eval: ArrId       # apex x A -> C
    # f.index * |Obj| + w.index -> transpose of f : w x A -> C; see _verified
    table: Mapping[int, int] | None = field(default=None, init=False, repr=False,
                                            compare=False)


def _verified(witness, table: Mapping[int, int]):
    """``witness`` carrying the table its search verified.

    The table is not an init field: a witness built by hand, or copied with
    ``dataclasses.replace``, carries none.
    """
    object.__setattr__(witness, "table", table)
    return witness


class _View:
    """A category or its opposite, in arrow indices.

    ``hom[x][y]`` lists the arrows x -> y, ``to[y][x]`` counts them and
    ``cod[p]`` is the codomain of arrow p.  The opposite view swaps the ends
    of every hom-set and the factors of every composite, reading the one
    table with its indices swapped.
    """

    def __init__(self, cat: FinCategory, op: bool = False):
        table, homs, dom, cod, _ = cat.index()
        n = len(cat.objects)
        self.cat = cat
        self.op = op
        self.table = table
        self.objects = tuple(range(n))
        self.hom = [[homs.get((y, x) if op else (x, y), ()) for y in range(n)]
                    for x in range(n)]
        self.to = [[len(self.hom[x][y]) for x in range(n)] for y in range(n)]
        self.cod = dom if op else cod
        self._columns: dict[tuple[int, ...], dict[tuple, list[int]]] = {}

    def after(self, p: int, ms: Iterable[int]) -> Iterator[int]:
        """p . m for each m, composed in this view."""
        if self.op:
            return map(itemgetter(p), map(self.table.__getitem__, ms))
        return map(self.table[p].__getitem__, ms)

    def columns(self, ws: tuple[int, ...]) -> dict[tuple, list[int]]:
        """The objects of ``ws`` by their column of hom-set sizes from ``ws``,
        in index order."""
        out = self._columns.get(ws)
        if out is None:
            out = self._columns[ws] = {}
            for v in ws:
                out.setdefault(tuple(_restrict(self.to[v], ws)), []).append(v)
        return out


def _invert(keys: Iterable[int], ms: Sequence[int]) -> dict[int, int] | None:
    """The inverse of ms[i] |-> keys[i], or None if two arrows share a key."""
    table = dict(zip(keys, ms))
    return table if len(table) == len(ms) else None


# -- the universal property ---------------------------------------------------------

def _keys(view: _View, legs: Sequence[int], ms: Sequence[int]) -> list[int]:
    """(p_i . m)_i for each arrow m, as one number in radix |Arr|:
    f * |Arr| + g for two legs."""
    n = len(view.table)
    keys = [0] * len(ms)
    for p in legs:
        keys = [k * n + f for k, f in zip(keys, view.after(p, ms))]
    return keys


def _sizes(view: _View, legs: Iterable[int], ws: Sequence[int]) -> list[int]:
    """The size of the product of the hom(W, leg) for each W in ``ws``."""
    sizes = [1] * len(view.to)
    for leg in legs:
        sizes = [k * c for k, c in zip(sizes, view.to[leg])]
    return _restrict(sizes, ws)


def _restrict(row: list[int], ws: Sequence[int]) -> list[int]:
    """``row`` at the objects ``ws``, given in index order and without repeats."""
    return row if len(ws) == len(row) else [row[w] for w in ws]


def _cone_table(view: _View, apex: int, legs: Sequence[int],
                ws: Sequence[int] | None = None,
                sizes: list[int] | None = None) -> dict[int, int] | None:
    """The inverse of m |-> (p_i . m)_i if, at every test object W in ``ws``
    (every object by default), it maps hom(W, apex) one-to-one onto the
    product of the hom(W, cod p_i); None otherwise.

    Equal sizes and an injective map make a bijection.  With no legs the
    product is a point: each hom(W, apex) holds exactly one arrow, and
    the table is empty.  ``sizes`` are the product sizes at ``ws`` if the
    caller has them.
    """
    ws = view.objects if ws is None else ws
    if sizes is None:
        sizes = _sizes(view, [view.cod[p] for p in legs], ws)
    if _restrict(view.to[apex], ws) != sizes:
        return None
    if not legs:
        return {}
    ms = [m for w in ws for m in view.hom[w][apex]]
    return _invert(_keys(view, legs, ms), ms)


def _indices(objects: Iterable[ObjId]) -> tuple[int, ...]:
    return tuple(sorted({o.index for o in objects}))


def _miss(imgs: list[int], tgts: Iterable[int], size: int) -> tuple[int, int] | None:
    """Position of the first of the ``size`` targets ``tgts`` that is not the
    image of exactly one of ``imgs``, each of which is a target, and its
    number of preimages; None if there is none.  The walk stops within one
    step of the number of images."""
    once = set(imgs)
    if len(once) < len(imgs):
        once = {t for t, k in Counter(imgs).items() if k == 1}
    if len(once) == size:
        return None
    for j, t in enumerate(tgts):
        if t not in once:
            return j, imgs.count(t)
    return None


def _first_miss(view: _View, apex: int, legs: Sequence[int], ws: Iterable[int]
                ) -> tuple[int, tuple[int, ...], int] | None:
    """The first test object W, the lexicographically first family in the
    product of the hom(W, cod p_i) that is not the image of exactly one
    arrow W -> apex, and its number of preimages; None if there is none."""
    n = len(view.table)
    for w in ws:
        pools = [view.hom[w][view.cod[p]] for p in legs]
        miss = _miss(_keys(view, legs, view.hom[w][apex]),
                     (reduce(lambda k, f: k * n + f, fam, 0) for fam in product(*pools)),
                     prod(map(len, pools)))
        if miss:
            return w, next(islice(product(*pools), miss[0], None)), miss[1]
    return None


def _refutation(view: _View, sizes: Sequence[int], ws: tuple[int, ...],
                explain: Callable[[int], str], noun: str = "object") -> str:
    """Why no apex is universal against the test objects ``ws``, by count.

    A bijection onto sets of the ``sizes`` needs |hom(W, apex)| to be
    ``sizes`` at each W in ``ws``, so either no candidate apex (a ``noun``)
    has that column of hom-set sizes, or the first that has it is named
    with ``explain(apex)``: the first family it does not hit exactly once.
    """
    if not ws:
        return f"no {noun}" if view.to else "the category has no objects"
    objects = view.cat.objects
    column = f"the hom-set sizes {list(sizes)}"
    if len(ws) < len(view.to):
        column += " from (" + ", ".join(objects[w].name for w in ws) + ")"
    if view.op:
        column += " counting arrows out of it"
    apexes = view.columns(ws).get(tuple(sizes))
    if not apexes:
        return f"no {noun} has {column}"
    return f"{objects[apexes[0]].name} has {column}, but {explain(apexes[0])}"


def _universal_cone(view: _View, legs: Sequence[int], what: str,
                    ws: tuple[int, ...] | None = None
                    ) -> tuple[int, tuple[int, ...], dict[int, int]]:
    """Apex, legs and pairing table of the first universal cone over the
    objects ``legs``, with both the apex and the test objects taken from
    ``ws`` (every object by default); NoSuchStructure, its message ``what``
    followed by the refuting count, if there is none.

    Only apexes whose hom-set sizes from ``ws`` are the products of the
    legs' are tried, in index order, each with its families of legs
    lexicographically by arrow index.
    """
    ws = view.objects if ws is None else ws
    sizes = _sizes(view, legs, ws)
    for apex in view.columns(ws).get(tuple(sizes), ()):
        for fam in product(*(view.hom[apex][leg] for leg in legs)):
            table = _cone_table(view, apex, fam, ws, sizes)
            if table is not None:
                return apex, fam, table
    cat = view.cat

    def explain(apex: int) -> str:
        # apex is in ws and has the sizes, so each hom(apex, leg) is inhabited
        fam = tuple(view.hom[apex][leg][0] for leg in legs)
        w, miss, k = _first_miss(view, apex, fam, ws)
        ends = (apex, w) if view.op else (w, apex)
        return (f"{k} arrows {cat.objects[ends[0]].name} -> {cat.objects[ends[1]].name} "
                f"compose with ({', '.join(cat.arrows[p].name for p in fam)}) "
                f"to ({', '.join(cat.arrows[f].name for f in miss)})")

    raise NoSuchStructure(what + _refutation(view, sizes, ws, explain))


# -- terminal and initial objects, products and coproducts --------------------------

def find_terminal(cat: FinCategory) -> TerminalWitness:
    return TerminalWitness(
        cat.objects[_universal_cone(_View(cat), (), f"{cat.name}: no terminal object; ")[0]])


def find_initial(cat: FinCategory) -> InitialWitness:
    return InitialWitness(cat.objects[_universal_cone(
        _View(cat, op=True), (), f"{cat.name}: no initial object; ")[0]])


def _pair_witness(view: _View, a: ObjId, b: ObjId) -> ProductWitness | CoproductWitness:
    """The product of (a, b), or on the opposite view the coproduct."""
    what, kind = ("coproduct", CoproductWitness) if view.op else ("product", ProductWitness)
    apex, (p1, p2), table = _universal_cone(
        view, (a.index, b.index), f"{view.cat.name}: no {what} for ({a.name}, {b.name}); ")
    arrows = view.cat.arrows
    return _verified(kind((a, b), view.cat.objects[apex], arrows[p1], arrows[p2]), table)


def find_product(cat: FinCategory, a: ObjId, b: ObjId) -> ProductWitness:
    """Search apex and projections satisfying the product UMP against every object.

    Deterministic: lowest apex index first, then lowest projection indices.
    """
    return _pair_witness(_View(cat), a, b)


def find_coproduct(cat: FinCategory, a: ObjId, b: ObjId) -> CoproductWitness:
    return _pair_witness(_View(cat, op=True), a, b)


# -- exponentials -------------------------------------------------------------------

def _times_id(view: _View, products: Mapping[tuple[int, int], ProductWitness],
              apex: int, a: int, ws: Sequence[int]) -> list[list[int]]:
    """For each w in ws, the arrows m x id_a : w x a -> apex x a, m : w -> apex."""
    table, n = view.table, len(view.table)
    pairs = products[(apex, a)].table
    out = []
    for w in ws:
        ww = products[(w, a)]
        q1, q2 = ww.proj1.index, ww.proj2.index
        out.append([pairs[table[m][q1] * n + q2] for m in view.hom[w][apex]])
    return out


def _transpose_tables(view: _View, products: Mapping[tuple[int, int], ProductWitness],
                      apex: int, a: int, ws: Sequence[int],
                      evs: Iterable[int]) -> Iterator[tuple[int, dict[int, int] | None]]:
    """Each eval candidate ev : apex x a -> C with the inverse of
    m |-> ev . (m x id_a) over the arrows m : w -> apex, w in ws."""
    per_w = _times_id(view, products, apex, a, ws)
    w_of = [w for w, ks in zip(ws, per_w) for _ in ks]
    m_x_id = list(chain.from_iterable(per_w))
    ms = [m for w in ws for m in view.hom[w][apex]]
    n = len(view.hom)
    for ev in evs:
        row = view.table[ev]
        yield ev, _invert([row[k] * n + w for w, k in zip(w_of, m_x_id)], ms)


def _exponential(view: _View, products: Mapping[tuple[int, int], ProductWitness],
                 a: ObjId, target: ObjId, ws: tuple[int, ...]) -> ExponentialWitness:
    """``ws`` are the objects with a product with ``a``."""
    cat, hom = view.cat, view.hom
    ai, c = a.index, target.index
    sources = [products[(w, ai)].apex.index for w in ws]
    sizes = [view.to[c][s] for s in sources]
    for apex in view.columns(ws).get(tuple(sizes), ()):
        pw = products[(apex, ai)]
        for ev, table in _transpose_tables(view, products, apex, ai, ws,
                                           hom[pw.apex.index][c]):
            if table is not None:
                return _verified(ExponentialWitness(a, target, cat.objects[apex],
                                                    cat.arrows[ev]), table)

    def explain(apex: int) -> str:
        ev = hom[products[(apex, ai)].apex.index][c][0]
        row = view.table[ev]
        for w, s, ks in zip(ws, sources, _times_id(view, products, apex, ai, ws)):
            miss = _miss([row[k] for k in ks], hom[s][c], len(hom[s][c]))
            if miss:
                return (f"with eval {cat.arrows[ev].name}, {miss[1]} arrows m : "
                        f"{cat.objects[w].name} -> {cat.objects[apex].name} have "
                        f"eval . (m x id_{a.name}) = {cat.arrows[hom[s][c][miss[0]]].name}")

    raise NoSuchStructure(
        f"{cat.name}: no exponential with base {a.name}, target {target.name}; "
        + _refutation(view, sizes, ws, explain, f"object with a product with {a.name}"))


def _with_product(view: _View, products: Mapping[tuple[int, int], ProductWitness],
                  a: ObjId) -> tuple[int, ...]:
    return tuple(w for w in view.objects if (w, a.index) in products)


def find_exponential(cat: FinCategory, products: Mapping[tuple[int, int], ProductWitness],
                     a: ObjId, target: ObjId) -> ExponentialWitness:
    """Search apex and eval arrow with the unique-transpose property against every W.

    ``products`` must be the ``products`` of a structure table, whose
    pairing tables are read; W ranges over the objects with a product with ``a``.
    """
    view = _View(cat)
    return _exponential(view, products, a, target, _with_product(view, products, a))


class _Witnesses(dict):
    """Witnesses by the index pair of their objects, written only by
    :func:`discover_structure`: every mutator raises TypeError.  A hit is
    dict's own read; a miss raises NoSuchStructure with the failure recorded
    under the key, or ``missing`` formatted with the names of its objects."""

    def __init__(self, failures: dict[tuple[int, int], str], missing: str,
                 objects: Sequence[ObjId], witnesses: Iterable = ()):
        super().__init__(witnesses)
        self._failures, self._missing, self._objects = failures, missing, objects

    def __missing__(self, key):
        raise NoSuchStructure(self._failures.get(key) or self._missing.format(
            *(self._objects[i].name for i in key)))

    def __reduce__(self):
        return _Witnesses, (self._failures, self._missing, self._objects, dict(self))

    def _refuse(self, *args, **kwargs):
        raise TypeError("a structure table is written only by discover_structure")

    __setitem__ = __delitem__ = update = setdefault = pop = popitem = clear = __ior__ = _refuse


class StructureTable:
    """Every discovered witness, keyed by object index pairs.

    Built once by :func:`discover_structure`, the only writer of
    ``products``, ``coproducts`` and ``exponentials``; downstream modules
    never re-search.  Each stored witness carries the table its search
    verified, so the canonical arrow combinators (pairing, copairing, arrow
    product, transpose, theta) are lookups in those tables.
    """

    def __init__(self, cat: FinCategory):
        self.cat = cat
        self.terminal: TerminalWitness | None = None
        self.initial: InitialWitness | None = None
        self._view = _View(cat)
        self._op = _View(cat, op=True)
        self.terminal_failure: str | None = None
        self.initial_failure: str | None = None
        self.product_failures: dict[tuple[int, int], str] = {}
        self.coproduct_failures: dict[tuple[int, int], str] = {}
        self.exponential_failures: dict[tuple[int, int], str] = {}
        objects = cat.objects
        self.products = _Witnesses(self.product_failures, "no product for ({}, {})", objects)
        self.coproducts = _Witnesses(self.coproduct_failures, "no coproduct for ({}, {})",
                                     objects)
        self.exponentials = _Witnesses(self.exponential_failures,
                                       "no exponential base {} target {}", objects)
        self._cones: dict[tuple, tuple[ObjId, tuple[ArrId, ...]] | str] = {}

    @property
    def complete(self) -> bool:
        return (self.terminal is not None and self.initial is not None
                and not self.product_failures and not self.coproduct_failures
                and not self.exponential_failures)

    # -- witness lookups ---------------------------------------------------

    def product(self, a: ObjId, b: ObjId) -> ProductWitness:
        return self.products[(a.index, b.index)]

    def coproduct(self, a: ObjId, b: ObjId) -> CoproductWitness:
        return self.coproducts[(a.index, b.index)]

    def exponential(self, base: ObjId, target: ObjId) -> ExponentialWitness:
        return self.exponentials[(base.index, target.index)]

    def terminal_obj(self) -> ObjId:
        if self.terminal is None:
            raise NoSuchStructure(self.terminal_failure or "no terminal object")
        return self.terminal.obj

    def initial_obj(self) -> ObjId:
        if self.initial is None:
            raise NoSuchStructure(self.initial_failure or "no initial object")
        return self.initial.obj

    def identity(self, o: ObjId) -> ArrId:
        return self.cat.identity_of(o)

    def ob(self, index: int) -> ObjId:
        return self.cat.objects[index]

    # -- cones over any family of objects ----------------------------------
    # With ``op`` each of these works on the opposite category: on cocones,
    # with arrows out of the vertex counted in place of arrows into it.

    def find_cone(self, legs: Sequence[ObjId], among: Iterable[ObjId], *,
                  op: bool = False) -> tuple[ObjId, tuple[ArrId, ...]]:
        """Vertex and legs of the first universal cone over ``legs``, with
        both the vertex and the test objects taken from ``among``;
        NoSuchStructure, its message the refuting count, if there is none.
        Each outcome is kept by (legs, among, op): a diagram met again is
        not searched again."""
        ps, ws = tuple(o.index for o in legs), _indices(among)
        found = self._cones.get((ps, ws, op))
        if found is None:
            try:
                apex, fam, _ = _universal_cone(self._op if op else self._view, ps, "", ws)
                found = self.ob(apex), tuple(self.cat.arrows[p] for p in fam)
            except NoSuchStructure as exc:
                found = str(exc)
            self._cones[ps, ws, op] = found
        if isinstance(found, str):
            raise NoSuchStructure(found)
        return found

    def cone_miss(self, vertex: ObjId, legs: Sequence[ArrId], among: Iterable[ObjId], *,
                  op: bool = False) -> tuple[ObjId, tuple[ArrId, ...], int] | None:
        """None if ``vertex`` with ``legs`` is a universal cone against the
        test objects ``among``.  Otherwise the first test object W, the
        lexicographically first family of arrows from W to the leg objects
        that is not the composite of the legs with exactly one arrow
        W -> vertex, and that number of arrows."""
        view, ws = self._op if op else self._view, _indices(among)
        ps = [p.index for p in legs]
        if _cone_table(view, vertex.index, ps, ws) is not None:
            return None
        w, fam, k = _first_miss(view, vertex.index, ps, ws)
        return self.ob(w), tuple(self.cat.arrows[p] for p in fam), k

    def mediators(self, vertex: ObjId, legs: Sequence[ArrId], w: ObjId,
                  family: Sequence[ArrId], *, op: bool = False) -> list[ArrId]:
        """The arrows m : w -> ``vertex`` with (p_i . m)_i equal to ``family``,
        in index order: at most one if ``vertex`` with ``legs`` is universal."""
        view = self._op if op else self._view
        ms, n = view.hom[w.index][vertex.index], len(view.table)
        key = reduce(lambda k, f: k * n + f.index, family, 0)
        return [self.cat.arrows[m] for m, k in zip(ms, _keys(view, [p.index for p in legs], ms))
                if k == key]

    # -- canonical combinators ----------------------------------------------

    def _mediator(self, w: ProductWitness | CoproductWitness, f: int, g: int) -> ArrId:
        """The mediator of arrow indices (f, g) for the product or coproduct ``w``."""
        return self.cat.arrows[w.table[f * len(self.cat.arrows) + g]]

    def pair(self, f: ArrId, g: ArrId) -> ArrId:
        """<f, g> : dom f -> cod f x cod g."""
        if f.dom != g.dom:
            raise ShapeMismatch(f"pair({f.name}, {g.name}): different domains")
        return self._mediator(self.product(self.ob(f.cod), self.ob(g.cod)), f.index, g.index)

    def copair(self, f: ArrId, g: ArrId) -> ArrId:
        """[f, g] : dom f + dom g -> cod f."""
        if f.cod != g.cod:
            raise ShapeMismatch(f"copair({f.name}, {g.name}): different codomains")
        return self._mediator(self.coproduct(self.ob(f.dom), self.ob(g.dom)), f.index, g.index)

    def arrow_product(self, f: ArrId, g: ArrId) -> ArrId:
        """f x g = <f . proj1, g . proj2> : dom f x dom g -> cod f x cod g."""
        src = self.product(self.ob(f.dom), self.ob(g.dom))
        table = self._view.table
        return self._mediator(self.product(self.ob(f.cod), self.ob(g.cod)),
                              table[f.index][src.proj1.index], table[g.index][src.proj2.index])

    def swap(self, a: ObjId, b: ObjId) -> ArrId:
        """The canonical a x b -> b x a built from <proj2, proj1>."""
        pw = self.product(a, b)
        return self._mediator(self.product(b, a), pw.proj2.index, pw.proj1.index)

    def transpose(self, f: ArrId, w: ObjId, a: ObjId) -> ArrId:
        """Unique m : w -> cod(f)^a with eval . (m x id_a) = f, for f : w x a -> cod f."""
        ew = self.exponential(a, self.ob(f.cod))
        if f.dom != self.product(w, a).apex.index:
            raise ShapeMismatch(
                f"transpose({f.name}): domain is not the apex of {w.name} x {a.name}")
        return self.cat.arrows[ew.table[f.index * len(self.cat.objects) + w.index]]

    def theta(self, g: ArrId, a: ObjId, c: ObjId) -> ArrId:
        """theta(g) = eval . (g x id_a) : dom g x a -> c, inverse to transpose."""
        ew = self.exponential(a, c)
        if g.cod != ew.apex.index:
            raise ShapeMismatch(
                f"theta({g.name}): codomain is not the exponential {c.name}^{a.name}")
        gxa = self.arrow_product(g, self.identity(a))
        return self.cat.arrows[self._view.table[ew.eval.index][gxa.index]]


def discover_structure(cat: FinCategory) -> StructureTable:
    """Validate ``cat`` unless it is validated (LawViolation if it fails), then
    search terminal/initial objects, then all products and coproducts, then
    all exponentials; failures are recorded per key rather than raised.
    """
    if not cat.validated:
        report = validate_category(cat)
        if not report.ok:
            raise LawViolation(
                f"{cat.name} failed validation ({len(report.violations)} violations); "
                f"structure search requires a validated category")

    st = StructureTable(cat)
    view, op, put = st._view, st._op, dict.__setitem__
    try:
        st.terminal = find_terminal(cat)
    except NoSuchStructure as exc:
        st.terminal_failure = str(exc)
    try:
        st.initial = find_initial(cat)
    except NoSuchStructure as exc:
        st.initial_failure = str(exc)

    for a in cat.objects:
        for b in cat.objects:
            try:
                put(st.products, (a.index, b.index), _pair_witness(view, a, b))
            except NoSuchStructure as exc:
                st.product_failures[(a.index, b.index)] = str(exc)
            try:
                put(st.coproducts, (a.index, b.index), _pair_witness(op, a, b))
            except NoSuchStructure as exc:
                st.coproduct_failures[(a.index, b.index)] = str(exc)

    for a in cat.objects:
        ws = _with_product(view, st.products, a)
        for c in cat.objects:
            try:
                put(st.exponentials, (a.index, c.index),
                    _exponential(view, st.products, a, c, ws))
            except NoSuchStructure as exc:
                st.exponential_failures[(a.index, c.index)] = str(exc)

    return st
