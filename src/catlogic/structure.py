"""Bicartesian-closed structure discovered by exhaustive universal-property search.

Every search checks one property.  A candidate apex V with legs p_i is
universal iff, for every test object W, the map m |-> (p_i . m)_i from
hom(W, V) to the product of the hom(W, leg_i) is a bijection: a universal
arrow represents a hom-functor (Mac Lane, *Categories for the Working
Mathematician*, III.1-2).  A candidate is tried only if its column of
hom-set sizes equals the product of its legs' columns, and it then passes
iff the map is injective on the arrows into V (``_universal``).  On a thin
view, where every hom-set holds at most one arrow, equal sizes are the
bijection (``_View``).  A search decides; it builds no table.
Discovery, the only caller of the fixed-diagram searches (terminal and
initial objects, products, coproducts, exponentials), runs them on the
table's own two views and is the only writer of a structure table.  It
records a witness or a failure under every key it searches; the table
refuses every other write, so each witness it holds is one a search verified.
A store holds each table once, so the combinators are lookups: a stored
product's or coproduct's inverse map (``_tabulate``; the terminal and
initial objects get none), or an exponential's transposes.

Every witness but an exponential is one type, :class:`Cone`: a terminal
object is a cone with no legs and a product one with two, and with ``op``
the same search run on the opposite category gives the initial object and
coproducts as cocones.  Quantifier objects are cones or cocones over any
number of legs, searched against a given set of test objects
(``StructureTable.find_cone``).  A given cone is re-checked (``cone_miss``)
and its mediators are found by their key (``mediators``) on the side it
carries.  Exponentials use the map m |-> eval . (m x id) over the W that
have a product with the base.  Reading a witness a structure table lacks
raises NoSuchStructure with its recorded failure.

Searches are deterministic: candidates are tried in index order and the
first verified one wins, so two runs on the same input produce identical
witness tables.  When no candidate passes, the failure message is an exact
count: either no object has the column of hom-set sizes a universal apex
must have, or the first object that has it is named with the first test
object W and the first family at W that it does not hit exactly once.
On a thin view the first object with the column passes, so a failure
there is always of the first kind.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, product
from math import prod
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Sequence

from .errors import LawViolation, NoSuchStructure, ShapeMismatch
from .kernel import ArrId, FinCategory, ObjId, validate_category


@dataclass(frozen=True)
class Cone:
    """A universal cone: ``legs`` are arrows apex -> leg object, or with
    ``op`` a cocone, arrows leg object -> apex.  Terminal and initial objects
    have no legs, products and coproducts two, quantifier objects one per
    closed term.  A cone carries no table; a store holds it (_Witnesses)."""
    apex: ObjId
    legs: tuple[ArrId, ...]
    op: bool = False


@dataclass(frozen=True)
class ExponentialWitness:
    base: ObjId       # A
    target: ObjId     # C
    apex: ObjId       # C^A
    eval: ArrId       # apex x A -> C


class _View:
    """A category or its opposite, in arrow indices.

    ``hom[x][y]`` lists the arrows x -> y, ``to[y][x]`` counts them and
    ``cod[p]`` is the codomain of arrow p.  The opposite view swaps the ends
    of every hom-set and the factors of every composite, reading the one
    table with its indices swapped.

    ``thin`` says that every hom-set holds at most one arrow, in both views
    alike.  Then a map from hom(W, V) to a set of the same size is a
    bijection, both sides holding 0 or 1 elements: the column check is the
    whole universal property, and its inverse sends the key of the unique
    arrows W -> leg (for an exponential, W x A -> C) to the unique arrow
    W -> V, composing nothing.  Every finite bicartesian closed category
    is thin.
    """

    def __init__(self, cat: FinCategory, op: bool = False):
        table, homs, dom, cod = cat.index()[:4]
        n = len(cat.objects)
        self.cat = cat
        self.op = op
        self.table = table
        self.thin = all(len(h) < 2 for h in homs.values())
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


def _universal(view: _View, apex: int, legs: Sequence[int], ws: Sequence[int],
               sizes: list[int] | None = None) -> bool:
    """Whether m |-> (p_i . m)_i maps hom(W, apex) one-to-one onto the
    product of the hom(W, cod p_i) at every test object W in ``ws``.

    Equal sizes and an injective map make a bijection; equal sizes alone
    do on a thin view, and with no legs, where the product is a point.
    ``sizes`` are the product sizes at ``ws`` if the caller has them.
    """
    if sizes is None:
        sizes = _sizes(view, [view.cod[p] for p in legs], ws)
    if _restrict(view.to[apex], ws) != sizes:
        return False
    if view.thin or not legs:
        return True
    keys = _keys(view, legs, [m for w in ws for m in view.hom[w][apex]])
    return len(set(keys)) == len(keys)


def _tabulate(view: _View, cone: Cone) -> dict[int, int]:
    """The pairing table of a universal ``cone`` on ``view`` against every
    object: (p_i . m)_i in radix |Arr| -> m, f.index * |Arr| + g.index ->
    <f, g> for two legs.  On a thin view it is read off the hom lists."""
    apex, legs = cone.apex.index, [p.index for p in cone.legs]
    hom, n = view.hom, len(view.table)
    if view.thin:
        ws = [w for w in view.objects if hom[w][apex]]
        keys = [0] * len(ws)
        for p in legs:
            keys = [k * n + hom[w][view.cod[p]][0] for k, w in zip(keys, ws)]
        return {k: hom[w][apex][0] for k, w in zip(keys, ws)}
    ms = [m for w in view.objects for m in hom[w][apex]]
    return dict(zip(_keys(view, legs, ms), ms))


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
                    ws: tuple[int, ...] | None = None) -> Cone:
    """The first universal cone over the objects ``legs``, a cocone on the
    opposite view, with both the apex and the test objects taken from
    ``ws`` (every object by default);
    NoSuchStructure, its message ``what`` followed by the refuting count,
    if there is none.

    Only apexes whose hom-set sizes from ``ws`` are the products of the
    legs' are tried, in index order, each with its families of legs
    lexicographically by arrow index.
    """
    ws, cat = view.objects if ws is None else ws, view.cat
    sizes = _sizes(view, legs, ws)
    for apex in view.columns(ws).get(tuple(sizes), ()):
        for fam in product(*(view.hom[apex][leg] for leg in legs)):
            if _universal(view, apex, fam, ws, sizes):
                return Cone(cat.objects[apex], tuple(cat.arrows[p] for p in fam), view.op)

    def explain(apex: int) -> str:
        # apex is in ws and has the sizes, so each hom(apex, leg) is inhabited
        fam = tuple(view.hom[apex][leg][0] for leg in legs)
        w, miss, k = _first_miss(view, apex, fam, ws)
        ends = (apex, w) if view.op else (w, apex)
        return (f"{k} arrows {cat.objects[ends[0]].name} -> {cat.objects[ends[1]].name} "
                f"compose with ({', '.join(cat.arrows[p].name for p in fam)}) "
                f"to ({', '.join(cat.arrows[f].name for f in miss)})")

    raise NoSuchStructure(what + _refutation(view, sizes, ws, explain))


def _tabulated(view: _View, legs: Sequence[int], what: str) -> tuple[Cone, dict[int, int]]:
    """A universal cone against every object, as discovery stores it: with its table."""
    cone = _universal_cone(view, legs, what)
    return cone, _tabulate(view, cone)


# -- exponentials -------------------------------------------------------------------

def _times_id(view: _View, P: Sequence, apex: int, a: int, ws: Sequence[int]) -> list[list[int]]:
    """For each w in ws, the arrows m x id_a : w x a -> apex x a, m : w -> apex;
    ``P`` are the product rows (``_Witnesses.rows``)."""
    table, n = view.table, len(view.table)
    pairs = P[apex][a][3]
    out = []
    for w in ws:
        _, q1, q2, _ = P[w][a]
        out.append([pairs[table[m][q1] * n + q2] for m in view.hom[w][apex]])
    return out


def _transpose_tables(view: _View, P: Sequence, apex: int, a: int, ws: Sequence[int],
                      evs: Iterable[int]) -> Iterator[tuple[int, dict[int, int] | None]]:
    """Each eval candidate ev : apex x a -> C with the inverse of
    m |-> ev . (m x id_a) over the arrows m : w -> apex, w in ws."""
    per_w = _times_id(view, P, apex, a, ws)
    w_of = [w for w, ks in zip(ws, per_w) for _ in ks]
    m_x_id = list(chain.from_iterable(per_w))
    ms = [m for w in ws for m in view.hom[w][apex]]
    n = len(view.hom)
    for ev in evs:
        row = view.table[ev]
        table = {row[k] * n + w: m for w, k, m in zip(w_of, m_x_id, ms)}
        yield ev, table if len(table) == len(ms) else None


def _exponential(view: _View, P: Sequence, a: ObjId, target: ObjId, ws: tuple[int, ...]
                 ) -> tuple[ExponentialWitness, dict[int, int]]:
    """The exponential and its table, f.index * |Obj| + w.index -> the transpose
    of f : w x a -> target.  ``ws`` are the objects with a product with ``a``."""
    cat, hom = view.cat, view.hom
    ai, c = a.index, target.index
    sources = [P[w][ai][0] for w in ws]
    sizes = [view.to[c][s] for s in sources]
    for apex in view.columns(ws).get(tuple(sizes), ()):
        evs = hom[P[apex][ai][0]][c]
        if view.thin:  # apex is in ws: one eval, as hom(apex, apex) holds one arrow
            n = len(hom)
            found = [(evs[0], {hom[s][c][0] * n + w: hom[w][apex][0]
                               for w, s in zip(ws, sources) if hom[w][apex]})]
        else:
            found = _transpose_tables(view, P, apex, ai, ws, evs)
        for ev, table in found:
            if table is not None:
                return ExponentialWitness(a, target, cat.objects[apex], cat.arrows[ev]), table

    def explain(apex: int) -> str:
        ev = hom[P[apex][ai][0]][c][0]
        row = view.table[ev]
        for w, s, ks in zip(ws, sources, _times_id(view, P, apex, ai, ws)):
            miss = _miss([row[k] for k in ks], hom[s][c], len(hom[s][c]))
            if miss:
                return (f"with eval {cat.arrows[ev].name}, {miss[1]} arrows m : "
                        f"{cat.objects[w].name} -> {cat.objects[apex].name} have "
                        f"eval . (m x id_{a.name}) = {cat.arrows[hom[s][c][miss[0]]].name}")

    raise NoSuchStructure(
        f"{cat.name}: no exponential with base {a.name}, target {target.name}; "
        + _refutation(view, sizes, ws, explain, f"object with a product with {a.name}"))


def _refuse(*args, **kwargs):
    raise TypeError("a structure table is written only by discover_structure")


class _Witnesses(dict):
    """Witnesses by key, written only by :func:`discover_structure`, which
    records under every key it searches either the witness and its table or
    the failure: every mutator raises TypeError.  A hit is dict's own read;
    a miss raises NoSuchStructure with the failure recorded under the key.

    The store is its tables' one home.  One keyed by object index pairs
    reaches them through ``rows``, set by :meth:`_index`: ``rows[x][y]`` is
    the witness under (x, y) as plain ints and its table, ``(apex, leg1,
    leg2, table)`` for a cone and ``(apex, eval, table)`` for an
    exponential, or None where a failure is recorded.  A None row is read
    through the store, which raises that failure.  The rows are tuples, and
    rebinding an attribute raises TypeError too."""

    def __init__(self, witnesses: Iterable = ()):
        super().__init__(witnesses)
        vars(self).update(_failures={}, _tables={})

    def __missing__(self, key):
        raise NoSuchStructure(self._failures[key])

    def __reduce__(self):
        return _Witnesses, (dict(self),), vars(self)

    def _record(self, key, search: Callable, *args) -> None:
        """Store under ``key`` what ``search(*args)`` finds, or its failure."""
        try:
            witness, self._tables[key] = search(*args)
        except NoSuchStructure as exc:
            self._failures[key] = str(exc)
        else:
            dict.__setitem__(self, key, witness)

    def _index(self, n: int) -> None:
        """Set ``rows`` from the witnesses under the n x n object index pairs."""
        rows: list[list] = [[None] * n for _ in range(n)]
        for (x, y), w in self.items():
            arrows = w.legs if isinstance(w, Cone) else (w.eval,)
            rows[x][y] = (w.apex.index, *(p.index for p in arrows), self._tables[x, y])
        vars(self)["rows"] = tuple(map(tuple, rows))

    __setitem__ = __delitem__ = update = setdefault = pop = popitem = clear = __ior__ = _refuse
    __setattr__ = __delattr__ = _refuse


class StructureTable:
    """Every discovered witness, keyed by object index pairs.

    Built once by :func:`discover_structure`, the only writer of the table:
    under each object index pair each of ``products``, ``coproducts`` and
    ``exponentials`` holds a witness or its ``*_failures`` entry holds why
    there is none, and ``terminal`` or ``terminal_failure`` is set (likewise
    ``initial``).  Every other write, rebinding an attribute included,
    raises TypeError, and downstream modules never re-search.  A search
    decides and a store tabulates: each store but the ends' holds the table
    of each witness it holds, once, in its ``rows`` (see :class:`_Witnesses`),
    and the canonical arrow combinators (pairing, copairing, arrow product,
    swap, transpose) and the distributivity sweeps are lookups in them.
    """

    terminal = property(lambda st: st._ends.get("terminal"))
    initial = property(lambda st: st._ends.get("initial"))
    terminal_failure = property(lambda st: st._ends._failures.get("terminal"))
    initial_failure = property(lambda st: st._ends._failures.get("initial"))
    product_failures = property(lambda st: MappingProxyType(st.products._failures))
    coproduct_failures = property(lambda st: MappingProxyType(st.coproducts._failures))
    exponential_failures = property(lambda st: MappingProxyType(st.exponentials._failures))

    def __init__(self, cat: FinCategory):
        # the only attribute writes: a read stays a plain instance lookup
        vars(self).update(
            cat=cat, _view=_View(cat), _op=_View(cat, op=True),
            _ends=_Witnesses(),  # the terminal and initial witnesses, by name, untabulated
            products=_Witnesses(), coproducts=_Witnesses(), exponentials=_Witnesses(),
            _cones={})  # find_cone's outcomes, by diagram

    __setattr__ = __delattr__ = _refuse

    @property
    def complete(self) -> bool:
        return (self.terminal is not None and self.initial is not None
                and not self.product_failures and not self.coproduct_failures
                and not self.exponential_failures)

    # -- witness lookups ---------------------------------------------------

    def product(self, a: ObjId, b: ObjId) -> Cone:
        return self.products[(a.index, b.index)]

    def coproduct(self, a: ObjId, b: ObjId) -> Cone:
        return self.coproducts[(a.index, b.index)]

    def exponential(self, base: ObjId, target: ObjId) -> ExponentialWitness:
        return self.exponentials[(base.index, target.index)]

    def terminal_obj(self) -> ObjId:
        return self._ends["terminal"].apex

    def initial_obj(self) -> ObjId:
        return self._ends["initial"].apex

    def identity(self, o: ObjId) -> ArrId:
        return self.cat.identity_of(o)

    # -- cones over any family of objects ----------------------------------

    def find_cone(self, legs: Sequence[ObjId], among: Iterable[ObjId], *,
                  op: bool = False) -> Cone:
        """The first universal cone (with ``op``, cocone) over ``legs``, with
        both the apex and the test objects taken from ``among``;
        NoSuchStructure, its message the refuting count, if there is none.
        Each outcome is kept by (legs, among, op): a diagram met again is not
        searched again."""
        ps, ws = tuple(o.index for o in legs), _indices(among)
        found = self._cones.get((ps, ws, op))
        if found is None:
            try:
                found = _universal_cone(self._op if op else self._view, ps, "", ws)
            except NoSuchStructure as exc:
                found = str(exc)
            self._cones[ps, ws, op] = found
        if isinstance(found, str):
            raise NoSuchStructure(found)
        return found

    def _side(self, cone: Cone) -> _View:
        """The view on ``cone``'s side; ShapeMismatch naming the first leg
        that does not leave the apex (for a cocone, that does not enter it)."""
        for p in cone.legs:
            if (p.cod if cone.op else p.dom) != cone.apex.index:
                raise ShapeMismatch(
                    f"leg {p.name} of the {'cocone' if cone.op else 'cone'} at "
                    f"{cone.apex.name} does not {'enter' if cone.op else 'leave'} it")
        return self._op if cone.op else self._view

    def cone_miss(self, cone: Cone, among: Iterable[ObjId]
                  ) -> tuple[ObjId, tuple[ArrId, ...], int] | None:
        """None if ``cone`` is universal against the test objects ``among``.
        Otherwise the first test object W, the lexicographically first
        family of arrows from W to the leg objects (the other way for a
        cocone) that is not the composite of the legs with exactly one arrow
        W -> apex (apex -> W), and that number of arrows."""
        view, ws = self._side(cone), _indices(among)
        apex, ps = cone.apex.index, [p.index for p in cone.legs]
        if _universal(view, apex, ps, ws):
            return None
        w, fam, k = _first_miss(view, apex, ps, ws)
        return self.cat.objects[w], tuple(self.cat.arrows[p] for p in fam), k

    def mediators(self, cone: Cone, w: ObjId, family: Sequence[ArrId]) -> list[ArrId]:
        """The arrows m : w -> apex (apex -> w for a cocone) whose composites
        with the legs are ``family``, in index order: at most one if
        ``cone`` is universal.  ShapeMismatch unless ``family`` has one arrow
        per leg, each leaving ``w`` (for a cocone, entering it)."""
        view = self._side(cone)
        if len(family) != len(cone.legs):
            raise ShapeMismatch(
                f"family of {len(family)} arrows for the {'cocone' if cone.op else 'cone'} "
                f"at {cone.apex.name} with {len(cone.legs)} legs")
        for f in family:
            if (f.cod if cone.op else f.dom) != w.index:
                raise ShapeMismatch(f"family arrow {f.name} does not "
                                    f"{'enter' if cone.op else 'leave'} {w.name}")
        ms, n = view.hom[w.index][cone.apex.index], len(view.table)
        key = reduce(lambda k, f: k * n + f.index, family, 0)
        legs = [p.index for p in cone.legs]
        return [self.cat.arrows[m] for m, k in zip(ms, _keys(view, legs, ms)) if k == key]

    # -- canonical combinators ----------------------------------------------

    def _mediator(self, store: _Witnesses, x: int, y: int, f: int, g: int) -> ArrId:
        """The mediator of arrow indices (f, g) for the product or coproduct
        of the objects x and y in ``store``."""
        row = store.rows[x][y] or store[x, y]
        return self.cat.arrows[row[3][f * len(self.cat.arrows) + g]]

    def pair(self, f: ArrId, g: ArrId) -> ArrId:
        """<f, g> : dom f -> cod f x cod g."""
        if f.dom != g.dom:
            raise ShapeMismatch(f"pair({f.name}, {g.name}): different domains")
        return self._mediator(self.products, f.cod, g.cod, f.index, g.index)

    def copair(self, f: ArrId, g: ArrId) -> ArrId:
        """[f, g] : dom f + dom g -> cod f."""
        if f.cod != g.cod:
            raise ShapeMismatch(f"copair({f.name}, {g.name}): different codomains")
        return self._mediator(self.coproducts, f.dom, g.dom, f.index, g.index)

    def arrow_product(self, f: ArrId, g: ArrId) -> ArrId:
        """f x g = <f . proj1, g . proj2> : dom f x dom g -> cod f x cod g."""
        P, table = self.products, self._view.table
        _, p1, p2, _ = P.rows[f.dom][g.dom] or P[f.dom, g.dom]
        return self._mediator(P, f.cod, g.cod, table[f.index][p1], table[g.index][p2])

    def swap(self, a: ObjId, b: ObjId) -> ArrId:
        """The canonical a x b -> b x a built from <proj2, proj1>."""
        P = self.products
        _, p1, p2, _ = P.rows[a.index][b.index] or P[a.index, b.index]
        return self._mediator(P, b.index, a.index, p2, p1)

    def transpose(self, f: ArrId, w: ObjId, a: ObjId) -> ArrId:
        """Unique m : w -> cod(f)^a with eval . (m x id_a) = f, for f : w x a -> cod f."""
        E, P = self.exponentials, self.products
        ew = E.rows[a.index][f.cod] or E[a.index, f.cod]
        if f.dom != (P.rows[w.index][a.index] or P[w.index, a.index])[0]:
            raise ShapeMismatch(
                f"transpose({f.name}): domain is not the apex of {w.name} x {a.name}")
        return self.cat.arrows[ew[2][f.index * len(self.cat.objects) + w.index]]

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
    Each stored product and coproduct is tabulated once; the ends are not.
    """
    if not cat.validated:
        report = validate_category(cat)
        if not report.ok:
            raise LawViolation(
                f"{cat.name} failed validation ({len(report.violations)} violations); "
                f"structure search requires a validated category")

    st = StructureTable(cat)
    view, op, n = st._view, st._op, len(cat.objects)
    for end, side in (("terminal", view), ("initial", op)):
        st._ends._record(end, lambda *a: (_universal_cone(*a), None), side, (),
                         f"{cat.name}: no {end} object; ")
    for a in cat.objects:
        for b in cat.objects:
            key, pair = (a.index, b.index), f"({a.name}, {b.name}); "
            st.products._record(key, _tabulated, view, key,
                                f"{cat.name}: no product for {pair}")
            st.coproducts._record(key, _tabulated, op, key,
                                  f"{cat.name}: no coproduct for {pair}")
    st.products._index(n)
    st.coproducts._index(n)
    P = st.products.rows
    for a in cat.objects:
        ws = tuple(w for w in view.objects if P[w][a.index])
        for c in cat.objects:
            st.exponentials._record((a.index, c.index), _exponential, view, P, a, c, ws)
    st.exponentials._index(n)
    return st
