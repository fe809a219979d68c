"""Finite Heyting algebras as test models, plus the independent lattice oracle.

The oracle evaluates formulas directly on the lattice tables and never
touches the categorical engine; agreement between the two is the main
cross-check for the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .errors import ScaleExceeded, WorkbenchError
from .kernel import MAX_OBJECTS, FinCategory
from .logic import (
    Arrow,
    Atom,
    Binary,
    Exists,
    Forall,
    Formula,
    Plus,
    Quantifier,
    TermUniverse,
    Times,
    Zero,
    substitute,
)


@dataclass(frozen=True)
class HeytingModel:
    """A finite Heyting algebra given by its order and operation tables."""
    name: str
    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    impl: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise WorkbenchError(f"{self.name}: unknown element {name}") from None

    def category(self) -> FinCategory:
        return thin_category_from_leq(self.elements, self.leq, name=self.name)


def thin_category_from_leq(elements: tuple[str, ...] | list[str],
                           leq: tuple[tuple[bool, ...], ...],
                           name: str = "poset") -> FinCategory:
    """The thin category of a preorder: one arrow a -> b per a <= b.

    Works for any reflexive transitive ``leq``, lattice or not, which makes
    it the entry point for deliberately broken test posets too.
    """
    n = len(elements)
    if n > MAX_OBJECTS:
        raise ScaleExceeded(f"{name}: {n} objects exceeds desk scale {MAX_OBJECTS}")
    arrows = []
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                arrows.append((f"le_{elements[i]}_{elements[j]}", elements[i], elements[j]))
    arrow_name = {}
    for aname, d, c in arrows:
        arrow_name[(d, c)] = aname
    for e in elements:
        arrow_name[(e, e)] = f"id_{e}"
    comps = []
    for i in range(n):
        for j in range(n):
            if not leq[i][j] or i == j:
                continue
            for k in range(n):
                if not leq[j][k] or j == k or i == k:
                    continue
                comps.append((arrow_name[(elements[j], elements[k])],
                              arrow_name[(elements[i], elements[j])],
                              arrow_name[(elements[i], elements[k])]))
    return FinCategory.build(list(elements), arrows, identities="auto",
                             compositions=comps, name=name)


def heyting_from_leq(name: str, elements: list[str],
                     leq: list[list[bool]]) -> HeytingModel:
    """Derive the operation tables from an order relation, verifying that the
    meets, joins and relative pseudo-complements all exist.
    """
    n = len(elements)
    if n > MAX_OBJECTS:
        raise ScaleExceeded(f"{name}: {n} elements exceeds desk scale {MAX_OBJECTS}")

    def bound(sat: Sequence[int], order: Sequence[Sequence[bool]], what: str) -> int:
        """The greatest lower bound of ``sat`` in ``order``: in the
        transpose of ``leq``, the least upper bound."""
        lower = [x for x in range(n) if all(order[x][y] for y in sat)]
        best = [x for x in lower if all(order[y][x] for y in lower)]
        if len(best) != 1:
            raise WorkbenchError(f"{name}: no {what} for {[elements[y] for y in sat]}")
        return best[0]

    glb = partial(bound, order=leq, what="greatest lower bound")
    lub = partial(bound, order=[list(row) for row in zip(*leq)], what="least upper bound")

    bottom, top = glb(range(n)), lub(range(n))
    meet = [[glb([i, j]) for j in range(n)] for i in range(n)]
    join = [[lub([i, j]) for j in range(n)] for i in range(n)]

    impl = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            cands = [x for x in range(n) if leq[meet[x][a]][b]]
            best = [x for x in cands if all(leq[y][x] for y in cands)]
            if len(best) != 1:
                raise WorkbenchError(f"{name}: no implication {elements[a]} => {elements[b]}")
            impl[a][b] = best[0]

    for a in range(n):  # distributivity is forced by implication, but assert it
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    raise WorkbenchError(f"{name}: not distributive at "
                                         f"({elements[a]}, {elements[b]}, {elements[c]})")

    return HeytingModel(name, tuple(elements),
                        tuple(tuple(row) for row in leq),
                        tuple(tuple(row) for row in meet),
                        tuple(tuple(row) for row in join),
                        tuple(tuple(row) for row in impl),
                        bottom, top)


# -- generators ----------------------------------------------------------------

def gen_chain(n: int) -> HeytingModel:
    """The n-element chain c0 < c1 < ... < c{n-1}."""
    if n < 1:
        raise ScaleExceeded("chain needs n >= 1")
    if n > MAX_OBJECTS:
        raise ScaleExceeded(f"chain-{n} exceeds desk scale {MAX_OBJECTS}")
    names = [f"c{i}" for i in range(n)]
    leq = [[i <= j for j in range(n)] for i in range(n)]
    return heyting_from_leq(f"chain-{n}", names, leq=leq)


def powerset_element_name(bits: int, k: int) -> str:
    members = "".join(str(i + 1) for i in range(k) if bits & (1 << i))
    return f"e{members}" if members else "e"


def gen_powerset(k: int) -> HeytingModel:
    """The Boolean algebra of subsets of a k-set; elements in binary order."""
    if k < 0 or k > 4:
        raise ScaleExceeded("powerset supports 0 <= k <= 4 (desk scale: <= 16 objects)")
    n = 1 << k
    names = [powerset_element_name(b, k) for b in range(n)]
    leq = [[(i & j) == i for j in range(n)] for i in range(n)]
    return heyting_from_leq(f"powerset-{k}", names, leq=leq)


def gen_diamond() -> HeytingModel:
    """The four-element 2x2 lattice: bot < left, right < top."""
    names = ["bot", "left", "right", "top"]
    # bot is below every element and top above every element
    leq = [[i == j or i == 0 or j == 3 for j in range(4)] for i in range(4)]
    return heyting_from_leq("diamond", names, leq=leq)


# -- the independent lattice oracle ---------------------------------------------

def oracle_interpret(model: HeytingModel, universe: TermUniverse,
                     atom_elems: dict, formula: Formula) -> int:
    """Evaluate a closed formula straight on the lattice tables.

    0 -> bottom, 1 -> top, & -> meet, | -> join, -> -> impl, forall/exists ->
    finite meet/join over the term universe.  Returns an element index and
    never consults the categorical engine.
    """
    if formula.fv:
        raise WorkbenchError(f"oracle needs a closed formula, got {formula}")
    return _oracle_eval(model, universe, atom_elems, formula)


# the lattice table of each connective, and of each quantifier the table it
# folds over the term universe and the element the fold starts from
_TABLES = {Times: "meet", Plus: "join", Arrow: "impl"}
_FOLDS = {Forall: ("meet", "top"), Exists: ("join", "bottom")}


def _oracle_eval(model: HeytingModel, universe: TermUniverse,
                 atom_elems: dict, f: Formula) -> int:
    value = partial(_oracle_eval, model, universe, atom_elems)
    if isinstance(f, Binary):
        return getattr(model, _TABLES[type(f)])[value(f.left)][value(f.right)]
    if isinstance(f, Quantifier):
        table, acc = (getattr(model, field) for field in _FOLDS[type(f)])
        for t in universe.terms(f.sort):
            acc = table[acc][value(substitute(f.body, t, f.var))]
        return acc
    if isinstance(f, Atom):
        key = (f.rel, f.args)
        if key not in atom_elems:
            raise WorkbenchError(f"oracle has no value for atom {f}")
        return atom_elems[key]
    return model.bottom if isinstance(f, Zero) else model.top


def oracle_atom_map(model: HeytingModel, atom_interp: dict) -> dict:
    """Resolve a theory's atom interpretation (object names) to element indices."""
    return {key: model.index(objname) for key, objname in atom_interp.items()}
