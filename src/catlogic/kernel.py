"""Finite categories stored as dense composition tables.

Objects and arrows carry dense indices; every law check and every
universal-property search downstream runs on those indices, with names
kept only for reports and file round-trips.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    CategoryFileError,
    MalformedInput,
    NotComposable,
    ScaleExceeded,
    ShapeMismatch,
    UndefinedComposite,
)

UNDEFINED = -1
# desk scale: category files and generated models stay within these
MAX_OBJECTS = 32
MAX_ARROW_LINES = 1024


@dataclass(frozen=True)
class ObjId:
    index: int
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrId:
    index: int
    name: str
    dom: int  # object index
    cod: int  # object index

    def __str__(self) -> str:
        return self.name


class CategoryIndex(NamedTuple):
    """The category in arrow indices, for searches that run on the table.

    ``table[g][f]`` is the index of g after f (UNDEFINED off composable
    pairs); ``hom[(a, b)]`` lists the indices of the arrows a -> b in index
    order and is absent when there are none; ``dom[f]`` and ``cod[f]`` are
    the object indices of arrow f and ``identity[a]`` the arrow index of the
    identity of object a; ``into[a]`` and ``out_of[a]`` list the arrows into
    and out of object a, in index order.
    """
    table: tuple[tuple[int, ...], ...]
    hom: Mapping[tuple[int, int], tuple[int, ...]]
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    identity: tuple[int, ...]
    into: tuple[tuple[int, ...], ...]
    out_of: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid category"
        return "\n".join(str(v) for v in self.violations)


class FinCategory:
    """Objects, arrows, identities and a dense |Arr| x |Arr| composition table.

    The table stores ``table[g][f] = g after f`` and UNDEFINED elsewhere.
    Instances are immutable after construction except for the ``validated``
    flag set by :func:`validate_category`.
    """

    def __init__(self, name: str, objects: Sequence[ObjId], arrows: Sequence[ArrId],
                 identity: Sequence[int], table: Sequence[Sequence[int]]):
        self.name = name
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self._identity = tuple(identity)
        self._table = tuple(tuple(row) for row in table)
        self.validated = False
        self._check_shape()
        self._obj_by_name = {o.name: o for o in self.objects}
        self._arr_by_name = {a.name: a for a in self.arrows}
        hom: dict[tuple[int, int], list[ArrId]] = {}
        into: list[list[int]] = [[] for _ in self.objects]
        out_of: list[list[int]] = [[] for _ in self.objects]
        for f in self.arrows:
            hom.setdefault((f.dom, f.cod), []).append(f)
            into[f.cod].append(f.index)
            out_of[f.dom].append(f.index)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self._index = CategoryIndex(
            self._table, {k: tuple(f.index for f in v) for k, v in hom.items()},
            tuple(a.dom for a in self.arrows), tuple(a.cod for a in self.arrows),
            self._identity, tuple(map(tuple, into)), tuple(map(tuple, out_of)))

    def _check_shape(self) -> None:
        n_obj, n_arr = len(self.objects), len(self.arrows)
        for i, o in enumerate(self.objects):
            if o.index != i:
                raise MalformedInput(f"object {o.name} has index {o.index}, expected {i}")
        if len({o.name for o in self.objects}) != n_obj:
            raise MalformedInput("duplicate object names")
        for i, a in enumerate(self.arrows):
            if a.index != i:
                raise MalformedInput(f"arrow {a.name} has index {a.index}, expected {i}")
            if not (0 <= a.dom < n_obj and 0 <= a.cod < n_obj):
                raise MalformedInput(f"arrow {a.name} has dangling endpoint")
        if len({a.name for a in self.arrows}) != n_arr:
            raise MalformedInput("duplicate arrow names")
        if len(self._identity) != n_obj:
            raise MalformedInput("identity map does not cover every object")
        for k in self._identity:
            if not 0 <= k < n_arr:
                raise MalformedInput("identity map has dangling arrow index")
        if len(self._table) != n_arr or any(len(r) != n_arr for r in self._table):
            raise MalformedInput("composition table is not |Arr| x |Arr|")
        for row in self._table:
            for k in row:
                if k != UNDEFINED and not 0 <= k < n_arr:
                    raise MalformedInput("composition table has dangling arrow index")

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, objects: Sequence[str], arrows: Iterable[tuple[str, str, str]],
              identities: Mapping[str, str] | str = "auto",
              compositions: Iterable[tuple[str, str, str]] = (),
              name: str = "category") -> "FinCategory":
        """Assemble a category from names, by the rules of the category file
        (:func:`parse_category`), as if each name were a line of it.

        ``objects`` are the ``object`` lines and ``arrows``, as (name, dom,
        cod), the ``arrow`` lines.  ``identities`` maps each object to its
        identity arrow or ``auto`` (an ``id_<o>`` arrow, reused if declared);
        ``"auto"`` alone means ``auto`` for every object.  ``compositions``
        lists (g, f, h) meaning g.f = h, the ``compose`` lines, which
        override the identity composites.  A fault raises the file's
        CategoryFileError, with no line.
        """
        if identities == "auto":
            identities = dict.fromkeys(objects, "auto")
        return _assemble(itertools.chain.from_iterable(
            zip(itertools.repeat(kind), decls, itertools.repeat(None)) for kind, decls in (
                ("object", zip(objects)), ("arrow", arrows), ("id", identities.items()),
                ("compose", compositions))), name)

    # -- queries -----------------------------------------------------------

    def obj(self, name: str) -> ObjId:
        try:
            return self._obj_by_name[name]
        except KeyError:
            raise MalformedInput(f"unknown object {name}") from None

    def arrow(self, name: str) -> ArrId:
        try:
            return self._arr_by_name[name]
        except KeyError:
            raise MalformedInput(f"unknown arrow {name}") from None

    def identity_of(self, o: ObjId | int) -> ArrId:
        idx = o.index if isinstance(o, ObjId) else o
        return self.arrows[self._identity[idx]]

    def compose(self, g: ArrId, f: ArrId) -> ArrId:
        """g after f.  Total on composable pairs of a validated category."""
        if f.cod != g.dom:
            raise NotComposable(f"cannot compose {g.name} . {f.name}: "
                                f"dom({g.name}) != cod({f.name})")
        k = self._table[g.index][f.index]
        if k == UNDEFINED:
            raise UndefinedComposite(f"composite {g.name} . {f.name} missing from table")
        return self.arrows[k]

    def hom(self, a: ObjId, b: ObjId) -> tuple[ArrId, ...]:
        """Arrows a -> b in stable (index) order."""
        return self._hom.get((a.index, b.index), ())

    def index(self) -> CategoryIndex:
        """Composition-table rows and hom-sets as arrow indices."""
        return self._index

    def table_entry(self, g: ArrId, f: ArrId) -> int:
        return self._table[g.index][f.index]

    def __repr__(self) -> str:
        return (f"FinCategory({self.name!r}, {len(self.objects)} objects, "
                f"{len(self.arrows)} arrows)")


def validate_category(c: FinCategory) -> ValidationReport:
    """Check every category law; empty report iff ``c`` is a category.

    Structural defects raise MalformedInput at construction time already;
    this pass reports law failures (identity, associativity, composition
    typing/totality) with the witnessing arrows.  Sets ``c.validated`` on
    success so structure searches can insist on the staged pipeline.

    On a table that passes the other laws, associativity is decided exactly
    by Light's test (:func:`associative_at_generators`).  Only when some law
    fails is every composable triple checked, so that the report lists
    every associativity violation.
    """
    out: list[Violation] = []

    for o in c.objects:
        ia = c.identity_of(o)
        if ia.dom != o.index or ia.cod != o.index:
            out.append(Violation("identity-endpoints",
                                 f"identity of {o.name} is {ia.name}: {_ends(c, ia)}"))

    table, _, dom, cod, _, into, _ = c.index()
    n = len(c.arrows)
    for g, row in enumerate(table):
        fs = into[dom[g]]
        # fast row test: every composable entry is defined and typed, and
        # those are all the defined entries
        if row.count(UNDEFINED) == n - len(fs) and all(
                row[f] != UNDEFINED and dom[row[f]] == dom[f] and cod[row[f]] == cod[g]
                for f in fs):
            continue
        gname = c.arrows[g].name
        for f, k in enumerate(row):
            fname = c.arrows[f].name
            if cod[f] == dom[g]:
                if k == UNDEFINED:
                    out.append(Violation("compose-missing",
                                         f"composite {gname} . {fname} undefined"))
                elif dom[k] != dom[f] or cod[k] != cod[g]:
                    h = c.arrows[k]
                    out.append(Violation("compose-endpoints",
                                         f"{gname} . {fname} = {h.name} but "
                                         f"{h.name} is {_ends(c, h)}, expected "
                                         f"{c.objects[dom[f]].name} -> {c.objects[cod[g]].name}"))
            elif k != UNDEFINED:
                out.append(Violation("compose-spurious",
                                     f"table defines {gname} . {fname} "
                                     f"on a non-composable pair"))

    ids = [c.identity_of(o).index for o in c.objects]
    for f in c.arrows:
        left = table[ids[f.cod]][f.index]
        if left != UNDEFINED and left != f.index:
            out.append(Violation("identity-law",
                                 f"id_{c.objects[f.cod].name} . {f.name} = "
                                 f"{c.arrows[left].name}, expected {f.name}"))
        right = table[f.index][ids[f.dom]]
        if right != UNDEFINED and right != f.index:
            out.append(Violation("identity-law",
                                 f"{f.name} . id_{c.objects[f.dom].name} = "
                                 f"{c.arrows[right].name}, expected {f.name}"))

    if out or not associative_at_generators(c):
        out.extend(_associativity_violations(c))

    report = ValidationReport(tuple(out))
    if report.ok:
        c.validated = True
    return report


def light_generators(c: FinCategory) -> tuple[int, ...]:
    """A set of arrow indices whose closure under the table is every arrow.

    Greedy in index order: an arrow is a generator iff it is not a composite
    of earlier generators.  The closed set grows by composing each new
    member with every closed arrow on both sides.  The table must be typed
    and total on composable pairs.
    """
    table, _, dom, cod = c.index()[:4]
    closed = [False] * len(c.arrows)
    into: list[list[int]] = [[] for _ in c.objects]  # closed arrows by codomain
    out_of: list[list[int]] = [[] for _ in c.objects]  # closed arrows by domain
    gens = []
    for a in range(len(c.arrows)):
        if closed[a]:
            continue
        gens.append(a)
        todo = [a]
        closed[a] = True
        into[cod[a]].append(a)
        out_of[dom[a]].append(a)
        while todo:
            x = todo.pop()
            row = table[x]
            for z in [row[y] for y in into[dom[x]]] + [table[y][x] for y in out_of[cod[x]]]:
                if not closed[z]:
                    closed[z] = True
                    todo.append(z)
                    into[cod[z]].append(z)
                    out_of[dom[z]].append(z)
    return tuple(gens)


def associative_at_generators(c: FinCategory) -> bool:
    """Light's associativity test (Clifford & Preston, *The Algebraic Theory
    of Semigroups* I, 1961, section 1.2), exact on a typed, total table.

    Checks h.(g.f) = (h.g).f for every g in :func:`light_generators`, every
    h out of cod g and every f into dom g.  That suffices: if the law holds
    at g1 and g2 for all h and f, it holds at x = g1.g2, since
    h.(x.f) = h.(g1.(g2.f)) = (h.g1).(g2.f) = ((h.g1).g2).f = (h.x).f,
    using the law at g2, g1, g2 and g1 in turn.  So the arrows at which it
    holds are closed under composition, and they include the generators,
    whose closure is every arrow.  Only table lookups are used, so the test
    needs nothing beyond typing and totality.
    """
    return next(_bracketings_differ(c, light_generators(c)), None) is None


def _associativity_violations(c: FinCategory) -> list[Violation]:
    """Every composable triple whose two bracketings differ, in (h, g, f) order."""
    name = [a.name for a in c.arrows]
    return [Violation("associativity", f"{name[h]} . ({name[g]} . {name[f]}) = {name[lhs]} "
                                       f"but ({name[h]} . {name[g]}) . {name[f]} = {name[rhs]}")
            for h, g, f, lhs, rhs in sorted(_bracketings_differ(c, range(len(c.arrows))))]


def _bracketings_differ(c: FinCategory, gs: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """(h, g, f, h.(g.f), (h.g).f) for each composable triple with g in
    ``gs`` whose two bracketings are defined and differ.  For each h, the
    composites with every f into dom g are compared as one row, read f by f
    only if it differs: exact on any table, as an undefined g.f or h.g reads
    index -1 but the f-by-f reading skips that triple.  An object with no
    arrow into it (a mistyped identity) has no row."""
    table, _, dom, cod, _, into, out_of = c.index()
    for g in gs:
        fs = into[dom[g]]
        if not fs:
            continue
        row, after_f = table[g], itemgetter(*fs)
        after_gf = itemgetter(*[row[f] for f in fs])
        for h in out_of[cod[g]]:
            rh = table[h]
            rhg = table[rh[g]]
            if after_gf(rh) != after_f(rhg):
                for f in fs:
                    lhs, rhs = rh[row[f]], rhg[f]
                    if lhs != rhs and UNDEFINED not in (row[f], rh[g], lhs, rhs):
                        yield h, g, f, lhs, rhs


def _ends(c: FinCategory, a: ArrId) -> str:
    return f"{c.objects[a.dom].name} -> {c.objects[a.cod].name}"


def mutually_inverse(c: FinCategory, f: ArrId, g: ArrId) -> bool:
    """True iff g.f and f.g are the two identities."""
    if f.dom != g.cod or f.cod != g.dom:
        raise ShapeMismatch(f"{f.name} and {g.name} do not have opposite endpoints")
    return _inverse_rows(c, f, g)


def inverses(c: FinCategory, f: ArrId) -> list[ArrId]:
    """Every g : cod f -> dom f with g.f and f.g the two identities."""
    return [g for g in c.hom(c.objects[f.cod], c.objects[f.dom]) if _inverse_rows(c, f, g)]


def _inverse_rows(c: FinCategory, f: ArrId, g: ArrId) -> bool:
    """g.f and f.g, read off the table rows, are the identities of dom f and
    cod f, for g : cod f -> dom f.  An undefined composite raises as
    ``compose`` does."""
    table, ids = c._table, c._identity
    gf = table[g.index][f.index]
    if gf == UNDEFINED:
        c.compose(g, f)
    if gf != ids[f.dom]:
        return False
    fg = table[f.index][g.index]
    if fg == UNDEFINED:
        c.compose(f, g)
    return fg == ids[f.cod]


# -- category file format ----------------------------------------------------

# the line patterns by their first word: each matches only lines that start with it
_LINE_RES = {
    "object": re.compile(r"^object\s+(\S+)$"),
    "arrow": re.compile(r"^arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$"),
    "id": re.compile(r"^id\s+(\S+)\s*=\s*(\S+)$"),
    "compose": re.compile(r"^compose\s+(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$"),
}


def parse_category(text: str, name: str = "category") -> FinCategory:
    """Parse the line-oriented category format.

    Lines: ``object N`` / ``arrow N : A -> B`` / ``id A = N|auto`` /
    ``compose G . F = H``; ``#`` starts a comment.  Each line is matched here
    and passed with its number to :func:`_assemble`, which states the rules
    on the names (desk-scale limits, duplicates, unknown names, one ``id``
    line per object).  Errors carry the number of the line at fault.

    A line with no ``#`` whose whitespace split is exactly the six words
    ``compose G . F = H`` is read from the split, without the regex: the
    ``compose`` pattern's greedy first match on such a line is that split,
    and ``str.split`` and the pattern's ``\\s`` take the same characters
    for whitespace.  Every other line is matched by its pattern.
    """
    def declarations() -> Iterator[tuple[str, tuple[str, ...], int]]:
        for lineno, raw in enumerate(text.splitlines(), 1):
            if "#" not in raw:
                words = raw.split()
                if (len(words) == 6 and words[0] == "compose" and words[2] == "."
                        and words[4] == "="):
                    yield "compose", (words[1], words[3], words[5]), lineno
                    continue
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            kind = line.split(None, 1)[0]
            rx = _LINE_RES.get(kind)
            m = rx.match(line) if rx else None
            if m is None:
                raise CategoryFileError(f"unrecognized line: {line}", lineno)
            yield kind, m.groups(), lineno
    return _assemble(declarations(), name)


def _assemble(decls: Iterable[tuple[str, Sequence[str], int | None]],
              name: str) -> FinCategory:
    """The category declared by ``decls``, each (kind, names, line) in file
    order, or CategoryFileError naming the line of the first at fault.

    A kind is a file line: ``object`` (N), ``arrow`` (N, A, B), ``id`` (A, N
    or ``auto``) or ``compose`` (G, F, H).  Names are checked as declared,
    but ``compose`` names only after the last declaration.  ``id A = auto``
    makes the arrow ``id_A`` the identity of A, added as A -> A after every
    declared arrow, in ``id`` order, unless declared.  The table holds the
    identity composites, overridden by the ``compose`` entries.
    """
    objects: dict[str, int | None] = {}  # name: line, and likewise below
    arrows: dict[str, tuple[str, str, int | None]] = {}
    ids: dict[str, tuple[str, int | None]] = {}
    comps: dict[str, dict[str, int | None]] = {}  # g: f: line
    composites: list[Sequence[str]] = []  # (g, f, h) in order
    for kind, names, line in decls:
        if kind == "compose":
            g, f, _ = names
            after = comps.get(g)
            if after is None:
                after = comps[g] = {}
            if f in after:
                raise CategoryFileError(f"composite {g} . {f} already given{_on(after[f])}",
                                        line)
            after[f] = line
            composites.append(names)
        elif kind == "arrow":
            a, d, c = names
            if len(arrows) == MAX_ARROW_LINES:
                raise CategoryFileError(f"arrow {a}: more than {MAX_ARROW_LINES} "
                                        f"arrow lines exceeds desk scale", line)
            if a in arrows:
                raise CategoryFileError(f"arrow {a} already declared{_on(arrows[a][2])}", line)
            for o in (d, c):
                if o not in objects:
                    raise CategoryFileError(f"arrow {a}: unknown object {o}", line)
            arrows[a] = d, c, line
        elif kind == "object":
            (o,) = names
            if len(objects) == MAX_OBJECTS:
                raise CategoryFileError(f"object {o}: more than {MAX_OBJECTS} "
                                        f"objects exceeds desk scale", line)
            if o in objects:
                raise CategoryFileError(f"object {o} already declared{_on(objects[o])}", line)
            objects[o] = line
        else:
            o, a = names
            if o not in objects:
                raise CategoryFileError(f"id line for unknown object {o}", line)
            if a != "auto" and a not in arrows:
                raise CategoryFileError(f"id {o} names unknown arrow {a}", line)
            if o in ids:
                raise CategoryFileError(f"id of {o} already given{_on(ids[o][1])}", line)
            ids[o] = (f"id_{o}" if a == "auto" else a), line
    for o, line in objects.items():
        if o not in ids:
            raise CategoryFileError(f"object {o} has no id line", line)
    for o, (a, _) in ids.items():
        arrows.setdefault(a, (o, o, None))  # adds only an undeclared auto identity
    obj = {o: i for i, o in enumerate(objects)}
    arr = {a: i for i, a in enumerate(arrows)}
    arr_list = [ArrId(i, a, obj[d], obj[c]) for i, (a, (d, c, _)) in enumerate(arrows.items())]
    identity = [arr[ids[o][0]] for o in objects]
    table = _identity_composites(arr_list, identity)
    for g, f, h in composites:
        try:
            table[arr[g]][arr[f]] = arr[h]
        except KeyError:
            unknown = next(x for x in (g, f, h) if x not in arr)
            raise CategoryFileError(f"compose line names unknown arrow {unknown}",
                                    comps[g][f]) from None
    return FinCategory(name, [ObjId(i, o) for o, i in obj.items()], arr_list, identity, table)


def _on(line: int | None) -> str:
    return "" if line is None else f" on line {line}"


def _identity_composites(arrows: Sequence[ArrId], identity: Sequence[int]) -> list[list[int]]:
    """The table whose only entries are id . f = f = f . id, for each arrow
    f and the identities of its ends."""
    table = [[UNDEFINED] * len(arrows) for _ in arrows]
    for f in arrows:
        table[identity[f.cod]][f.index] = f.index
        table[f.index][identity[f.dom]] = f.index
    return table


def format_category(c: FinCategory) -> str:
    """Render a category in the file format: :func:`parse_category` of the
    text gives back every category it returns, the same objects, arrows by
    index, identities and table.

    Arrows are written in index order, each identity's ``id`` line after its
    arrow line, except the trailing run of arrows ``id_<o>`` : o -> o that
    are the identity of o alone: those are ``id o = auto`` lines, in index
    order, as the parser adds them.  ``compose`` lines give every table
    entry that the identity composites do not.  A table undefined where they
    define it has no file, and raises ShapeMismatch.
    """
    arrows, table, identity = c.arrows, c.index().table, c.index().identity
    for f in arrows:
        for g, h in ((identity[f.cod], f.index), (f.index, identity[f.dom])):
            if table[g][h] == UNDEFINED:
                raise ShapeMismatch(
                    f"cannot write {c.name}: {arrows[g].name} . {arrows[h].name} is "
                    f"undefined, and the file format fills in every identity composite")
    names = [o.name for o in c.objects]
    owners: dict[int, list[str]] = {}  # the objects each identity arrow serves
    for o, i in zip(names, identity):
        owners.setdefault(i, []).append(o)

    def auto(a: ArrId) -> bool:
        o = names[a.dom]
        return a.dom == a.cod and owners.get(a.index) == [o] and a.name == f"id_{o}"

    run = len(arrows)
    while run and auto(arrows[run - 1]):
        run -= 1
    lines = [f"# category {c.name}: {len(c.objects)} objects, {len(arrows)} arrows"]
    lines += [f"object {o}" for o in names]
    for a in arrows[:run]:
        lines.append(f"arrow {a.name} : {names[a.dom]} -> {names[a.cod]}")
        lines += [f"id {o} = {a.name}" for o in owners.get(a.index, ())]
    lines += [f"id {names[a.dom]} = auto" for a in arrows[run:]]
    for g, row, given in zip(arrows, table, _identity_composites(arrows, identity)):
        lines += [f"compose {g.name} . {arrows[f].name} = {arrows[k].name}"
                  for f, k in enumerate(row) if k != given[f] and k != UNDEFINED]
    return "\n".join(lines) + "\n"


# -- generated models ----------------------------------------------------------

def gen_finset(k: int) -> FinCategory:
    """The skeleton of finite sets on the sizes 0..k, a non-thin category.

    Object ``s<m>`` is the set {0, ..., m-1}; the function m -> n sending i
    to v_i is the arrow ``fn_s<m>_s<n>_v<v_0...v_{m-1}>``, except that the
    identity functions are the ``auto`` arrows ``id_s<m>``.  Raises
    ScaleExceeded when it would have more than MAX_OBJECTS objects, or its
    file more than MAX_ARROW_LINES ``arrow`` lines (k = 4 needs 494).
    """
    if k < 0:
        raise ScaleExceeded("finset needs n >= 0")
    if k + 1 > MAX_OBJECTS:
        raise ScaleExceeded(f"finset-{k}: {k + 1} objects exceeds desk scale {MAX_OBJECTS}")
    sizes = range(k + 1)
    lines = sum(n ** m for m in sizes for n in sizes) - len(sizes)
    if lines > MAX_ARROW_LINES:
        raise ScaleExceeded(f"finset-{k} needs {lines} arrow lines, more than the "
                            f"desk-scale limit of {MAX_ARROW_LINES} (MAX_ARROW_LINES)")
    names = {}
    for m, n in itertools.product(sizes, sizes):
        for vals in itertools.product(range(n), repeat=m):
            names[(m, n, vals)] = (f"id_s{m}" if m == n and vals == tuple(range(m))
                                   else f"fn_s{m}_s{n}_v" + "".join(map(str, vals)))
    objects = [f"s{m}" for m in sizes]
    arrows = [(a, f"s{m}", f"s{n}") for (m, n, _), a in names.items()
              if not a.startswith("id_")]
    compositions = [(names[(n, p, g)], f_name, names[(m, p, tuple(map(g.__getitem__, f)))])
                    for (m, n, f), f_name in names.items() for p in sizes
                    for g in itertools.product(range(p), repeat=n)]
    return FinCategory.build(objects, arrows, identities="auto",
                             compositions=compositions, name=f"finset-{k}")
