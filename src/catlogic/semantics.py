"""The interpretation map, the reachable set, quantifier diagrams and their
cone/cocone searches, and the seven condition checkers.

A quantifier object is searched, never assumed: it is the apex of a
universal ``structure.Cone`` over the diagram (a cocone for exists), which
admits exactly one leg-commuting arrow from (resp. to) every reachable
vertex, and it is named by its closed formula, which gives the side, sort
and body.  Candidate vertexes are restricted to the reachable set, the
decidable stand-in for "interpretation of some closed formula", and each
reachable object carries the closed formula that witnesses it.

The reachable set is the closure of 0, 1 and the atom images under
product, coproduct and exponential apexes, to connective depth ``--reach``;
round d of the closure adds exactly the members of depth d.  Quantifier
objects are searched in it, so they never enlarge it.  An Interpretation
builds it, at the reach depth it is built with, so every Interpretation
answers quantified queries; another depth is another one.

One map, ``_STORES``, gives the structure store of each connective, for the
clauses and the reach closure alike.  The memo keys a value by the formula
object, one per formula (``logic``), and its free variables' closed terms.
Each condition check yields its failures as (FAIL or BLOCKED, detail)
outcomes, and one rule, ``_verdict``, turns them into its verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import theorems
from .errors import (
    MalformedInput,
    MissingAtom,
    MultipleMediators,
    NoMediator,
    NoQuantifierObject,
    NoSuchStructure,
    ShapeMismatch,
    TheoryFileError,
)
from .kernel import ObjId, inverses
from .logic import (
    Arrow,
    Atom,
    AtomKey,
    Binary,
    Exists,
    Forall,
    Formula,
    One,
    Plus,
    Quantifier,
    Term,
    Theory,
    Times,
    Var,
    Zero,
    alpha_key,
    canonical_var,
    connective_depth,
    enumerate_closed_terms,
    free_vars,
    subformulas,
    substitute,
)
from .structure import Cone, StructureTable

DEFAULT_REACH_DEPTH = 3

# the structure store of each connective: the value of a formula is the
# apex of the witness stored under the values of its two operands
_STORES = {Times: "products", Plus: "coproducts", Arrow: "exponentials"}


@dataclass(frozen=True)
class ReachMember:
    obj: ObjId
    provenance: Formula
    depth: int


@dataclass
class ReachSet:
    """Objects witnessed as interpretations of closed formulas of depth <= k."""
    members: tuple[ReachMember, ...]

    @cached_property
    def objects(self) -> tuple[ObjId, ...]:
        return tuple(m.obj for m in self.members)

    def __contains__(self, obj: ObjId) -> bool:
        return obj in self.objects


@dataclass(frozen=True)
class QuantifierSolution:
    formula: Quantifier  # closed
    family: Cone  # a cocone for exists; one leg per closed term of the sort


@dataclass(frozen=True)
class Instance:
    """One (A, B, x:s) triple for the product-through-existential checks."""
    left: Formula   # closed; x not free in it
    body: Formula   # at most x:s free
    var: str
    sort: str

    def describe(self) -> str:
        return f"A = {self.left} ; B = {self.body} ; {self.var}:{self.sort}"

    @property
    def existentials(self) -> tuple[Exists, Exists]:
        """exists x. (A & B) and exists x. B, the comparison arrow's ends."""
        return (Exists(self.var, self.sort, Times(self.left, self.body)),
                Exists(self.var, self.sort, self.body))


# -- quantifier object search ----------------------------------------------------

def search_quantifier_object(st: StructureTable, vertexes: Sequence[ObjId],
                             f: Quantifier, legs: Sequence[ObjId]) -> Cone:
    """The terminal cone (``f`` a forall) or initial cocone (an exists) over
    ``f``'s leg objects, in their order, with the apex and the test objects
    taken from the given vertexes (``StructureTable.find_cone``): each leg
    family at each vertex then has exactly one mediator, and ties between
    isomorphic candidates break by index.  The texts name ``f``'s sort and
    body; NoQuantifierObject gives the count that refutes every candidate.
    """
    try:
        return st.find_cone(legs, vertexes, op=isinstance(f, Exists))
    except NoSuchStructure as exc:
        ordered = sorted(set(vertexes), key=lambda o: o.index)
        raise NoQuantifierObject(
            f"no {f.symbol} object over {f.body} among "
            f"{[o.name for o in ordered]}: {exc}") from None


def revalidate_quantifier(st: StructureTable, vertexes: Sequence[ObjId],
                          sol: QuantifierSolution) -> str | None:
    """Re-assert a stored solution against ``vertexes``: the reach, the
    vertex set the solution was found in.

    Returns None when still valid, else the failure description.
    """
    miss = st.cone_miss(sol.family, vertexes)
    if miss is None:
        return None
    w, _, k = miss
    side = "out of" if sol.family.op else "into"
    return f"vertex {w.name} has {k} leg-commuting arrows {side} it"


# -- the interpretation ------------------------------------------------------------

# An environment: (variable, closed term) pairs, the innermost binding last.
_Env = tuple[tuple[str, Term], ...]


def _bound(env: _Env, name: str) -> Term:
    for var, t in reversed(env):
        if var == name:
            return t


def _instance(f: Formula, terms: tuple[Term, ...]) -> Formula:
    """``f`` with ``terms`` put for its free variables, in ``f.fv`` order."""
    for (name, _), t in zip(f.fv, terms):
        f = substitute(f, t, name)
    return f


class Interpretation:
    """The map from formulas to objects, with its memo and reachable set.

    The constructor builds the reachable set to depth ``reach_depth`` (see
    the module docstring), then solves the quantifier pool among it with the
    evaluator the queries use, keeping the solutions (``qmemo``) and not
    the values (``memo``); every query is read-only apart from memo fills,
    which are deterministic.  A formula is valued under an environment of
    closed terms and memoized by itself and the terms its free variables
    take: a quantifier leg is its body under one more binding, and a closed
    instance B[t/x] is built only for an atom's lookup, a quantified
    formula's alpha key (``qmemo``) and solution, and error messages.  A
    quantifier object is named by its closed formula
    (``quantifier_solution``), whose sort must be declared.
    """

    def __init__(self, structure: StructureTable, theory: Theory, *,
                 reach_depth: int = DEFAULT_REACH_DEPTH,
                 universe_depth: int | None = None):
        self.structure = structure
        self.cat = structure.cat
        self.theory = theory
        self.reach_depth = reach_depth
        self.universe = enumerate_closed_terms(
            theory.signature, theory.depth if universe_depth is None else universe_depth)
        self.warnings: list[str] = []
        for s in self.universe.empty_sorts:
            self.warnings.append(f"sort {s} has no closed terms up to depth "
                                 f"{self.universe.depth}; quantifier diagrams "
                                 f"over it are empty")
        if not self.universe.saturated:
            self.warnings.append(
                f"term universe not saturated at depth {self.universe.depth}: "
                f"deeper terms exist and all quantifier claims are relative "
                f"to the enumerated universe")

        self.atom_map: dict[AtomKey, ObjId] = {}
        for key, objname in theory.atom_interp.items():
            try:
                self.atom_map[key] = self.cat.obj(objname)
            except MalformedInput as exc:
                raise TheoryFileError(str(exc), theory.lines.get(key)) from None
        self._check_atom_coverage()

        self.memo: dict[tuple[Formula, tuple[Term, ...]], ObjId] = {}
        self.qmemo: dict[tuple, QuantifierSolution] = {}
        self.reach_failures = self._build_reach()
        # the pool's solutions stay, its values go: condition 6 re-walks every memo entry
        self.memo.clear()

    def _check_atom_coverage(self) -> None:
        missing = []
        for rel in self.theory.signature.relations:
            pools = [self.universe.terms(s) for s in rel.arg_sorts]
            for combo in itertools.product(*pools):
                if (rel.name, tuple(combo)) not in self.atom_map:
                    missing.append(str(Atom(rel.name, tuple(combo))))
        if missing:
            raise MissingAtom(
                f"atom interpretation does not cover every closed instance; "
                f"missing: {', '.join(missing)}")

    # -- the evaluator ---------------------------------------------------------------

    def interpret(self, f: Formula) -> ObjId:
        if free_vars(f):
            raise MalformedInput(f"interpret needs a closed formula, got {f}")
        return self._value(f, ())

    def _value(self, f: Formula, env: _Env) -> ObjId:
        terms = tuple([_bound(env, name) for name, _ in f.fv]) if f.fv else ()
        key = (f, terms)
        obj = self.memo.get(key)
        if obj is None:
            obj = self.memo[key] = self._clause(f, env, terms)
        return obj

    def _clause(self, f: Formula, env: _Env, terms: tuple[Term, ...]) -> ObjId:
        """The object the clause for the outermost connective of ``f`` gives
        under ``env`` (whose values at ``f``'s free variables are
        ``terms``), with each direct subformula valued through the memo."""
        st = self.structure
        if isinstance(f, Binary):
            a, b = self._value(f.left, env), self._value(f.right, env)
            return getattr(st, _STORES[type(f)])[(a.index, b.index)].apex
        if isinstance(f, Quantifier):
            return self._solution(f, env, terms).family.apex
        if isinstance(f, Atom):
            a = _instance(f, terms)
            obj = self.atom_map.get((a.rel, a.args))
            if obj is None:
                raise MissingAtom(f"no interpretation for atom {a}")
            return obj
        return st.initial_obj() if isinstance(f, Zero) else st.terminal_obj()

    def quantifier_solution(self, f: Quantifier) -> QuantifierSolution:
        """The quantifier object of the closed forall or exists ``f``."""
        if not isinstance(f, Quantifier) or f.fv:
            raise MalformedInput(
                f"quantifier_solution needs a closed forall or exists formula, got {f}")
        return self._solution(f, (), ())

    def _solution(self, f: Quantifier, env: _Env, terms: tuple[Term, ...]) -> QuantifierSolution:
        """The quantifier object of ``f`` under ``env``, found among the
        reach over the diagram of its body's values under ``env`` extended
        by var -> t, one leg per closed term t in universe order; kept in
        ``qmemo`` under the alpha key of the closed formula."""
        closed = _instance(f, terms)
        key = alpha_key(closed)
        sol = self.qmemo.get(key)
        if sol is None:
            if f.sort not in self.theory.signature._sort_positions:
                raise MalformedInput(f"undeclared sort {f.sort} in {closed}")
            legs = [self._value(f.body, env + ((f.var, t),))
                    for t in self.universe.terms(f.sort)]
            cone = search_quantifier_object(self.structure, self.reach.objects, closed, legs)
            sol = self.qmemo[key] = QuantifierSolution(closed, cone)
        return sol

    # -- the reachable set ------------------------------------------------------------

    def _base_members(self) -> dict[int, ReachMember]:
        st = self.structure
        base = [(w.apex, f) for w, f in ((st.initial, Zero()), (st.terminal, One()))
                if w is not None]
        base += [(obj, Atom(rel, args)) for (rel, args), obj in self.atom_map.items()]
        members: dict[int, ReachMember] = {}
        for obj, prov in base:
            members.setdefault(obj.index, ReachMember(obj, prov, 0))
        return members

    def _binary_closure(self, members: dict[int, ReachMember]) -> None:
        """Close the depth-0 base ``members``: round d = 1 .. reach_depth adds the
        apexes of the stored witnesses over two members, one of them added by
        round d - 1 (every other pair was tried before); a round adding none ends it."""
        stores = [(kind, getattr(self.structure, name)) for kind, name in _STORES.items()]
        new: list[ReachMember] = []  # the members the last round added
        for d in range(1, self.reach_depth + 1):
            snapshot = list(members.values())
            for m1 in snapshot:
                for m2 in (snapshot if m1.depth == d - 1 else new):
                    for kind, store in stores:
                        w = store.get((m1.obj.index, m2.obj.index))
                        if w is not None and w.apex.index not in members:
                            members[w.apex.index] = ReachMember(
                                w.apex, kind(m1.provenance, m2.provenance), d)
            new = list(members.values())[len(snapshot):]
            if not new:
                break

    def _quantifier_pool(self) -> list[Formula]:
        sig = self.theory.signature
        pool: dict[tuple, Formula] = {}  # closed formulas by alpha key

        def add(f: Formula) -> None:
            if connective_depth(f) <= self.reach_depth and not f.fv:
                pool.setdefault(alpha_key(f), f)

        positions = sig._sort_positions
        for rel in sig.relations:
            # the declared sorts of its arguments, in signature order
            for sort in sorted({s for s in rel.arg_sorts if s in positions},
                               key=positions.__getitem__):
                v = Var(canonical_var(sig, sort), sort)
                slot_pools = []
                for s in rel.arg_sorts:
                    opts: list[Term] = list(self.universe.terms(s))
                    if s == sort:
                        opts.append(v)
                    slot_pools.append(opts)
                for combo in itertools.product(*slot_pools):
                    if not any(t == v for t in combo):
                        continue
                    atom = Atom(rel.name, tuple(combo))
                    add(Forall(v.name, sort, atom))
                    add(Exists(v.name, sort, atom))

        for f in sig.axioms:
            for sub in subformulas(f):
                if isinstance(sub, Quantifier):
                    add(sub)
        return list(pool.values())

    def _build_reach(self) -> list[str]:
        """Set the reach to the binary closure of the base members, then solve the pooled
        quantifier formulas among it (an apex is a vertex, so no new member); their failures."""
        members = self._base_members()
        self._binary_closure(members)
        self.reach = ReachSet(tuple(members.values()))
        failures = []
        for f in sorted(self._quantifier_pool(), key=connective_depth):
            try:
                self._value(f, ())
            except (NoQuantifierObject, NoSuchStructure, MissingAtom) as exc:
                failures.append(f"{f}: {exc}")
        return failures


def build_interpretation(structure: StructureTable, theory: Theory, *,
                         reach_depth: int = DEFAULT_REACH_DEPTH,
                         universe_depth: int | None = None) -> Interpretation:
    return Interpretation(structure, theory, reach_depth=reach_depth,
                          universe_depth=universe_depth)


# -- the instance suite -------------------------------------------------------------

# at most this many closed left formulas besides 1, and open bodies
MAX_LEFT = 4
MAX_BODY = 4


def derive_instances(theory: Theory) -> tuple[Instance, ...]:
    """The checked (A, B, x:s) set, derived deterministically from the axioms.

    A ranges over 1 plus closed subformulas (depth <= 2), B over subformulas
    with exactly one free variable; one constant-diagram instance (closed B)
    is appended when two closed atoms exist.
    """
    sig = theory.signature
    closed_pool: list[Formula] = [One()]
    open_pool: list[tuple[Formula, str, str]] = []
    seen_closed = {alpha_key(One())}
    seen_open: set[tuple] = set()
    closed_atoms: list[Formula] = []

    for ax in sig.axioms:
        for sub in subformulas(ax):
            fv = free_vars(sub)
            if not fv:
                if isinstance(sub, Atom) and sub not in closed_atoms:
                    closed_atoms.append(sub)
                key = alpha_key(sub)
                if (key not in seen_closed and connective_depth(sub) <= 2
                        and len(closed_pool) < 1 + MAX_LEFT):
                    seen_closed.add(key)
                    closed_pool.append(sub)
            elif len(fv) == 1:
                (name, sort), = fv
                key = alpha_key(Exists(name, sort, sub))
                if key not in seen_open and len(open_pool) < MAX_BODY:
                    seen_open.add(key)
                    open_pool.append((sub, name, sort))

    instances = [Instance(a, b, var, sort)
                 for a in closed_pool for (b, var, sort) in open_pool]
    if len(closed_atoms) >= 2 and sig.sorts:
        var = canonical_var(sig, sig.sorts[0])
        instances.append(Instance(closed_atoms[0], closed_atoms[1],
                                  var, sig.sorts[0]))
    return tuple(instances)


# -- the seven conditions --------------------------------------------------------------

@dataclass(frozen=True)
class ConditionVerdict:
    number: int
    name: str
    status: str  # PASS | FAIL | BLOCKED
    details: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


@dataclass
class ConditionReport:
    verdicts: tuple[ConditionVerdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, number: int) -> ConditionVerdict:
        for v in self.verdicts:
            if v.number == number:
                return v
        raise KeyError(number)


def check_conditions(interp: Interpretation) -> ConditionReport:
    """Verdicts for all seven defining conditions, with witnesses for failures."""
    st = interp.structure
    verdicts = []
    # (1) finite products: terminal object plus all binary products;
    # (2) finite coproducts: initial object plus all binary coproducts;
    # (3) exponentiation for every (base, target) pair
    for number, name, failures, missing in (
            (1, "products", st.product_failures, st.terminal_failure),
            (2, "coproducts", st.coproduct_failures, st.initial_failure),
            (3, "exponentials", st.exponential_failures, None)):
        details = ([missing] if missing else []) + [msg for _, msg in sorted(failures.items())]
        verdicts.append(_verdict(number, name, [("FAIL", d) for d in details], None))
    # (4) to (7), in order: condition 6 re-walks the memo that condition 5 fills
    verdicts += [distributivity_verdict(st, interp.reach.objects),
                 _verdict(5, "quantifier-objects", _quantifier_outcomes(interp), MAX_DETAILS),
                 _verdict(6, "interpretation-clauses", _clause_outcomes(interp), MAX_DETAILS),
                 _verdict(7, "frobenius", _frobenius_outcomes(interp), MAX_DETAILS)]
    return ConditionReport(tuple(verdicts))


# a condition's failures as they are found: (FAIL or BLOCKED, detail)
_Outcomes = Iterable[tuple[str, str]]
# the most details conditions 4 to 7 report
MAX_DETAILS = 16


def _verdict(number: int, name: str, outcomes: _Outcomes, cap: int | None) -> ConditionVerdict:
    """The verdict on ``(status, detail)`` outcomes, each status FAIL or
    BLOCKED: FAIL if any outcome fails, else BLOCKED if there is any, else
    PASS; the first ``cap`` details (all if None) in the order found."""
    outcomes = list(outcomes)
    found = {status for status, _ in outcomes}
    status = "FAIL" if "FAIL" in found else "BLOCKED" if found else "PASS"
    return ConditionVerdict(number, name, status, tuple(d for _, d in outcomes[:cap]))


def distributivity_verdict(st: StructureTable, objects: Sequence[ObjId]) -> ConditionVerdict:
    """Condition 4 over every triple of ``objects``: the canonical arrow
    (a x b) + (a x c) -> a x (b + c) has exactly one inverse, found by scanning
    every arrow back once per distinct delta arrow (independent of the
    constructive inverse in the theorems module)."""
    return _verdict(4, "distributivity", _distributivity_outcomes(st, objects), MAX_DETAILS)


def _distributivity_outcomes(st: StructureTable, objects: Sequence[ObjId]) -> _Outcomes:
    found: dict[int, int] = {}  # delta's arrow index -> its number of inverses
    for a in objects:
        for b in objects:
            for c in objects:
                try:
                    delta = theorems.build_delta(st, a, b, c)
                except NoSuchStructure as exc:
                    yield "BLOCKED", f"({a.name},{b.name},{c.name}): {exc}"
                    continue
                k = found.get(delta.index)
                if k is None:
                    k = found[delta.index] = len(inverses(st.cat, delta))
                if k != 1:
                    yield "FAIL", f"({a.name},{b.name},{c.name}): {k} inverses for {delta.name}"


def _quantifier_outcomes(interp: Interpretation) -> _Outcomes:
    """(5) quantifier objects for every closed quantified subformula of the
    checked set, each once up to renaming of bound variables."""
    quantified: dict[tuple, Formula] = {}
    for f in checked_formulas(interp):
        for sub in subformulas(f):
            if isinstance(sub, Quantifier) and not sub.fv:
                quantified.setdefault(alpha_key(sub), sub)
    for sub in quantified.values():
        try:  # not through ``interpret``, so this work is not counted as queries
            interp._value(sub, ())
        except NoQuantifierObject as exc:
            yield "FAIL", f"{sub}: {exc}"
        except (NoSuchStructure, MissingAtom) as exc:
            yield "BLOCKED", f"{sub}: {exc}"


def _clause_outcomes(interp: Interpretation) -> _Outcomes:
    """(6) the interpretation clauses, re-asserted over everything memoized:
    ``memo`` and ``atom_map`` are public, so their entries may have moved.
    Each stored quantifier solution is re-checked against the reach, the
    vertex set it was found in, so that check fails only after an edit of
    the public ``qmemo``: a cone whose legs do not leave its apex (a cocone's
    do not enter it) is a FAIL too."""
    st = interp.structure
    try:
        for constant, end in ((Zero(), "initial"), (One(), "terminal")):
            if interp.interpret(constant) != getattr(st, end).apex:
                yield "FAIL", f"value of {constant} is not the {end} object"
    except NoSuchStructure as exc:
        yield "BLOCKED", str(exc)
    # a quantified formula's clause is its stored solution, re-checked below
    for (f, terms), obj in list(interp.memo.items()):
        if isinstance(f, Quantifier):
            continue
        try:
            env = tuple((name, t) for (name, _), t in zip(f.fv, terms))
            want = interp._clause(f, env, terms)
        except (NoSuchStructure, MissingAtom, NoQuantifierObject):
            continue
        if want != obj:
            yield "FAIL", (f"memo holds {obj.name} for {_instance(f, terms)}, "
                           f"clauses give {want.name}")
    for sol in interp.qmemo.values():
        try:
            bad = revalidate_quantifier(st, interp.reach.objects, sol)
        except ShapeMismatch as exc:
            yield "FAIL", f"{sol.formula}: stored quantifier object is malformed: {exc}"
            continue
        if bad:
            yield "FAIL", (f"{sol.formula}: stored quantifier object "
                           f"{sol.family.apex.name} no longer unique: {bad}")


def _frobenius_outcomes(interp: Interpretation) -> _Outcomes:
    """(7) the product-through-existential comparison arrow has an inverse,
    checked by building the mediating arrow and searching for an inverse."""
    for inst in derive_instances(interp.theory):
        try:
            alpha = theorems.build_alpha(interp, inst)
        except (NoQuantifierObject, NoSuchStructure, MissingAtom,
                NoMediator, MultipleMediators) as exc:
            yield "BLOCKED", f"{inst.describe()}: {exc}"
            continue
        invs = inverses(interp.cat, alpha)
        if len(invs) != 1:
            yield "FAIL", f"{inst.describe()}: {len(invs)} inverses for {alpha.name}"


def checked_formulas(interp: Interpretation) -> tuple[Formula, ...]:
    """Axioms plus the formulas induced by the derived instance suite."""
    out: list[Formula] = list(interp.theory.signature.axioms)
    for inst in derive_instances(interp.theory):
        out.extend(inst.existentials)
    return tuple(out)
