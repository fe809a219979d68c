"""The substitution evaluator that environment evaluation replaced, kept as
the reference its answers, errors, warnings and quantifier solutions must
match.

``ReferenceInterpretation`` values a quantifier leg by building the instance
B[t/x] with ``substitute`` and keys its memos by ``alpha_key``; its reach
fixpoint resolves the pool the same way, and its quantifier search runs
the uncached cone search for every diagram it meets.  It shares with the engine only
the atom map, the term universe and the reach rules that did not change
(``_base_members``, ``_binary_closure``, ``_quantifier_pool``).
"""

from functools import partial
from typing import Sequence

from catlogic.errors import (
    MalformedInput,
    MissingAtom,
    NoQuantifierObject,
    NoSuchStructure,
)
from catlogic.kernel import ObjId
from catlogic.logic import (
    Arrow,
    Atom,
    Exists,
    Forall,
    Formula,
    One,
    Plus,
    Quantifier,
    Times,
    Zero,
    alpha_key,
    connective_depth,
    free_vars,
    substitute,
)
from catlogic.semantics import Interpretation, QuantifierSolution, ReachMember, ReachSet
from catlogic.structure import Cone, StructureTable, _indices, _universal_cone


def _find_cone(st: StructureTable, legs: Sequence[ObjId], among: Sequence[ObjId], *,
               op: bool = False) -> Cone:
    """``StructureTable.find_cone`` without its cache."""
    return _universal_cone(st._op if op else st._view, [o.index for o in legs], "",
                           _indices(among))


def ref_search_quantifier_object(st: StructureTable, vertexes: Sequence[ObjId],
                                 f: Quantifier, legs: Sequence[ObjId]) -> Cone:
    op = isinstance(f, Exists)
    ordered = sorted(set(vertexes), key=lambda o: o.index)
    try:
        return _find_cone(st, legs, ordered, op=op)
    except NoSuchStructure as exc:
        raise NoQuantifierObject(
            f"no {f.symbol} object over {f.body} among "
            f"{[o.name for o in ordered]}: {exc}") from None


class ReferenceInterpretation(Interpretation):
    """An Interpretation whose evaluator, memos and reach fixpoint are the
    substitution ones: ``memo`` and ``qmemo`` are keyed by ``alpha_key``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for key, sol in self.qmemo.items():
            self.memo[key] = (sol.formula, sol.family.apex)

    def interpret(self, f: Formula) -> ObjId:
        if free_vars(f):
            raise MalformedInput(f"interpret needs a closed formula, got {f}")
        return self._interpret(f)

    def _interpret(self, f: Formula) -> ObjId:
        key = alpha_key(f)
        hit = self.memo.get(key)
        if hit is not None:
            return hit[1]
        obj = self._clause(f, self._interpret, self.quantifier_solution)
        self.memo[key] = (f, obj)
        return obj

    def _clause(self, f: Formula, sub, quantify) -> ObjId:
        st = self.structure
        if isinstance(f, Zero):
            return st.initial_obj()
        if isinstance(f, One):
            return st.terminal_obj()
        if isinstance(f, Atom):
            if (f.rel, f.args) not in self.atom_map:
                raise MissingAtom(f"no interpretation for atom {f}")
            return self.atom_map[(f.rel, f.args)]
        if isinstance(f, (Times, Plus, Arrow)):
            find = {Times: st.product, Plus: st.coproduct, Arrow: st.exponential}[type(f)]
            return find(sub(f.left), sub(f.right)).apex
        if isinstance(f, (Forall, Exists)):
            return quantify(f).family.apex
        raise TypeError(f"not a formula: {f!r}")

    def quantifier_solution(self, formula: Forall | Exists) -> QuantifierSolution:
        if not isinstance(formula, Quantifier) or free_vars(formula):
            raise MalformedInput(f"quantifier_solution needs a closed forall or "
                                 f"exists formula, got {formula}")
        key = alpha_key(formula)
        hit = self.qmemo.get(key)
        if hit is not None:
            return hit
        return self._solve(formula, key, self._interpret, self.reach.objects, self.qmemo)

    def _solve(self, f: Forall | Exists, key: tuple, sub, vertexes: Sequence[ObjId],
               solved: dict[tuple, QuantifierSolution]) -> QuantifierSolution:
        if key not in solved:
            legs = self._diagram(f.body, f.var, f.sort, sub)
            family = ref_search_quantifier_object(self.structure, vertexes, f, legs)
            solved[key] = QuantifierSolution(f, family)
        return solved[key]

    def _diagram(self, body: Formula, var: str, sort: str, sub) -> list[ObjId]:
        return [sub(substitute(body, t, var)) for t in self.universe.terms(sort)]

    def _build_reach(self) -> list[str]:
        pool = self._quantifier_pool()
        qbeliefs: dict[tuple, QuantifierSolution] = {}
        members: dict[int, ReachMember] = {}
        failures: list[str] = []

        for _ in range(len(self.cat.objects) + 2):
            members = self._base_members()
            self._binary_closure(members)
            for sol in qbeliefs.values():
                if sol.family.apex.index not in members:
                    members[sol.family.apex.index] = ReachMember(
                        sol.family.apex, sol.formula, connective_depth(sol.formula))
            self._binary_closure(members)

            qnew: dict[tuple, QuantifierSolution] = {}
            vertexes = [m.obj for m in members.values()]
            failures = []
            for f in sorted(pool, key=connective_depth):
                try:
                    self._resolve(f, vertexes, qnew)
                except (NoQuantifierObject, NoSuchStructure, MissingAtom) as exc:
                    failures.append(f"{f}: {exc}")
            stable = (qnew.keys() == qbeliefs.keys()
                      and all(qnew[k].family.apex == qbeliefs[k].family.apex for k in qnew))
            qbeliefs = qnew
            if stable:
                break
        else:
            self.warnings.append("reach fixpoint did not stabilize within the "
                                 "object-count bound; results use the last round")

        self.reach = ReachSet(tuple(members.values()))
        self.qmemo = qbeliefs
        return failures

    def _resolve(self, f: Formula, vertexes: list[ObjId],
                 solved: dict[tuple, QuantifierSolution]) -> ObjId:
        sub = partial(self._resolve, vertexes=vertexes, solved=solved)
        return self._clause(f, sub, lambda q: self._solve(q, alpha_key(q), sub, vertexes, solved))
