"""Constructive redundancy certificates.

Two results are reproduced arrow by arrow rather than assumed:

* the distributivity comparison (A x B) + (A x C) -> A x (B + C) has an
  inverse built from exponential transposes alone, so demanding the inverse
  as a separate axiom is redundant;
* the comparison M(exists x. A x B) -> MA x M(exists x. B) (x not free in A)
  has an inverse theta(gamma) built from the co-universal arrow gamma of the
  transposed cocone, so the product-through-existential axiom is redundant.

Every mediating arrow is found by exhaustive hom-set search with a
uniqueness assertion, and every certificate stores the full provenance of
its composites so a failed equation can be replayed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import TYPE_CHECKING, NoReturn, Sequence

from .errors import CertificateFailure, MultipleMediators, NoMediator
from .kernel import ArrId, FinCategory, ObjId, mutually_inverse
from .logic import Formula, Times, free_vars
from .semantics import CoconeFamily, Instance, QuantifierSolution
from .structure import StructureTable

if TYPE_CHECKING:
    from .semantics import Interpretation


@dataclass(frozen=True)
class DeltaCertificate:
    """delta and its inverse for the triple (a, b, c).  The provenance and
    equation texts are formatted on first read."""
    triple: tuple[ObjId, ObjId, ObjId]
    delta: ArrId
    delta_inv: ArrId
    injections: tuple[ArrId, ArrId]   # of b + c, as delta used them
    ends: tuple[ObjId, ObjId]         # dom and cod of delta

    @cached_property
    def delta_provenance(self) -> str:
        a, (inj1, inj2) = self.triple[0].name, self.injections
        return f"copair(id_{a} x {inj1.name}, id_{a} x {inj2.name})"

    @cached_property
    def inverse_provenance(self) -> str:
        return (f"theta(copair(transpose(inj1 . swap), "
                f"transpose(inj2 . swap))) . swap_{self.triple[0].name}")

    @cached_property
    def equations(self) -> tuple[str, str]:
        delta, inv, (src, tgt) = self.delta.name, self.delta_inv.name, self.ends
        return (f"{inv} . {delta} = id_{src.name}", f"{delta} . {inv} = id_{tgt.name}")


@dataclass(frozen=True)
class InitialitySweep:
    vertexes_checked: int
    families_checked: int


@dataclass(frozen=True)
class FrobeniusCertificate:
    instance: Instance
    alpha: ArrId
    gamma: ArrId
    beta: ArrId
    alpha_provenance: str
    gamma_provenance: str
    beta_provenance: str
    equations: tuple[str, str]
    initiality: InitialitySweep


def _unique(cat: FinCategory, candidates: Sequence[ArrId], pred, what: str) -> ArrId:
    ms = [m for m in candidates if pred(m)]
    if not ms:
        raise NoMediator(f"no mediating arrow {what}")
    if len(ms) > 1:
        raise MultipleMediators(
            f"{len(ms)} mediating arrows {what}: {', '.join(m.name for m in ms)}")
    return ms[0]


# -- distributivity -----------------------------------------------------------------
#
# delta and its inverse are read from the pairing, copairing and transpose
# tables of the witnesses in the structure table and from the composition
# rows (``_delta``, ``_delta_inverse``).  Every stored witness is universal
# in a validated category, so each read is defined; a missing witness (a
# KeyError) runs the combinator chain below, which raises NoSuchStructure
# for the first witness it looks up and does not find.

def build_delta(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> ArrId:
    """The canonical (a x b) + (a x c) -> a x (b + c): copair of the two
    arrow products of the identity with a coproduct injection."""
    return st.cat.arrows[_delta(st, a.index, b.index, c.index)]


def build_delta_inverse(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> ArrId:
    """The inverse, built from exponentials only.

    With D = (a x b) + (a x c): transpose each injection (after swapping the
    product factors so the base sits on the right), copair the transposes
    into h : b + c -> D^a, then return theta(h) composed with the canonical
    factor swap, giving a x (b + c) -> D.
    """
    return st.cat.arrows[_delta_inverse(st, a.index, b.index, c.index)]


def _delta(st: StructureTable, a: int, b: int, c: int) -> int:
    t, n, products = st.cat.index().table, len(st.cat.arrows), st.products
    try:
        bc = st.coproducts[(b, c)]
        ab, ac, into = products[(a, b)], products[(a, c)], products[(a, bc.apex.index)].table
        # id_a x inj = <proj1, inj . proj2>, from a x b and from a x c
        left = into[ab.proj1.index * n + t[bc.inj1.index][ab.proj2.index]]
        right = into[ac.proj1.index * n + t[bc.inj2.index][ac.proj2.index]]
        return st.coproducts[(ab.apex.index, ac.apex.index)].table[left * n + right]
    except KeyError:
        pass
    _raise_from_chain(_delta_chain, st, a, b, c)


def _delta_inverse(st: StructureTable, a: int, b: int, c: int) -> int:
    t, n, no = st.cat.index().table, len(st.cat.arrows), len(st.cat.objects)
    products, coproducts, exponentials = st.products, st.coproducts, st.exponentials
    try:
        ab, ac, ba, ca = products[(a, b)], products[(a, c)], products[(b, a)], products[(c, a)]
        d_w = coproducts[(ab.apex.index, ac.apex.index)]
        # inj . swap, with swap = <proj2, proj1> : b x a -> a x b; likewise for c
        f1 = t[d_w.inj1.index][ab.table[ba.proj2.index * n + ba.proj1.index]]
        f2 = t[d_w.inj2.index][ac.table[ca.proj2.index * n + ca.proj1.index]]
        # the transposes b -> D^a and c -> D^a, and their copair h : b + c -> D^a
        ew = exponentials[(a, d_w.apex.index)]
        bc = coproducts[(b, c)]
        h = bc.table[ew.table[f1 * no + b] * n + ew.table[f2 * no + c]]
        # theta(h) = eval . (h x id_a) : (b + c) x a -> D, then . swap
        bca, sw = products[(bc.apex.index, a)], products[(a, bc.apex.index)]
        hxa = products[(ew.apex.index, a)].table[t[h][bca.proj1.index] * n + bca.proj2.index]
        return t[t[ew.eval.index][hxa]][bca.table[sw.proj2.index * n + sw.proj1.index]]
    except KeyError:
        pass
    _raise_from_chain(_delta_inverse_chain, st, a, b, c)


def _raise_from_chain(chain, st: StructureTable, *triple: int) -> NoReturn:
    """Run the combinator chain for a construction whose table reads missed a
    witness; the chain raises NoSuchStructure for the first one it looks up."""
    chain(st, *(st.cat.objects[i] for i in triple))
    raise AssertionError("the combinator chain succeeded where table reads failed")


def _delta_chain(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> ArrId:
    bc = st.coproduct(b, c)
    ida = st.identity(a)
    left = st.arrow_product(ida, bc.inj1)    # a x b -> a x (b + c)
    right = st.arrow_product(ida, bc.inj2)   # a x c -> a x (b + c)
    return st.copair(left, right)


def _delta_inverse_chain(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> ArrId:
    cat = st.cat
    ab = st.product(a, b)
    ac = st.product(a, c)
    d_w = st.coproduct(ab.apex, ac.apex)             # D = (a x b) + (a x c)
    inj1_sw = cat.compose(d_w.inj1, st.swap(b, a))   # b x a -> D
    inj2_sw = cat.compose(d_w.inj2, st.swap(c, a))   # c x a -> D
    t1 = st.transpose(inj1_sw, b, a)                 # b -> D^a
    t2 = st.transpose(inj2_sw, c, a)                 # c -> D^a
    h = st.copair(t1, t2)                            # b + c -> D^a
    bc_apex = st.coproduct(b, c).apex
    theta_h = st.theta(h, a, d_w.apex)               # (b + c) x a -> D
    return cat.compose(theta_h, st.swap(a, bc_apex))


def delta_certificate(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> DeltaCertificate:
    """Build both arrows and verify the two inverse equations exactly."""
    cat = st.cat
    delta = build_delta(st, a, b, c)
    inv = build_delta_inverse(st, a, b, c)
    if not mutually_inverse(cat, delta, inv):
        raise CertificateFailure(
            f"({a.name},{b.name},{c.name}): {inv.name} is not inverse to "
            f"{delta.name}: {inv.name}.{delta.name} = "
            f"{cat.compose(inv, delta).name}, {delta.name}.{inv.name} = "
            f"{cat.compose(delta, inv).name}")
    bc = st.coproduct(b, c)
    return DeltaCertificate((a, b, c), delta, inv, (bc.inj1, bc.inj2),
                            (cat.objects[delta.dom], cat.objects[delta.cod]))


# -- product through existential quantification ----------------------------------------

@dataclass(frozen=True)
class _FrobeniusContext:
    ma: ObjId
    sol_b: QuantifierSolution      # exists x. B with legs delta_t
    sol_ab: QuantifierSolution     # exists x. (A x B) with legs exI_t
    vertex: ObjId                  # MA x M(exists x. B)
    q_legs: tuple[ArrId, ...]      # id_MA x delta_t, in universe order


def _context(interp: "Interpretation", left: Formula, body: Formula,
             var: str, sort: str) -> _FrobeniusContext:
    if (var, sort) in free_vars(left):
        raise CertificateFailure(f"{var}:{sort} must not be free in {left}")
    st = interp.structure
    ma = interp.interpret(left)
    sol_b = interp.quantifier_solution("exists", var, sort, body)
    sol_ab = interp.quantifier_solution("exists", var, sort, Times(left, body))
    vertex = st.product(ma, sol_b.obj).apex
    ida = st.identity(ma)
    q_legs = tuple(st.arrow_product(ida, delta_t)
                   for _, delta_t in sol_b.family.legs)
    return _FrobeniusContext(ma, sol_b, sol_ab, vertex, q_legs)


def build_alpha(interp: "Interpretation", left: Formula, body: Formula,
                var: str, sort: str) -> ArrId:
    """The unique arrow M(exists x. A x B) -> MA x M(exists x. B) commuting
    with both cocones leg by leg."""
    return _alpha(interp.structure, _context(interp, left, body, var, sort))


def _alpha(st: StructureTable, ctx: _FrobeniusContext) -> ArrId:
    cat = st.cat
    ex_legs = tuple(arr for _, arr in ctx.sol_ab.family.legs)
    return _unique(
        cat, cat.hom(ctx.sol_ab.obj, ctx.vertex),
        lambda m: all(cat.compose(m, e) == q for e, q in zip(ex_legs, ctx.q_legs)),
        f"from {ctx.sol_ab.obj.name} to {ctx.vertex.name} commuting with "
        f"{len(ex_legs)} legs")


def build_gamma(interp: "Interpretation", left: Formula, body: Formula,
                var: str, sort: str, c: ObjId, p: CoconeFamily) -> ArrId:
    """The co-universal arrow M(exists x. B) -> C^MA mediating the cocone of
    transposed legs.

    Each leg p_t : MA x M(B[t/x]) -> C is swapped and transposed to
    M(B[t/x]) -> C^MA; the stored cocone of exists x. B then forces a unique
    mediator, found by search.
    """
    st = interp.structure
    cat = interp.cat
    ma = interp.interpret(left)
    if interp.reach is not None and c not in interp.reach:
        raise CertificateFailure(
            f"cocone vertex {c.name} is not reachable; the subcategory only "
            f"contains interpretations of closed formulas")
    sol_b = interp.quantifier_solution("exists", var, sort, body)
    exp_w = st.exponential(ma, c)

    transposed = []
    for (t, leg_obj_arr), (_, p_t) in zip(sol_b.family.legs, p.legs):
        w = cat.objects[leg_obj_arr.dom]  # M(B[t/x])
        swapped = cat.compose(p_t, st.swap(w, ma))  # w x MA -> C
        transposed.append(st.transpose(swapped, w, ma))

    delta_legs = tuple(arr for _, arr in sol_b.family.legs)
    return _unique(
        cat, cat.hom(sol_b.obj, exp_w.apex),
        lambda m: all(cat.compose(m, d) == tr
                      for d, tr in zip(delta_legs, transposed)),
        f"from {sol_b.obj.name} to {exp_w.apex.name} commuting with the "
        f"transposed legs")


def verify_frobenius(interp: "Interpretation", left: Formula, body: Formula,
                     var: str, sort: str) -> FrobeniusCertificate:
    """Build alpha and beta = theta(gamma), assert both inverse equations
    exactly, then sweep initiality: every reachable cocone vertex over the
    product diagram admits exactly one mediator out of MA x M(exists x. B).
    """
    st, cat = interp.structure, interp.cat
    ctx = _context(interp, left, body, var, sort)
    instance = Instance(left, body, var, sort)

    alpha = _alpha(st, ctx)

    # gamma for the cocone of exists x.(A x B) itself: p_t = exI_t
    gamma = build_gamma(interp, left, body, var, sort, ctx.sol_ab.obj, ctx.sol_ab.family)

    theta_gamma = st.theta(gamma, ctx.ma, ctx.sol_ab.obj)  # M(ex B) x MA -> M(ex AxB)
    beta = cat.compose(theta_gamma, st.swap(ctx.ma, ctx.sol_b.obj))

    comp_ab, comp_ba = cat.compose(alpha, beta), cat.compose(beta, alpha)
    if comp_ab != st.identity(ctx.vertex):
        raise CertificateFailure(
            f"{instance.describe()}: alpha . theta(gamma) = {comp_ab.name}, "
            f"expected id_{ctx.vertex.name} (alpha = {alpha.name}, "
            f"gamma = {gamma.name}, beta = {beta.name})")
    if comp_ba != st.identity(ctx.sol_ab.obj):
        raise CertificateFailure(
            f"{instance.describe()}: theta(gamma) . alpha = {comp_ba.name}, "
            f"expected id_{ctx.sol_ab.obj.name} (alpha = {alpha.name}, "
            f"gamma = {gamma.name}, beta = {beta.name})")

    return FrobeniusCertificate(
        instance, alpha, gamma, beta,
        alpha_provenance=(f"mediator({ctx.sol_ab.obj.name} -> {ctx.vertex.name} "
                          f"over {len(ctx.q_legs)} legs)"),
        gamma_provenance=(f"mediator({ctx.sol_b.obj.name} -> "
                          f"{ctx.sol_ab.obj.name}^{ctx.ma.name} over transposed legs)"),
        beta_provenance=f"theta({gamma.name}) . swap_{ctx.ma.name}",
        equations=(f"{alpha.name} . {beta.name} = id_{ctx.vertex.name}",
                   f"{beta.name} . {alpha.name} = id_{ctx.sol_ab.obj.name}"),
        initiality=_initiality_sweep(interp, ctx))


def _initiality_sweep(interp: "Interpretation", ctx: _FrobeniusContext) -> InitialitySweep:
    """MA x M(exists x. B) must mediate uniquely to every reachable cocone
    vertex over the product diagram: composing with its legs maps the arrows
    out of it to a vertex one-to-one onto the leg families at that vertex.
    A vertex counts as checked when it carries at least one leg family.
    """
    cat = interp.cat
    assert interp.reach is not None
    vertexes = interp.reach.objects
    miss = interp.structure.cone_miss(ctx.vertex, ctx.q_legs, vertexes, op=True)
    if miss is not None:
        v, fam, k = miss
        raise CertificateFailure(
            f"initiality fails at vertex {v.name}: {k} mediators "
            f"out of {ctx.vertex.name} for family "
            f"({', '.join(a.name for a in fam)})")
    families = [prod(len(cat.hom(cat.objects[q.dom], v)) for q in ctx.q_legs)
                for v in vertexes]
    return InitialitySweep(sum(1 for k in families if k), sum(families))
