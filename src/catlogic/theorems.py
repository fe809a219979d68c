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
from math import prod
from typing import TYPE_CHECKING, Sequence

from .errors import CertificateFailure, MultipleMediators, NoMediator
from .kernel import ArrId, FinCategory, ObjId, mutually_inverse
from .logic import Formula, Times, free_vars
from .semantics import CoconeFamily, Instance, QuantifierSolution
from .structure import StructureTable

if TYPE_CHECKING:
    from .semantics import Interpretation


@dataclass(frozen=True)
class DeltaCertificate:
    triple: tuple[ObjId, ObjId, ObjId]
    delta: ArrId
    delta_inv: ArrId
    delta_provenance: str
    inverse_provenance: str
    equations: tuple[str, str]


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

def build_delta(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> ArrId:
    """The canonical (a x b) + (a x c) -> a x (b + c): copair of the two
    arrow products of the identity with a coproduct injection."""
    bc = st.coproduct(b, c)
    ida = st.identity(a)
    left = st.arrow_product(ida, bc.inj1)    # a x b -> a x (b + c)
    right = st.arrow_product(ida, bc.inj2)   # a x c -> a x (b + c)
    return st.copair(left, right)


def build_delta_inverse(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> ArrId:
    """The inverse, built from exponentials only.

    With D = (a x b) + (a x c): transpose each injection (after swapping the
    product factors so the base sits on the right), copair the transposes
    into h : b + c -> D^a, then return theta(h) composed with the canonical
    factor swap, giving a x (b + c) -> D.
    """
    cat = st.cat
    ab = st.product(a, b)
    ac = st.product(a, c)
    d_w = st.coproduct(ab.apex, ac.apex)
    d = d_w.apex

    inj1_sw = cat.compose(d_w.inj1, st.swap(b, a))   # b x a -> D
    inj2_sw = cat.compose(d_w.inj2, st.swap(c, a))   # c x a -> D
    t1 = st.transpose(inj1_sw, b, a)                 # b -> D^a
    t2 = st.transpose(inj2_sw, c, a)                 # c -> D^a
    h = st.copair(t1, t2)                            # b + c -> D^a

    bc_apex = st.coproduct(b, c).apex
    theta_h = st.theta(h, a, d)                      # (b + c) x a -> D
    return cat.compose(theta_h, st.swap(a, bc_apex))


def delta_certificate(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> DeltaCertificate:
    """Build both arrows and verify the two inverse equations exactly."""
    cat = st.cat
    delta = build_delta(st, a, b, c)
    inv = build_delta_inverse(st, a, b, c)
    if not (delta.dom == inv.cod and delta.cod == inv.dom):
        raise CertificateFailure(
            f"delta {delta.name} and its construction {inv.name} have "
            f"mismatched endpoints on ({a.name},{b.name},{c.name})")
    if not mutually_inverse(cat, delta, inv):
        raise CertificateFailure(
            f"({a.name},{b.name},{c.name}): {inv.name} is not inverse to "
            f"{delta.name}: {inv.name}.{delta.name} = "
            f"{cat.compose(inv, delta).name}, {delta.name}.{inv.name} = "
            f"{cat.compose(delta, inv).name}")
    bc = st.coproduct(b, c)
    src = cat.objects[delta.dom]
    tgt = cat.objects[delta.cod]
    return DeltaCertificate(
        (a, b, c), delta, inv,
        delta_provenance=(f"copair(id_{a.name} x {bc.inj1.name}, "
                          f"id_{a.name} x {bc.inj2.name})"),
        inverse_provenance=(f"theta(copair(transpose(inj1 . swap), "
                            f"transpose(inj2 . swap))) . swap_{a.name}"),
        equations=(f"{inv.name} . {delta.name} = id_{src.name}",
                   f"{delta.name} . {inv.name} = id_{tgt.name}"))


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
    ctx = _context(interp, left, body, var, sort)
    cat = interp.cat
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
    st = interp.structure
    cat = interp.cat
    ctx = _context(interp, left, body, var, sort)
    instance = Instance(left, body, var, sort)

    alpha = build_alpha(interp, left, body, var, sort)

    # gamma for the cocone of exists x.(A x B) itself: p_t = exI_t
    p = CoconeFamily(ctx.sol_ab.obj, ctx.sol_ab.family.legs)
    gamma = build_gamma(interp, left, body, var, sort, ctx.sol_ab.obj, p)

    theta_gamma = st.theta(gamma, ctx.ma, ctx.sol_ab.obj)  # M(ex B) x MA -> M(ex AxB)
    beta = cat.compose(theta_gamma, st.swap(ctx.ma, ctx.sol_b.obj))

    id_vertex = st.identity(ctx.vertex)
    id_exab = st.identity(ctx.sol_ab.obj)
    comp_ab = cat.compose(alpha, beta)
    comp_ba = cat.compose(beta, alpha)
    if comp_ab != id_vertex:
        raise CertificateFailure(
            f"{instance.describe()}: alpha . theta(gamma) = {comp_ab.name}, "
            f"expected id_{ctx.vertex.name} (alpha = {alpha.name}, "
            f"gamma = {gamma.name}, beta = {beta.name})")
    if comp_ba != id_exab:
        raise CertificateFailure(
            f"{instance.describe()}: theta(gamma) . alpha = {comp_ba.name}, "
            f"expected id_{ctx.sol_ab.obj.name} (alpha = {alpha.name}, "
            f"gamma = {gamma.name}, beta = {beta.name})")

    # diagram commutation, re-asserted post-construction
    for (t, e), q in zip(ctx.sol_ab.family.legs, ctx.q_legs):
        if cat.compose(alpha, e) != q:
            raise CertificateFailure(
                f"{instance.describe()}: alpha fails to commute at leg {t}")

    sweep = _initiality_sweep(interp, ctx)

    return FrobeniusCertificate(
        instance, alpha, gamma, beta,
        alpha_provenance=(f"mediator({ctx.sol_ab.obj.name} -> {ctx.vertex.name} "
                          f"over {len(ctx.q_legs)} legs)"),
        gamma_provenance=(f"mediator({ctx.sol_b.obj.name} -> "
                          f"{ctx.sol_ab.obj.name}^{ctx.ma.name} over transposed legs)"),
        beta_provenance=f"theta({gamma.name}) . swap_{ctx.ma.name}",
        equations=(f"{alpha.name} . {beta.name} = id_{ctx.vertex.name}",
                   f"{beta.name} . {alpha.name} = id_{ctx.sol_ab.obj.name}"),
        initiality=sweep)


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
