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

from .errors import CertificateFailure, MultipleMediators, NoMediator, UniversalityBroken
from .kernel import UNDEFINED, ArrId, FinCategory, ObjId, mutually_inverse
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
# delta and its inverse are computed from the pairing, copairing and
# transpose tables of the witnesses in the structure table at call time and
# from the composition rows (``_delta``, ``_delta_inverse``).  They make
# every check the combinator chains below make.  When one fails -- a
# witness or table entry is missing (a KeyError), a witness with no table
# fails verification, or endpoints do not match -- the chain is run only to
# raise the error of its first failing step.

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
    t, _, dom, cod, ids = st.cat.index()
    n, products, table_of = len(t), st.products, st.table_of
    try:
        bc = st.coproducts[(b, c)]
        ida, i1, i2 = ids[a], bc.inj1.index, bc.inj2.index
        # id_a x inj = <id_a . proj1, inj . proj2>, from a x b and from a x c
        s1, p1 = products[(dom[ida], dom[i1])], products[(cod[ida], cod[i1])]
        s2, p2 = products[(dom[ida], dom[i2])], products[(cod[ida], cod[i2])]
        if s1.table is None or s2.table is None:  # as arrow_product verifies its source
            table_of(s1)
            table_of(s2)
        left = (p1.table or table_of(p1))[t[ida][s1.proj1.index] * n + t[i1][s1.proj2.index]]
        right = (p2.table or table_of(p2))[t[ida][s2.proj1.index] * n + t[i2][s2.proj2.index]]
        if cod[left] == cod[right]:  # the copair's endpoint check
            cw = st.coproducts[(dom[left], dom[right])]
            return (cw.table or table_of(cw))[left * n + right]
    except (KeyError, UniversalityBroken):
        pass
    _raise_from_chain(_delta_chain, st, a, b, c)


def _delta_inverse(st: StructureTable, a: int, b: int, c: int) -> int:
    t, _, dom, cod, ids = st.cat.index()
    n, no, table_of = len(t), len(st.cat.objects), st.table_of
    products, coproducts, exponentials = st.products, st.coproducts, st.exponentials
    try:
        ab, ac = products[(a, b)], products[(a, c)]
        d_w = coproducts[(ab.apex.index, ac.apex.index)]
        # swap = <proj2, proj1> : b x a -> a x b, then inj1 . swap; likewise for c
        ba, ca = products[(b, a)], products[(c, a)]
        if ba.table is None or ca.table is None:  # as swap verifies its product
            table_of(ba)
            table_of(ca)
        s1 = (ab.table or table_of(ab))[ba.proj2.index * n + ba.proj1.index]
        s2 = (ac.table or table_of(ac))[ca.proj2.index * n + ca.proj1.index]
        j1, j2 = d_w.inj1.index, d_w.inj2.index
        f1, f2 = t[j1][s1], t[j2][s2]
        # the transposes b -> D^a and c -> D^a, and their copair h : b + c -> D^a
        e1, e2 = exponentials[(a, cod[f1])], exponentials[(a, cod[f2])]
        t1 = (e1.table or table_of(e1))[f1 * no + b]
        t2 = (e2.table or table_of(e2))[f2 * no + c]
        cw = coproducts[(dom[t1], dom[t2])]
        h = (cw.table or table_of(cw))[t1 * n + t2]
        # theta(h) = eval . (h x id_a) : (b + c) x a -> D, then . swap
        bc = coproducts[(b, c)].apex.index
        ew = exponentials[(a, d_w.apex.index)]
        if ew.table is None:
            table_of(ew)  # verifies a witness no search built
        ida = ids[a]
        src, hx = products[(dom[h], dom[ida])], products[(cod[h], cod[ida])]
        theta_h = t[ew.eval.index][(hx.table or table_of(hx))[
            t[h][src.proj1.index] * n + t[ida][src.proj2.index]]]
        sw, tw = products[(a, bc)], products[(bc, a)]
        if sw.table is None:
            table_of(sw)
        s3 = (tw.table or table_of(tw))[sw.proj2.index * n + sw.proj1.index]
        inv = t[theta_h][s3]
        # the chain's other checks: the three composites typed and defined,
        # each transpose from its product's apex, the copair's and theta's
        # endpoints
        if (UNDEFINED not in (f1, f2, theta_h, inv)
                and cod[s1] == dom[j1] and cod[s2] == dom[j2]
                and dom[f1] == ba.apex.index and dom[f2] == ca.apex.index
                and cod[t1] == cod[t2] and cod[h] == ew.apex.index
                and cod[s3] == dom[theta_h]):
            return inv
    except (KeyError, UniversalityBroken):
        pass
    _raise_from_chain(_delta_inverse_chain, st, a, b, c)


def _raise_from_chain(chain, st: StructureTable, *triple: int) -> NoReturn:
    """Run the combinator chain for a construction whose table reads failed;
    the chain raises the error of its first failing step."""
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
