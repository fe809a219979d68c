"""Constructive redundancy certificates.

Two results are reproduced arrow by arrow rather than assumed:

* the distributivity comparison (A x B) + (A x C) -> A x (B + C) has an
  inverse built from exponential transposes alone, so demanding the inverse
  as a separate axiom is redundant;
* the comparison M(exists x. A x B) -> MA x M(exists x. B) (x not free in A)
  has an inverse theta(gamma) built from the co-universal arrow gamma of the
  transposed cocone, so the product-through-existential axiom is redundant.

Every mediating arrow is found by the cone key check of the structure
table: the arrows of one hom-set whose composites with the legs of a stored
``Cone`` are the given family (``StructureTable.mediators``, out of the apex
of a cocone), of which there must be exactly one.  Every certificate names
its arrows, and a failed inverse equation names both composites, so it can
be replayed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING, Sequence

from .errors import CertificateFailure, MultipleMediators, NoMediator, ShapeMismatch
from .kernel import ArrId, ObjId, mutually_inverse
from .logic import free_vars
from .semantics import Instance, QuantifierSolution
from .structure import Cone, StructureTable

if TYPE_CHECKING:
    from .semantics import Interpretation


@dataclass(frozen=True)
class DeltaCertificate:
    """delta and its inverse for the triple (a, b, c), both inverse
    equations checked on the table."""
    triple: tuple[ObjId, ObjId, ObjId]
    delta: ArrId
    delta_inv: ArrId


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
    equations: tuple[str, str]
    initiality: InitialitySweep


def _unique(ms: Sequence[ArrId], what: str) -> ArrId:
    """The one mediator of ``ms``, the arrows a key check found."""
    if not ms:
        raise NoMediator(f"no mediating arrow {what}")
    if len(ms) > 1:
        raise MultipleMediators(
            f"{len(ms)} mediating arrows {what}: {', '.join(m.name for m in ms)}")
    return ms[0]


# -- distributivity -----------------------------------------------------------------
#
# delta and its inverse are read from the composition rows and from the rows
# of the witness stores (``_Witnesses.rows``), as the combinators read them:
# each witness as plain ints with its table, or None where a failure is
# recorded, and a None row is read through its store, which raises that
# failure.  The witnesses are read in the order the combinators
# (arrow_product, copair, swap, transpose, theta) would look them up, so the
# first missing one raises its NoSuchStructure, as a store read does.

def _delta(st: StructureTable, a: int, b: int, c: int) -> int:
    """delta's arrow index on the object indices (a, b, c)."""
    t, n = st.cat.index().table, len(st.cat.arrows)
    products, coproducts = st.products, st.coproducts
    P, C = products.rows, coproducts.rows
    bc = C[b][c] or coproducts[b, c]
    ab = P[a][b] or products[a, b]
    a_bc = P[a][bc[0]] or products[a, bc[0]]
    ac = P[a][c] or products[a, c]
    d = C[ab[0]][ac[0]] or coproducts[ab[0], ac[0]]
    # id_a x inj = <proj1, inj . proj2>, from a x b and from a x c
    left = a_bc[3][ab[1] * n + t[bc[1]][ab[2]]]
    right = a_bc[3][ac[1] * n + t[bc[2]][ac[2]]]
    return d[3][left * n + right]


def _delta_inverse(st: StructureTable, a: int, b: int, c: int) -> int:
    """The inverse's arrow index on the object indices (a, b, c)."""
    t, n, no = st.cat.index().table, len(st.cat.arrows), len(st.cat.objects)
    products, coproducts = st.products, st.coproducts
    P, C = products.rows, coproducts.rows
    ab = P[a][b] or products[a, b]
    ac = P[a][c] or products[a, c]
    d = C[ab[0]][ac[0]] or coproducts[ab[0], ac[0]]
    ba = P[b][a] or products[b, a]
    ca = P[c][a] or products[c, a]
    # inj . swap, with swap = <proj2, proj1> : b x a -> a x b; likewise for c
    f1 = t[d[1]][ab[3][ba[2] * n + ba[1]]]
    f2 = t[d[2]][ac[3][ca[2] * n + ca[1]]]
    # the transposes b -> D^a and c -> D^a, and their copair h : b + c -> D^a
    ew = st.exponentials.rows[a][d[0]] or st.exponentials[a, d[0]]
    bc = C[b][c] or coproducts[b, c]
    h = bc[3][ew[2][f1 * no + b] * n + ew[2][f2 * no + c]]
    # theta(h) = eval . (h x id_a) : (b + c) x a -> D, then . swap
    bca = P[bc[0]][a] or products[bc[0], a]
    hxa = (P[ew[0]][a] or products[ew[0], a])[3][t[h][bca[1]] * n + bca[2]]
    a_bc = P[a][bc[0]] or products[a, bc[0]]
    return t[t[ew[1]][hxa]][bca[3][a_bc[2] * n + a_bc[1]]]


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


def delta_certificate(st: StructureTable, a: ObjId, b: ObjId, c: ObjId) -> DeltaCertificate:
    """Build both arrows and verify the two inverse equations exactly."""
    cat = st.cat
    delta = cat.arrows[_delta(st, a.index, b.index, c.index)]
    inv = cat.arrows[_delta_inverse(st, a.index, b.index, c.index)]
    if not mutually_inverse(cat, delta, inv):
        raise CertificateFailure(
            f"({a.name},{b.name},{c.name}): {inv.name} is not inverse to "
            f"{delta.name}: {inv.name}.{delta.name} = "
            f"{cat.compose(inv, delta).name}, {delta.name}.{inv.name} = "
            f"{cat.compose(delta, inv).name}")
    return DeltaCertificate((a, b, c), delta, inv)


# -- product through existential quantification ----------------------------------------

@dataclass(frozen=True)
class _FrobeniusContext:
    ma: ObjId
    sol_b: QuantifierSolution      # exists x. B with legs delta_t
    sol_ab: QuantifierSolution     # exists x. (A x B) with legs exI_t
    vertex: ObjId                  # MA x M(exists x. B)
    q_legs: tuple[ArrId, ...]      # id_MA x delta_t, in universe order


def _context(interp: "Interpretation", inst: Instance) -> _FrobeniusContext:
    if (inst.var, inst.sort) in free_vars(inst.left):
        raise CertificateFailure(f"{inst.var}:{inst.sort} must not be free in {inst.left}")
    st = interp.structure
    ex_ab, ex_b = inst.existentials
    ma = interp.interpret(inst.left)
    sol_b = interp.quantifier_solution(ex_b)
    sol_ab = interp.quantifier_solution(ex_ab)
    vertex = st.product(ma, sol_b.family.apex).apex
    ida = st.identity(ma)
    q_legs = tuple(st.arrow_product(ida, delta_t) for delta_t in sol_b.family.legs)
    return _FrobeniusContext(ma, sol_b, sol_ab, vertex, q_legs)


def build_alpha(interp: "Interpretation", inst: Instance) -> ArrId:
    """The unique arrow M(exists x. A x B) -> MA x M(exists x. B) commuting
    with both cocones leg by leg."""
    return _alpha(interp.structure, _context(interp, inst))


def _alpha(st: StructureTable, ctx: _FrobeniusContext) -> ArrId:
    ex = ctx.sol_ab.family
    return _unique(
        st.mediators(ex, ctx.vertex, ctx.q_legs),
        f"from {ctx.sol_ab.family.apex.name} to {ctx.vertex.name} commuting with "
        f"{len(ex.legs)} legs")


def build_gamma(interp: "Interpretation", inst: Instance, c: ObjId, p: Cone) -> ArrId:
    """The co-universal arrow M(exists x. B) -> C^MA mediating the cocone of
    transposed legs.

    Each leg p_t : MA x M(B[t/x]) -> C of ``p``, one per leg of the stored
    cocone of exists x. B, is swapped and transposed to M(B[t/x]) -> C^MA;
    that cocone then forces a unique mediator, found by its key.
    """
    ma = interp.interpret(inst.left)
    if c not in interp.reach:
        raise CertificateFailure(
            f"cocone vertex {c.name} is not reachable; the subcategory only "
            f"contains interpretations of closed formulas")
    sol_b = interp.quantifier_solution(inst.existentials[1])
    if len(p.legs) != len(sol_b.family.legs) or any(leg.cod != c.index for leg in p.legs):
        raise ShapeMismatch(
            f"build_gamma: a cocone into {c.name} over the {len(sol_b.family.legs)} "
            f"legs of {sol_b.formula} was expected, got legs "
            f"({', '.join(leg.name for leg in p.legs)})")
    return _gamma(interp.structure, ma, sol_b, c, p)


def _gamma(st: StructureTable, ma: ObjId, sol_b: QuantifierSolution, c: ObjId,
           p: Cone) -> ArrId:
    cat = st.cat
    exp_w = st.exponential(ma, c)
    transposed = []
    for delta_t, p_t in zip(sol_b.family.legs, p.legs):
        w = cat.objects[delta_t.dom]  # M(B[t/x])
        swapped = cat.compose(p_t, st.swap(w, ma))  # w x MA -> C
        transposed.append(st.transpose(swapped, w, ma))
    return _unique(
        st.mediators(sol_b.family, exp_w.apex, transposed),
        f"from {sol_b.family.apex.name} to {exp_w.apex.name} commuting with the "
        f"transposed legs")


def verify_frobenius(interp: "Interpretation", inst: Instance) -> FrobeniusCertificate:
    """Build alpha and beta = theta(gamma), assert both inverse equations
    exactly, then sweep initiality: every reachable cocone vertex over the
    product diagram admits exactly one mediator out of MA x M(exists x. B).
    The certificate holds ``inst``.
    """
    st, cat = interp.structure, interp.cat
    ctx = _context(interp, inst)

    alpha = _alpha(st, ctx)

    # gamma for the cocone of exists x.(A x B) itself, p_t = exI_t, whose
    # vertex the quantifier search took from the reachable set
    gamma = _gamma(st, ctx.ma, ctx.sol_b, ctx.sol_ab.family.apex, ctx.sol_ab.family)

    theta_gamma = st.theta(gamma, ctx.ma, ctx.sol_ab.family.apex)  # M(ex B) x MA -> M(ex AxB)
    beta = cat.compose(theta_gamma, st.swap(ctx.ma, ctx.sol_b.family.apex))

    for first, then, composite, end in (
            ("alpha", "theta(gamma)", cat.compose(alpha, beta), ctx.vertex),
            ("theta(gamma)", "alpha", cat.compose(beta, alpha), ctx.sol_ab.family.apex)):
        if composite != st.identity(end):
            raise CertificateFailure(
                f"{inst.describe()}: {first} . {then} = {composite.name}, "
                f"expected id_{end.name} (alpha = {alpha.name}, "
                f"gamma = {gamma.name}, beta = {beta.name})")

    return FrobeniusCertificate(
        inst, alpha, gamma, beta,
        equations=(f"{alpha.name} . {beta.name} = id_{ctx.vertex.name}",
                   f"{beta.name} . {alpha.name} = id_{ctx.sol_ab.family.apex.name}"),
        initiality=_initiality_sweep(interp, ctx))


def _initiality_sweep(interp: "Interpretation", ctx: _FrobeniusContext) -> InitialitySweep:
    """MA x M(exists x. B) must mediate uniquely to every reachable cocone
    vertex over the product diagram: composing with its legs maps the arrows
    out of it to a vertex one-to-one onto the leg families at that vertex.
    A vertex counts as checked when it carries at least one leg family.
    """
    cat = interp.cat
    vertexes = interp.reach.objects
    miss = interp.structure.cone_miss(Cone(ctx.vertex, ctx.q_legs, op=True), vertexes)
    if miss is not None:
        v, fam, k = miss
        raise CertificateFailure(
            f"initiality fails at vertex {v.name}: {k} mediators "
            f"out of {ctx.vertex.name} for family "
            f"({', '.join(a.name for a in fam)})")
    families = [prod(len(cat.hom(cat.objects[q.dom], v)) for q in ctx.q_legs)
                for v in vertexes]
    return InitialitySweep(sum(1 for k in families if k), sum(families))
