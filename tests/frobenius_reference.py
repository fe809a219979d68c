"""The hom-set scan that found alpha and gamma before the structure table's
key check did, kept as the reference the frobenius arrows and failure
messages must match.

``build_alpha``, ``build_gamma`` and the arrow-building half of
``verify_frobenius`` are the earlier ones, unchanged but for taking the
``Instance`` whole and the frobenius context, and the initiality sweep,
from ``catlogic.theorems``:
every arrow of the hom-set is composed with the legs and compared with the
family, and exactly one must commute.
"""

from catlogic.errors import CertificateFailure, MultipleMediators, NoMediator
from catlogic.theorems import _context, _initiality_sweep


def _unique(cat, candidates, pred, what):
    ms = [m for m in candidates if pred(m)]
    if not ms:
        raise NoMediator(f"no mediating arrow {what}")
    if len(ms) > 1:
        raise MultipleMediators(
            f"{len(ms)} mediating arrows {what}: {', '.join(m.name for m in ms)}")
    return ms[0]


def _alpha(st, ctx):
    cat = st.cat
    ex_legs = ctx.sol_ab.family.legs
    return _unique(
        cat, cat.hom(ctx.sol_ab.family.apex, ctx.vertex),
        lambda m: all(cat.compose(m, e) == q for e, q in zip(ex_legs, ctx.q_legs)),
        f"from {ctx.sol_ab.family.apex.name} to {ctx.vertex.name} commuting with "
        f"{len(ex_legs)} legs")


def build_alpha(interp, inst):
    return _alpha(interp.structure, _context(interp, inst))


def build_gamma(interp, inst, c, p):
    st = interp.structure
    cat = interp.cat
    ma = interp.interpret(inst.left)
    if interp.reach is not None and c not in interp.reach:
        raise CertificateFailure(
            f"cocone vertex {c.name} is not reachable; the subcategory only "
            f"contains interpretations of closed formulas")
    sol_b = interp.quantifier_solution(inst.existentials[1])
    exp_w = st.exponential(ma, c)

    transposed = []
    for leg_obj_arr, p_t in zip(sol_b.family.legs, p.legs):
        w = cat.objects[leg_obj_arr.dom]  # M(B[t/x])
        swapped = cat.compose(p_t, st.swap(w, ma))  # w x MA -> C
        transposed.append(st.transpose(swapped, w, ma))

    delta_legs = sol_b.family.legs
    return _unique(
        cat, cat.hom(sol_b.family.apex, exp_w.apex),
        lambda m: all(cat.compose(m, d) == tr
                      for d, tr in zip(delta_legs, transposed)),
        f"from {sol_b.family.apex.name} to {exp_w.apex.name} commuting with the "
        f"transposed legs")


def frobenius_arrows(interp, inst):
    """(alpha, gamma, beta) of ``verify_frobenius`` on ``inst``, after its
    two inverse equations and its initiality sweep."""
    st, cat = interp.structure, interp.cat
    ctx = _context(interp, inst)
    alpha = _alpha(st, ctx)
    gamma = build_gamma(interp, inst, ctx.sol_ab.family.apex, ctx.sol_ab.family)
    theta_gamma = st.theta(gamma, ctx.ma, ctx.sol_ab.family.apex)
    beta = cat.compose(theta_gamma, st.swap(ctx.ma, ctx.sol_b.family.apex))
    comp_ab, comp_ba = cat.compose(alpha, beta), cat.compose(beta, alpha)
    if comp_ab != st.identity(ctx.vertex):
        raise CertificateFailure(
            f"{inst.describe()}: alpha . theta(gamma) = {comp_ab.name}, "
            f"expected id_{ctx.vertex.name} (alpha = {alpha.name}, "
            f"gamma = {gamma.name}, beta = {beta.name})")
    if comp_ba != st.identity(ctx.sol_ab.family.apex):
        raise CertificateFailure(
            f"{inst.describe()}: theta(gamma) . alpha = {comp_ba.name}, "
            f"expected id_{ctx.sol_ab.family.apex.name} (alpha = {alpha.name}, "
            f"gamma = {gamma.name}, beta = {beta.name})")
    _initiality_sweep(interp, ctx)
    return alpha, gamma, beta
