"""The combinator-chain construction of delta and its inverse that
``catlogic.theorems`` replaced with table reads, kept as the reference its
arrows, certificates, condition-4 verdicts and failure messages must match.

The functions are the earlier ``build_delta``, ``build_delta_inverse`` and
``delta_certificate``, the compose-based ``mutually_inverse`` and
``inverses``, and the condition-4 loop of ``check_conditions``, unchanged
except that the loop takes its objects as an argument and returns the
status and details.
"""

from dataclasses import dataclass

from catlogic.errors import CertificateFailure, NoSuchStructure, ShapeMismatch
from catlogic.kernel import ArrId, ObjId


@dataclass(frozen=True)
class RefDeltaCertificate:
    triple: tuple
    delta: ArrId
    delta_inv: ArrId


def mutually_inverse(c, f, g):
    """True iff g.f and f.g are the two identities."""
    if f.dom != g.cod or f.cod != g.dom:
        raise ShapeMismatch(f"{f.name} and {g.name} do not have opposite endpoints")
    return (c.compose(g, f) == c.identity_of(f.dom)
            and c.compose(f, g) == c.identity_of(g.dom))


def inverses(c, f):
    """Every g : cod f -> dom f with g.f and f.g the two identities."""
    id_src, id_tgt = c.identity_of(f.dom), c.identity_of(f.cod)
    return [g for g in c.hom(c.objects[f.cod], c.objects[f.dom])
            if c.compose(g, f) == id_src and c.compose(f, g) == id_tgt]


def build_delta(st, a: ObjId, b: ObjId, c: ObjId) -> ArrId:
    inj1, inj2 = st.coproduct(b, c).legs
    ida = st.identity(a)
    left = st.arrow_product(ida, inj1)       # a x b -> a x (b + c)
    right = st.arrow_product(ida, inj2)      # a x c -> a x (b + c)
    return st.copair(left, right)


def build_delta_inverse(st, a: ObjId, b: ObjId, c: ObjId) -> ArrId:
    cat = st.cat
    ab = st.product(a, b)
    ac = st.product(a, c)
    d_w = st.coproduct(ab.apex, ac.apex)
    d = d_w.apex

    inj1, inj2 = d_w.legs
    inj1_sw = cat.compose(inj1, st.swap(b, a))       # b x a -> D
    inj2_sw = cat.compose(inj2, st.swap(c, a))       # c x a -> D
    t1 = st.transpose(inj1_sw, b, a)                 # b -> D^a
    t2 = st.transpose(inj2_sw, c, a)                 # c -> D^a
    h = st.copair(t1, t2)                            # b + c -> D^a

    bc_apex = st.coproduct(b, c).apex
    theta_h = st.theta(h, a, d)                      # (b + c) x a -> D
    return cat.compose(theta_h, st.swap(a, bc_apex))


def delta_certificate(st, a: ObjId, b: ObjId, c: ObjId) -> RefDeltaCertificate:
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
    return RefDeltaCertificate((a, b, c), delta, inv)


def ref_condition4(st, objects):
    cat = st.cat
    details = []
    status = "PASS"
    for a in objects:
        for b in objects:
            for c in objects:
                try:
                    delta = build_delta(st, a, b, c)
                except NoSuchStructure as exc:
                    status = "BLOCKED" if status == "PASS" else status
                    details.append(f"({a.name},{b.name},{c.name}): {exc}")
                    continue
                invs = inverses(cat, delta)
                if len(invs) != 1:
                    status = "FAIL"
                    details.append(
                        f"({a.name},{b.name},{c.name}): {len(invs)} inverses "
                        f"for {delta.name}")
    return status, tuple(details[:16])
