"""The family-listing quantifier search and initiality sweep that the hom-set
bijection check replaced, without a family cap, kept as the reference its
solutions, failures, revalidation messages and sweep counts must match.

Every family of leg arrows at every test object is listed and the arrows
commuting with it are counted; a (co)cone is universal iff each count is 1.
"""

from itertools import product


def _families(cat, vertex, legs, direction):
    """Every leg-arrow family at ``vertex``, lexicographic by arrow index."""
    pools = [cat.hom(vertex, leg) if direction == "cone" else cat.hom(leg, vertex)
             for leg in legs]
    return list(product(*pools)) if all(pools) else []


def ref_family_mediates(cat, vertexes, v, fam, legs, direction):
    """True, or a string naming the first uniqueness failure."""
    for w in vertexes:
        hom = cat.hom(w, v) if direction == "cone" else cat.hom(v, w)
        for mu in _families(cat, w, legs, direction):
            if direction == "cone":
                ms = [m for m in hom
                      if all(cat.compose(nu, m) == mu_t for nu, mu_t in zip(fam, mu))]
            else:
                ms = [m for m in hom
                      if all(cat.compose(m, nu) == mu_t for nu, mu_t in zip(fam, mu))]
            if len(ms) != 1:
                side = "into" if direction == "cone" else "out of"
                return f"vertex {w.name} has {len(ms)} leg-commuting arrows {side} it"
    return True


def ref_search(cat, vertexes, quantifier, legs):
    """(vertex, leg family) of the first universal candidate, or a message
    saying there is none."""
    direction = "cone" if quantifier == "forall" else "cocone"
    ordered = sorted(set(vertexes), key=lambda o: o.index)
    for v in ordered:
        for fam in _families(cat, v, legs, direction):
            if ref_family_mediates(cat, ordered, v, fam, legs, direction) is True:
                return v, fam
    return f"no {quantifier} object among {[o.name for o in ordered]}"


def ref_revalidate(cat, vertexes, sol):
    direction = "cone" if sol.formula.symbol == "forall" else "cocone"
    fam = sol.family.legs
    legs = [cat.objects[a.cod if direction == "cone" else a.dom] for a in fam]
    verdict = ref_family_mediates(cat, sorted(set(vertexes), key=lambda o: o.index),
                                  sol.family.apex, fam, legs, direction)
    return None if verdict is True else verdict


def ref_sweep(cat, reach, vertex, q_legs, leg_objects):
    """(vertexes checked, families checked), or the failure message."""
    vertexes_checked = families_checked = 0
    for v in sorted(set(reach), key=lambda o: o.index):
        pools = [cat.hom(leg, v) for leg in leg_objects]
        if not all(pools):
            continue
        vertexes_checked += 1
        hom = cat.hom(vertex, v)
        for fam in product(*pools):
            families_checked += 1
            ms = [m for m in hom
                  if all(cat.compose(m, q) == p_t for q, p_t in zip(q_legs, fam))]
            if len(ms) != 1:
                return (f"initiality fails at vertex {v.name}: {len(ms)} mediators "
                        f"out of {vertex.name} for family "
                        f"({', '.join(a.name for a in fam)})")
    return vertexes_checked, families_checked
