"""The mediator-counting universal-property search that ``catlogic.structure``
replaced, kept as the reference its witnesses and failure messages must match.

Each search returns the witness as a tuple of object and arrow indices, or
the failure message; ``op`` searches the opposite category (coproducts, the
initial object).  ``assert_discovery_matches`` holds a discovered structure
table to them.
"""

from itertools import product

from catlogic.structure import Cone
from hom_recount import recount


def _hom(cat, x, y, op):
    return cat.index().hom.get((y.index, x.index) if op else (x.index, y.index), ())


def _legs(cat, m, legs, op):
    t = cat.index().table
    return tuple(t[m][p] if op else t[p][m] for p in legs)


def _mediators(cat, into, legs, targets, op):
    return [m for m in into if _legs(cat, m, legs, op) == tuple(targets)]


def ref_universal_object(cat, op=False):
    best = None
    for t in cat.objects:
        good = sum(1 for w in cat.objects if len(_hom(cat, w, t, op)) == 1)
        if good == len(cat.objects):
            return (t.index,)
        if best is None or good > best[0]:
            best = (good, t.name)
    phrase = (f"reaches {best[0]}/{len(cat.objects)} objects uniquely" if op else
              f"receives a unique arrow from {best[0]}/{len(cat.objects)} objects")
    return f"{cat.name}: no {'initial' if op else 'terminal'} object; best candidate {best[1]} {phrase}"


def ref_cone(cat, a, b, op=False):
    best = None
    for apex in cat.objects:
        for p1, p2 in product(_hom(cat, apex, a, op), _hom(cat, apex, b, op)):
            score, ok = 0, True
            for w in cat.objects:
                legs = [_legs(cat, m, (p1, p2), op) for m in _hom(cat, w, apex, op)]
                for f, g in product(_hom(cat, w, a, op), _hom(cat, w, b, op)):
                    ok = legs.count((f, g)) == 1  # exactly one mediator
                    if not ok:
                        break
                    score += 1
                if not ok:
                    break
            if ok:
                return apex.index, p1, p2
            if best is None or score > best[0]:
                best = (score, f"apex {apex.name} via ({cat.arrows[p1].name}, {cat.arrows[p2].name})")
    near = (f"no candidate {'cocone' if op else 'cone'} at all" if best is None else
            f"near miss: {best[1]} satisfied {best[0]} mediation checks")
    return f"{cat.name}: no {'coproduct' if op else 'product'} for ({a.name}, {b.name}); {near}"


def ref_exponential(cat, products, a, c):
    """``products`` maps index pairs to reference product witnesses."""
    best, t = None, cat.index().table
    for apex in cat.objects:
        pw = products.get((apex.index, a.index))
        for ev in (_hom(cat, cat.objects[pw[0]], c, False) if pw else ()):
            score, ok = 0, True
            for w in cat.objects:
                pww = products.get((w.index, a.index))
                for f in (_hom(cat, cat.objects[pww[0]], c, False) if pww else ()):
                    ms = [m for m in _hom(cat, w, apex, False) if t[ev][_mediators(
                        cat, cat.index().hom.get((pww[0], pw[0]), ()), pw[1:],
                        (t[m][pww[1]], pww[2]), False)[0]] == f]
                    ok = len(ms) == 1
                    if not ok:
                        break
                    score += 1
                if not ok:
                    break
            if ok:
                return apex.index, ev
            if best is None or score > best[0]:
                best = (score, f"apex {apex.name} via eval {cat.arrows[ev].name}")
    near = ("no candidate eval arrow at all" if best is None else
            f"near miss: {best[1]} passed {best[0]} transpose checks")
    return f"{cat.name}: no exponential with base {a.name}, target {c.name}; {near}"


def assert_discovery_matches(st):
    """Every witness and failure of the structure table ``st`` against the
    searches above: the same witness, or both fail; ``recount`` checks the
    failure messages."""
    cat = st.cat

    def found(witness, failure):
        if witness is None:
            return failure
        arrows = witness.legs if isinstance(witness, Cone) else (witness.eval,)
        return (witness.apex.index, *(f.index for f in arrows))

    def same(got, ref):
        return isinstance(got, str) if isinstance(ref, str) else got == ref

    assert same(found(st.terminal, st.terminal_failure), ref_universal_object(cat))
    assert same(found(st.initial, st.initial_failure), ref_universal_object(cat, op=True))
    ref_products = {}
    for a in cat.objects:
        for b in cat.objects:
            key = (a.index, b.index)
            ref = ref_cone(cat, a, b)
            assert same(found(st.products.get(key), st.product_failures.get(key)), ref)
            if not isinstance(ref, str):
                ref_products[key] = ref
            assert same(found(st.coproducts.get(key), st.coproduct_failures.get(key)),
                        ref_cone(cat, a, b, op=True))
    for a in cat.objects:
        for c in cat.objects:
            key = (a.index, c.index)
            assert same(found(st.exponentials.get(key), st.exponential_failures.get(key)),
                        ref_exponential(cat, ref_products, a, c))
    recount(cat, st)
