"""An independent recount of the hom-set sizes behind every structure verdict.

A universal apex V over legs L_1..L_k has |hom(W, V)| = prod |hom(W, L_i)| at
every object W (|hom(V, W)| for a couniversal one), and an exponential C^A
has |hom(W, C^A)| = |hom(W x A, C)| at every W with a product with A.  So a
PASS witness must have that column, and a FAIL line must state it: either no
candidate has it, or the candidate it names has it and hits the family it
names other than once.  A quantifier object is a universal cone (cocone for
``exists``) over its diagram's leg objects with the searched vertexes as
candidates and test objects, so its failures are checked the same way.
Everything here is counted with ``FinCategory.hom`` and
``FinCategory.compose``; the structure table is read only for its witnesses
and failure messages.
"""

import re
from collections import Counter
from math import prod

_NAMES = r"\(([^)]*)\)"
_COLUMN = r"the hom-set sizes \[([0-9, ]*)\](?: from \(([^)]*)\))?( counting arrows out of it)?"
_NONE = re.compile(rf"(?:^|; )no (?:object|object with a product with \S+) has {_COLUMN}$")
_FITS = re.compile(rf"(?:^|; )(\S+) has {_COLUMN}, but (.*)$")
_CONE_MISS = re.compile(rf"(\d+) arrows (\S+) -> (\S+) compose with {_NAMES} to {_NAMES}$")
_EVAL_MISS = re.compile(r"with eval (\S+), (\d+) arrows m : (\S+) -> (\S+) have "
                        r"eval \. \(m x id_\S+\) = (\S+)$")


def _size(cat, w, v, op):
    return len(cat.hom(v, w) if op else cat.hom(w, v))


def _names(text):
    return text.split(", ") if text else []


def _times_id(cat, st, m, a):
    """m x id_a : w x a -> v x a for m : w -> v, found by its two composites."""
    src = st.products[(m.dom, a.index)]
    tgt = st.products[(m.cod, a.index)]
    (p1, p2), (q1, q2) = src.legs, tgt.legs
    want = (cat.compose(m, p1), p2)
    [u] = [u for u in cat.hom(src.apex, tgt.apex)
           if (cat.compose(q1, u), cat.compose(q2, u)) == want]
    return u


def _check_failure(cat, st, failure, column, ws, op, legs, base):
    """Which refutation ``failure`` is, after checking it against ``column``."""
    objs = cat.objects
    if not ws:
        noun = "object" if base is None else f"object with a product with {base.name}"
        assert failure.endswith(f"no {noun}" if objs else "the category has no objects"), failure
        return "empty"
    match = _NONE.search(failure) or _FITS.search(failure)
    assert match, f"not a hom-count refutation: {failure}"
    fits = match.re is _FITS
    stated, among, out = match.groups()[fits:fits + 3]
    assert [int(k) for k in _names(stated)] == column, failure
    assert _names(among) == ([] if len(ws) == len(cat.objects) else [w.name for w in ws])
    assert bool(out) == op, failure
    having = [v for v in ws if [_size(cat, w, v, op) for w in ws] == column]
    if not fits:
        assert not having, failure
        return "no column"
    apex = cat.obj(match.group(1))
    assert having[0] == apex, failure
    if base is None:
        k, x, y, ps, fs = _CONE_MISS.fullmatch(match.group(5)).groups()
        w = cat.obj(y if op else x)
        assert cat.obj(x if op else y) == apex
        ps, fs = [cat.arrow(p) for p in _names(ps)], [cat.arrow(f) for f in _names(fs)]
        assert [objs[p.cod if op else p.dom] for p in ps] == [apex] * len(legs)
        assert [objs[p.dom if op else p.cod] for p in ps] == list(legs)
        ms = cat.hom(apex, w) if op else cat.hom(w, apex)
        hits = sum([cat.compose(m, p) if op else cat.compose(p, m) for p in ps] == fs
                   for m in ms)
    else:
        ev, k, w, v, f = _EVAL_MISS.fullmatch(match.group(5)).groups()
        assert cat.obj(v) == apex
        ev, f = cat.arrow(ev), cat.arrow(f)
        assert ev.dom == st.products[(apex.index, base.index)].apex.index
        hits = sum(cat.compose(ev, _times_id(cat, st, m, base)) == f
                   for m in cat.hom(cat.obj(w), apex))
    assert hits == int(k) != 1, failure
    return "fits"


def check_quantifier_failure(cat, failure, quantifier, body, vertexes, legs):
    """Check the NoQuantifierObject message ``failure`` of the search for the
    ``quantifier`` object over ``body`` with leg objects ``legs`` among
    ``vertexes``; which refutation it is."""
    op = quantifier == "exists"
    ws = sorted(set(vertexes), key=lambda o: o.index)
    prefix = f"no {quantifier} object over {body} among {[w.name for w in ws]}: "
    assert failure.startswith(prefix), failure
    column = [prod(_size(cat, w, leg, op) for leg in legs) for w in ws]
    return _check_failure(cat, None, failure[len(prefix):], column, ws, op, legs, None)


def recount(cat, st) -> Counter:
    """Check every witness and failure of the structure table ``st`` of
    ``cat``; the number of each kind of verdict checked."""
    objs, seen = cat.objects, Counter()

    def check(witness, failure, column, ws, op=False, legs=(), base=None):
        if witness is not None:
            assert failure is None
            assert [_size(cat, w, witness, op) for w in ws] == column, witness
            seen["pass"] += 1
        else:
            seen[_check_failure(cat, st, failure, column, ws, op, legs, base)] += 1

    for op, found, failure in ((False, st.terminal, st.terminal_failure),
                               (True, st.initial, st.initial_failure)):
        check(found and found.apex, failure, [1] * len(objs), objs, op)
    for a in objs:
        for b in objs:
            key = (a.index, b.index)
            for op, found, failures in ((False, st.products, st.product_failures),
                                        (True, st.coproducts, st.coproduct_failures)):
                column = [_size(cat, w, a, op) * _size(cat, w, b, op) for w in objs]
                witness = found.get(key)
                check(witness and witness.apex, failures.get(key), column, objs, op, (a, b))
    for a in objs:
        ws = [w for w in objs if (w.index, a.index) in st.products]
        for c in objs:
            key = (a.index, c.index)
            column = [len(cat.hom(st.products[(w.index, a.index)].apex, c)) for w in ws]
            witness = st.exponentials.get(key)
            check(witness and witness.apex, st.exponential_failures.get(key), column, ws,
                  base=a)
    return seen

