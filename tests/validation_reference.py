"""The exhaustive ``validate_category`` that ``catlogic.kernel`` replaced, kept
as the reference its verdicts and violation lists must match.

Every composable pair is checked for typing and totality, every arrow for
the identity laws, and every composable triple for associativity.
"""

from catlogic.kernel import UNDEFINED, ValidationReport, Violation


def validate_category(c):
    """Check every category law; empty report iff ``c`` is a category.

    Structural defects raise MalformedInput at construction time already;
    this pass reports law failures (identity, associativity, composition
    typing/totality) with the witnessing arrows.  Sets ``c.validated`` on
    success so structure searches can insist on the staged pipeline.
    """
    out: list[Violation] = []

    for o in c.objects:
        ia = c.identity_of(o)
        if ia.dom != o.index or ia.cod != o.index:
            out.append(Violation("identity-endpoints",
                                 f"identity of {o.name} is {ia.name}: {_ends(c, ia)}"))

    for g in c.arrows:
        for f in c.arrows:
            k = c.table_entry(g, f)
            if f.cod == g.dom:
                if k == UNDEFINED:
                    out.append(Violation("compose-missing",
                                         f"composite {g.name} . {f.name} undefined"))
                else:
                    h = c.arrows[k]
                    if h.dom != f.dom or h.cod != g.cod:
                        out.append(Violation("compose-endpoints",
                                             f"{g.name} . {f.name} = {h.name} but "
                                             f"{h.name} is {_ends(c, h)}, expected "
                                             f"{c.objects[f.dom].name} -> {c.objects[g.cod].name}"))
            elif k != UNDEFINED:
                out.append(Violation("compose-spurious",
                                     f"table defines {g.name} . {f.name} "
                                     f"on a non-composable pair"))

    for f in c.arrows:
        left = c.table_entry(c.identity_of(f.cod), f)
        if left != UNDEFINED and left != f.index:
            out.append(Violation("identity-law",
                                 f"id_{c.objects[f.cod].name} . {f.name} = "
                                 f"{c.arrows[left].name}, expected {f.name}"))
        right = c.table_entry(f, c.identity_of(f.dom))
        if right != UNDEFINED and right != f.index:
            out.append(Violation("identity-law",
                                 f"{f.name} . id_{c.objects[f.dom].name} = "
                                 f"{c.arrows[right].name}, expected {f.name}"))

    for h in c.arrows:
        for g in c.arrows:
            if g.cod != h.dom:
                continue
            hg = c.table_entry(h, g)
            if hg == UNDEFINED:
                continue
            for f in c.arrows:
                if f.cod != g.dom:
                    continue
                gf = c.table_entry(g, f)
                if gf == UNDEFINED:
                    continue
                lhs = c.table_entry(h, c.arrows[gf])
                rhs = c.table_entry(c.arrows[hg], f)
                if lhs == UNDEFINED or rhs == UNDEFINED:
                    continue  # totality violation already reported
                if lhs != rhs:
                    out.append(Violation("associativity",
                                         f"{h.name} . ({g.name} . {f.name}) = "
                                         f"{c.arrows[lhs].name} but ({h.name} . {g.name}) . "
                                         f"{f.name} = {c.arrows[rhs].name}"))

    report = ValidationReport(tuple(out))
    if report.ok:
        c.validated = True
    return report


def _ends(c, a):
    return f"{c.objects[a.dom].name} -> {c.objects[a.cod].name}"
