"""The category file parser and ``FinCategory.build`` that one declaration
assembler (``kernel._assemble``) replaced, kept as the reference its
categories and errors (type, message and line) must match.

The parser checks each line as it comes and then hands the names to the
name-keyed builder, which checks them again in its own words.
"""

from typing import Iterable, Mapping, Sequence

from catlogic.errors import CategoryFileError, MalformedInput
from catlogic.kernel import (
    _LINE_RES,
    MAX_ARROW_LINES,
    MAX_OBJECTS,
    UNDEFINED,
    ArrId,
    FinCategory,
    ObjId,
)


def ref_build(objects: Sequence[str], arrows: Iterable[tuple[str, str, str]],
              identities: Mapping[str, str] | str = "auto",
              compositions: Iterable[tuple[str, str, str]] = (),
              name: str = "category") -> FinCategory:
    """Assemble a category from names.

    ``arrows`` lists non-identity arrows as (name, dom, cod) unless
    identities are given explicitly.  ``compositions`` lists
    (g, f, h) meaning g.f = h; composites with an identity are filled
    in automatically and may be overridden by an explicit entry.
    """
    obj_list = [ObjId(i, n) for i, n in enumerate(objects)]
    if len(obj_list) != len({o.name for o in obj_list}):
        raise MalformedInput("duplicate object names")
    obj_index = {o.name: o.index for o in obj_list}

    arr_specs = list(arrows)
    arr_list: list[ArrId] = []
    for aname, dname, cname in arr_specs:
        if dname not in obj_index:
            raise MalformedInput(f"arrow {aname}: unknown object {dname}")
        if cname not in obj_index:
            raise MalformedInput(f"arrow {aname}: unknown object {cname}")
        arr_list.append(ArrId(len(arr_list), aname, obj_index[dname], obj_index[cname]))

    arr_index = {a.name: a.index for a in arr_list}
    if len(arr_index) != len(arr_list):
        raise MalformedInput("duplicate arrow names")

    identity = [UNDEFINED] * len(obj_list)
    if identities == "auto":
        for o in obj_list:
            auto_name = f"id_{o.name}"
            if auto_name in arr_index:
                raise MalformedInput(f"auto identity clashes with arrow {auto_name}")
            arr_list.append(ArrId(len(arr_list), auto_name, o.index, o.index))
            arr_index[auto_name] = arr_list[-1].index
            identity[o.index] = arr_list[-1].index
    else:
        for oname, aname in identities.items():
            if oname not in obj_index:
                raise MalformedInput(f"identity for unknown object {oname}")
            if aname == "auto":
                auto_name = f"id_{oname}"
                if auto_name not in arr_index:
                    arr_list.append(ArrId(len(arr_list), auto_name,
                                          obj_index[oname], obj_index[oname]))
                    arr_index[auto_name] = arr_list[-1].index
                identity[obj_index[oname]] = arr_index[auto_name]
            elif aname in arr_index:
                identity[obj_index[oname]] = arr_index[aname]
            else:
                raise MalformedInput(f"identity of {oname} names unknown arrow {aname}")
        for o in obj_list:
            if identity[o.index] == UNDEFINED:
                raise MalformedInput(f"object {o.name} has no identity arrow")

    n = len(arr_list)
    table = [[UNDEFINED] * n for _ in range(n)]
    # identity composites first, explicit entries may override them
    for f in arr_list:
        table[identity[f.cod]][f.index] = f.index
        table[f.index][identity[f.dom]] = f.index
    for gname, fname, hname in compositions:
        for nm in (gname, fname, hname):
            if nm not in arr_index:
                raise MalformedInput(f"compose line names unknown arrow {nm}")
        table[arr_index[gname]][arr_index[fname]] = arr_index[hname]

    return FinCategory(name, obj_list, arr_list, identity, table)


def ref_parse_category(text: str, name: str = "category") -> FinCategory:
    """Parse the line-oriented category format.

    Lines: ``object N`` / ``arrow N : A -> B`` / ``id A = N|auto`` /
    ``compose G . F = H``; ``#`` starts a comment.  Errors carry line numbers.
    At most MAX_OBJECTS ``object`` lines and MAX_ARROW_LINES ``arrow`` lines
    are accepted.
    """
    objects: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    ids: dict[str, str] = {}
    comps: list[tuple[str, str, str, int]] = []
    seen_obj: dict[str, int] = {}
    seen_arr: dict[str, int] = {}
    seen_id: dict[str, int] = {}
    seen_comp: dict[tuple[str, str], int] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind = line.split(None, 1)[0]
        rx = _LINE_RES.get(kind)
        m = rx.match(line) if rx else None
        if m is None:
            raise CategoryFileError(f"unrecognized line: {line}", lineno)
        if kind == "object":
            oname = m.group(1)
            if len(objects) == MAX_OBJECTS:
                raise CategoryFileError(f"object {oname}: more than {MAX_OBJECTS} "
                                        f"objects exceeds desk scale", lineno)
            if oname in seen_obj:
                raise CategoryFileError(f"object {oname} already declared "
                                        f"on line {seen_obj[oname]}", lineno)
            seen_obj[oname] = lineno
            objects.append(oname)
        elif kind == "arrow":
            aname, dname, cname = m.groups()
            if len(arrows) == MAX_ARROW_LINES:
                raise CategoryFileError(f"arrow {aname}: more than {MAX_ARROW_LINES} "
                                        f"arrow lines exceeds desk scale", lineno)
            if aname in seen_arr:
                raise CategoryFileError(f"arrow {aname} already declared "
                                        f"on line {seen_arr[aname]}", lineno)
            if dname not in seen_obj:
                raise CategoryFileError(f"arrow {aname}: unknown object {dname}", lineno)
            if cname not in seen_obj:
                raise CategoryFileError(f"arrow {aname}: unknown object {cname}", lineno)
            seen_arr[aname] = lineno
            arrows.append((aname, dname, cname))
        elif kind == "id":
            oname, aname = m.groups()
            if oname not in seen_obj:
                raise CategoryFileError(f"id line for unknown object {oname}", lineno)
            if aname != "auto" and aname not in seen_arr:
                raise CategoryFileError(f"id {oname} names unknown arrow {aname}", lineno)
            if oname in seen_id:
                raise CategoryFileError(f"id of {oname} already given "
                                        f"on line {seen_id[oname]}", lineno)
            seen_id[oname] = lineno
            ids[oname] = aname
        else:
            gname, fname, hname = m.groups()
            if (gname, fname) in seen_comp:
                raise CategoryFileError(f"composite {gname} . {fname} already given "
                                        f"on line {seen_comp[(gname, fname)]}", lineno)
            seen_comp[(gname, fname)] = lineno
            comps.append((gname, fname, hname, lineno))

    for oname in objects:
        if oname not in ids:
            raise CategoryFileError(f"object {oname} has no id line", seen_obj[oname])

    resolved: list[tuple[str, str, str]] = []
    auto_names = {f"id_{o}" for o, a in ids.items() if a == "auto"}
    for gname, fname, hname, lineno in comps:
        for nm in (gname, fname, hname):
            if nm not in seen_arr and nm not in auto_names:
                raise CategoryFileError(f"compose line names unknown arrow {nm}", lineno)
        resolved.append((gname, fname, hname))

    try:
        return ref_build(objects, arrows, identities=ids, compositions=resolved, name=name)
    except MalformedInput as exc:
        raise CategoryFileError(str(exc)) from exc
