"""Sorted signatures, formulas, substitution and closed-term enumeration.

Concrete syntax: ``&``, ``|`` and ``->``, binding tightest first, ``->`` to
the right and the others to the left; constants ``0`` and ``1``; and
``forall x:s.`` / ``exists x:s.`` whose body extends as far right as
possible.  Each formula class states its own syntax in class constants, so
every walk over formulas branches on three shapes: a leaf, a ``Binary``
connective or a ``Quantifier``.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, Mapping

from .errors import (
    FormulaSyntaxError,
    ScaleExceeded,
    SortError,
    SortMismatch,
    TheoryFileError,
    UnknownSymbol,
)


# -- terms and formulas -------------------------------------------------------

# every live syntax node, by (class, *fields): one object per term and formula
_NODES: dict[tuple, _Ref] = {}


class _Ref(weakref.ref):
    """A weak reference to a node that keeps the node's table key."""
    __slots__ = ("key",)


def _drop(ref: _Ref) -> None:
    # a node died: its entry goes, atomically, if it holds a dead reference
    _remove_dead_weakref(_NODES, ref.key)


class _Interned(type):
    """Builds each syntax node once per class and fields while it lives, so
    equality is identity and a hash costs O(1); a node nothing else holds
    leaves the table.  The key holds only strings, tuples and nodes, none of
    which hashes or compares in Python code, so ``setdefault`` inserts
    atomically: two threads get one node."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            # the class's own __init__ binds keyword and default fields
            made = type.__call__(cls, *args, **kwargs)
            return cls(*(getattr(made, name) for name in cls.__match_args__))
        key = (cls, *args)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = type.__call__(cls, *args)
            ref = _Ref(node, _drop)
            ref.key = key
            while (held := _NODES.setdefault(key, ref)) is not ref:
                if (other := held()) is not None:
                    return other  # another thread built it first
                _remove_dead_weakref(_NODES, key)  # dead, its callback pending
        return node


def _union(parts: Iterable[tuple]) -> tuple[tuple[str, str], ...]:
    """The sorted union of sorted free-variable tuples."""
    out: tuple = ()
    for fv in parts:
        if fv and fv != out:
            out = tuple(sorted({*out, *fv})) if out else fv
    return out


class _Syntax(metaclass=_Interned):
    """A term or formula; ``fv`` holds the sorted (name, sort) pairs of its
    free variables, set once when the node is built."""
    __slots__ = ("fv", "__weakref__")

    def __post_init__(self) -> None:
        # an application's or atom's arguments' (0 and 1 have none)
        object.__setattr__(self, "fv", _union(t.fv for t in getattr(self, "args", ())))

    def __reduce__(self):
        # pickle and copy rebuild the node through its constructor
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Term(_Syntax):
    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True, eq=False, slots=True)
class Var(Term):
    name: str
    sort: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", ((self.name, self.sort),))


@dataclass(frozen=True, eq=False, slots=True)
class App(Term):
    func: str
    args: tuple[Term, ...]
    sort: str


class Formula(_Syntax):
    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, eq=False, slots=True)
class Zero(Formula):
    symbol = "0"


@dataclass(frozen=True, eq=False, slots=True)
class One(Formula):
    symbol = "1"


@dataclass(frozen=True, eq=False, slots=True)
class Atom(Formula):
    rel: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, eq=False, slots=True)
class Binary(Formula):
    """A connective: its ``symbol``, its precedence ``prec`` (& binds
    tightest), and the least precedence that stands bare as its left and as
    its right operand (``floors``: & and | associate to the left, -> right)."""
    left: Formula
    right: Formula
    symbol: ClassVar[str]
    prec: ClassVar[int]
    floors: ClassVar[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", _union((self.left.fv, self.right.fv)))


class Times(Binary):
    __slots__ = ()
    symbol, prec, floors = "&", 3, (3, 4)


class Plus(Binary):
    __slots__ = ()
    symbol, prec, floors = "|", 2, (2, 3)


class Arrow(Binary):
    __slots__ = ()
    symbol, prec, floors = "->", 1, (2, 1)


@dataclass(frozen=True, eq=False, slots=True)
class Quantifier(Formula):
    """``symbol var:sort. body``; the binder removes its variable by name."""
    var: str
    sort: str
    body: Formula
    symbol: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fv", tuple(p for p in self.body.fv if p[0] != self.var))


class Forall(Quantifier):
    __slots__ = ()
    symbol = "forall"


class Exists(Quantifier):
    __slots__ = ()
    symbol = "exists"


@dataclass(frozen=True)
class FunDecl:
    name: str
    arg_sorts: tuple[str, ...]
    result: str


@dataclass(frozen=True)
class RelDecl:
    name: str
    arg_sorts: tuple[str, ...]


@dataclass(frozen=True)
class Signature:
    """The generating data <sorts, functions, relations, axioms>."""
    sorts: tuple[str, ...]
    functions: tuple[FunDecl, ...]
    relations: tuple[RelDecl, ...]
    axioms: tuple[Formula, ...] = ()

    # the first declaration of a name is the one it names
    @cached_property
    def _functions_by_name(self) -> dict[str, FunDecl]:
        return {f.name: f for f in reversed(self.functions)}

    @cached_property
    def _relations_by_name(self) -> dict[str, RelDecl]:
        return {r.name: r for r in reversed(self.relations)}

    @cached_property
    def _sort_positions(self) -> dict[str, int]:
        """Each sort's position in ``sorts``, its first if repeated."""
        return {s: i for i, s in reversed(list(enumerate(self.sorts)))}


AtomKey = tuple[str, tuple[Term, ...]]


@dataclass
class Theory:
    """A signature plus the run configuration carried by a theory file."""
    signature: Signature
    depth: int
    atom_interp: dict[AtomKey, str]  # closed atom -> object name
    theory_id: str = "theory"
    # the file line of each interpreted atom and of "depth", if the file has one
    lines: dict[AtomKey | str, int] = field(default_factory=dict)


# -- basic formula operations -------------------------------------------------

def free_vars(f: Formula) -> frozenset[tuple[str, str]]:
    """Free (variable, sort) pairs; binders remove their variable by name."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return frozenset(f.fv)


def connective_depth(f: Formula) -> int:
    if isinstance(f, Binary):
        return 1 + max(connective_depth(f.left), connective_depth(f.right))
    if isinstance(f, Quantifier):
        return 1 + connective_depth(f.body)
    return 0


def subformulas(f: Formula) -> Iterator[Formula]:
    """``f`` and its subformulas, depth first, left before right."""
    yield f
    if isinstance(f, Binary):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Quantifier):
        yield from subformulas(f.body)


def substitute(f: Formula, t: Term, x: str) -> Formula:
    """Replace every free occurrence of ``x`` by the closed term ``t``."""
    if t.fv:
        raise SortMismatch(f"substituted term {t} must be closed")
    for name, sort in f.fv:
        if name == x and sort != t.sort:
            raise SortMismatch(f"cannot substitute {t} : {t.sort} for {x} : {sort}")
    return _subst(f, t, (x, t.sort))


def _subst(f: Formula, t: Term, v: tuple[str, str]) -> Formula:
    """``f`` with ``t`` for the free variable ``v``, a (name, sort) pair."""
    if v not in f.fv:
        return f
    if isinstance(f, Binary):
        return type(f)(_subst(f.left, t, v), _subst(f.right, t, v))
    if isinstance(f, Quantifier):
        return type(f)(f.var, f.sort, _subst(f.body, t, v))
    return Atom(f.rel, tuple(_subst_term(a, t, v) for a in f.args))


def _subst_term(u: Term, t: Term, v: tuple[str, str]) -> Term:
    if v not in u.fv:
        return u
    if isinstance(u, Var):
        return t
    return App(u.func, tuple(_subst_term(a, t, v) for a in u.args), u.sort)


def alpha_key(f: Formula, _env: tuple[str, ...] = ()) -> tuple:
    """Hashable key identifying formulas up to renaming of bound variables."""
    if isinstance(f, Binary):
        return (f.symbol, alpha_key(f.left, _env), alpha_key(f.right, _env))
    if isinstance(f, Quantifier):
        return (f.symbol, f.sort, alpha_key(f.body, _env + (f.var,)))
    if isinstance(f, Atom):
        return ("R", f.rel, tuple(_term_key(t, _env) for t in f.args))
    return (f.symbol,)


def _term_key(t: Term, env: tuple[str, ...]) -> tuple:
    if isinstance(t, Var):
        for depth, name in enumerate(reversed(env)):
            if name == t.name:
                return ("b", depth, t.sort)
        return ("v", t.name, t.sort)
    return ("a", t.func, tuple(_term_key(a, env) for a in t.args))


# -- printing ----------------------------------------------------------------

def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.func
    return f"{t.func}({', '.join(format_term(a) for a in t.args)})"


def format_formula(f: Formula, _floor: int = 0) -> str:
    """``f`` with the fewest parentheses that parse back to it: ``_floor``
    is the least precedence that stands bare where ``f`` stands."""
    if isinstance(f, Binary):
        left, right = f.floors
        text = f"{format_formula(f.left, left)} {f.symbol} {format_formula(f.right, right)}"
        return f"({text})" if f.prec < _floor else text
    if isinstance(f, Quantifier):
        text = f"{f.symbol} {f.var}:{f.sort}. {format_formula(f.body)}"
        return f"({text})" if _floor > 0 else text
    if isinstance(f, Atom):
        return f"{f.rel}({', '.join(format_term(t) for t in f.args)})" if f.args else f.rel
    return f.symbol


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"->|[()&|.,:*=]|[A-Za-z_][A-Za-z0-9_']*|[01]")
# tokens and whitespace from the start of the text: the match stops at the
# first character no token begins with
_SCAN_RE = re.compile(rf"(?:\s+|{_TOKEN_RE.pattern})*")
# the line boundaries of str.splitlines
_BREAK_RE = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
# the tokens that are not names, and "", which marks the end of input
_NOT_NAMES = frozenset(("->", "(", ")", "&", "|", ".", ",", ":", "*", "=", "0", "1", ""))
_BINARY = {c.symbol: c for c in (Times, Plus, Arrow)}
_QUANTIFIERS = {c.symbol: c for c in (Forall, Exists)}

# Deepest nesting a formula may have, both as the height of its syntax tree
# (connectives, quantifiers and argument lists) and as the depth to which the
# parser recurses (parentheses, right operands of ->, quantifier scopes and
# argument lists).  Parsing and every recursive pass over formulas
# (interpretation, substitution, printing) then stay far inside the
# interpreter's recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"formula nested more than {MAX_NESTING} levels deep"


def _position(text: str, offset: int, line_offset: int) -> tuple[int, int]:
    """Line and 1-based column of ``text[offset]``, with the lines numbered
    from ``line_offset + 1`` as ``str.splitlines`` splits them."""
    line, start = line_offset + 1, 0
    for m in _BREAK_RE.finditer(text, 0, offset):
        line, start = line + 1, m.end()
    return line, offset - start + 1


def parse_formula(text: str, sig: Signature,
                  env: Mapping[str, str] | None = None,
                  _line_offset: int = 0) -> Formula:
    """Parse and sort-check a formula; ``env`` declares free variables.

    Raises FormulaSyntaxError if the formula nests more than MAX_NESTING
    levels deep.  The tokens come from one ``findall`` over the text, and
    the parser walks them by index; a line and column are computed only for
    an error.
    """
    toks = _TOKEN_RE.findall(text)
    # findall skips what no token matches: whitespace, and any character
    # no token begins with
    if len("".join(toks)) != len("".join(text.split())):
        bad = _SCAN_RE.match(text).end()
        raise FormulaSyntaxError(f"unexpected character {text[bad]!r}",
                                 *_position(text, bad, _line_offset))
    end = len(toks)
    toks.append("")
    relations, functions = sig._relations_by_name, sig._functions_by_name
    sorts = sig._sort_positions
    scope = dict(env or {})  # variable name -> sort (innermost binding wins)
    i = depth = 0  # the next token; enclosing formulas and argument lists

    def fail(cls: type, message: str, at: int):
        """Raise ``cls`` at token ``at``: with no position at the end of input."""
        if at == end:
            raise cls(message)
        offset = next(itertools.islice(_TOKEN_RE.finditer(text), at, None)).start()
        raise cls(message, *_position(text, offset, _line_offset))

    def missing(tok: str):
        """Raise that the next token is not ``tok``."""
        fail(FormulaSyntaxError, f"unexpected end of input, expected {tok!r}" if i == end
             else f"expected {tok!r}, found {toks[i]!r}", i)

    # Each step returns the tree it parsed and the tree's height, terms
    # included.
    def formula(floor: int = 1) -> tuple[Formula, int]:
        """An operand, then the connectives of precedence ``floor`` or more
        with their right operands: & and | associate to the left, -> to the
        right.  With ``floor`` 1 this is a whole formula, one level down:
        parentheses, the right of ->, and quantifier scopes parse one."""
        nonlocal i, depth
        if floor == 1:
            if depth > MAX_NESTING:
                fail(FormulaSyntaxError, _TOO_DEEP, i)
            depth += 1
        tok = toks[i]
        if tok == "(":
            i += 1
            left, h = formula()
            if toks[i] != ")":
                missing(")")
            i += 1
        elif tok in _QUANTIFIERS:
            left, h = quantifier(_QUANTIFIERS[tok])
        elif tok not in _NOT_NAMES:
            rel = relations.get(tok)
            if rel is None:
                fail(UnknownSymbol, f"unknown relation {tok}", i)
            i += 1
            if toks[i] == "(" or rel.arg_sorts:
                args, h = arguments("relation", rel, i - 1)
                left = Atom(rel.name, args)
            else:
                left, h = Atom(tok, ()), 0
        elif tok == "0" or tok == "1":
            i += 1
            left, h = (Zero() if tok == "0" else One()), 0
        else:
            fail(FormulaSyntaxError, "unexpected end of input" if i == end
                 else f"expected a formula, found {tok!r}", i)
        while (op := _BINARY.get(toks[i])) and op.prec >= floor:
            i += 1
            right, hr = formula(op.floors[1])
            left, h = op(left, right), 1 + (h if h > hr else hr)
        if floor == 1:
            depth -= 1
        return left, h

    def quantifier(kind: type[Quantifier]) -> tuple[Formula, int]:
        nonlocal i
        var = toks[i + 1]
        if var in _NOT_NAMES:
            fail(FormulaSyntaxError, "unexpected end of input" if i + 1 == end
                 else f"expected a variable after {kind.symbol}, found {var!r}", i + 1)
        if toks[i + 2] != ":":
            i += 2
            missing(":")
        i += 3
        sort = toks[i]
        if i == end:
            fail(FormulaSyntaxError, "unexpected end of input", i)
        if sort not in sorts:
            fail(SortError, f"unknown sort {sort}", i)
        if toks[i + 1] != ".":
            i += 1
            missing(".")
        i += 2
        saved = scope.get(var)
        scope[var] = sort
        body, h = formula()  # scope extends as far right as possible
        if saved is None:
            del scope[var]
        else:
            scope[var] = saved
        return kind(var, sort, body), h + 1

    def arguments(kind: str, decl: FunDecl | RelDecl, at: int) -> tuple[tuple[Term, ...], int]:
        """The arguments of the symbol ``decl`` at token ``at``: the
        parenthesized list that follows, if any, one level down, and its
        height (0 if it is empty), checked against the declaration."""
        nonlocal i, depth
        args, h = [], -1
        if toks[i] == "(":
            i += 1
            if depth > MAX_NESTING:
                fail(FormulaSyntaxError, _TOO_DEEP, i)
            depth += 1
            if toks[i] != ")" and i < end:
                t, h = term()
                args.append(t)
                while toks[i] == ",":
                    i += 1
                    t, ht = term()
                    args.append(t)
                    h = h if h > ht else ht
            depth -= 1
            if toks[i] != ")":
                missing(")")
            i += 1
        want = decl.arg_sorts
        if len(args) != len(want):
            fail(SortError, f"{kind} {decl.name} expects {len(want)} "
                 f"arguments, got {len(args)}", at)
        for got, sort in zip(args, want):
            if got.sort != sort:
                fail(SortError, f"argument {format_term(got)} of {decl.name} has sort "
                     f"{got.sort}, expected {sort}", at)
        return tuple(args), h + 1

    def term() -> tuple[Term, int]:
        nonlocal i
        name = toks[i]
        if name in _NOT_NAMES:
            fail(FormulaSyntaxError, "unexpected end of input" if i == end
                 else f"expected a term, found {name!r}", i)
        i += 1
        # bound and declared variables shadow function symbols
        if name in scope and toks[i] != "(":
            return Var(name, scope[name]), 0
        fn = functions.get(name)
        if fn is None:
            if name in scope:
                return Var(name, scope[name]), 0
            fail(UnknownSymbol, f"unknown term symbol {name}", i - 1)
        if toks[i] != "(" and not fn.arg_sorts:
            return App(name, (), fn.result), 0
        args, h = arguments("function", fn, i - 1)
        return App(name, args, fn.result), h

    f, height = formula()
    if i < end:
        fail(FormulaSyntaxError, f"trailing input starting at {toks[i]!r}", i)
    if height > MAX_NESTING:
        fail(FormulaSyntaxError, _TOO_DEEP, 0)
    return f


# -- theory files --------------------------------------------------------------

_FUN_RE = re.compile(r"^fun\s+(\S+)\s*:\s*(.*)$")
_REL_RE = re.compile(r"^rel\s+(\S+)\s*(?::\s*(.*))?$")
_INTERP_RE = re.compile(r"^interp\s+(.*?)\s*=\s*(\S+)$")


def parse_theory(text: str, theory_id: str = "theory") -> Theory:
    """Parse the theory file format.

    Lines: ``sort s`` / ``fun f : s * s -> s`` (no arrow for constants) /
    ``rel P : s`` (bare name for nullary) / ``axiom F`` / ``depth n`` /
    ``interp P(c) = object``.  Declarations must precede their uses.
    """
    sorts: dict[str, None] = {}  # an ordered set
    functions: dict[str, FunDecl] = {}
    relations: dict[str, RelDecl] = {}
    axiom_srcs: list[tuple[str, int]] = []
    interp_srcs: list[tuple[str, str, int]] = []
    depth, lines = 2, {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "sort":
            name = line[len("sort"):].strip()
            if name.split() != [name]:
                raise TheoryFileError("sort line needs exactly one name", lineno)
            if name in sorts:
                raise TheoryFileError(f"sort {name} already declared", lineno)
            sorts[name] = None
        elif head == "fun":
            m = _FUN_RE.match(line)
            if not m:
                raise TheoryFileError("malformed fun line", lineno)
            fname, rhs = m.group(1), m.group(2).strip()
            if "->" in rhs:
                args_text, result = (part.strip() for part in rhs.rsplit("->", 1))
                arg_sorts = tuple(a.strip() for a in args_text.split("*")) if args_text else ()
            else:
                arg_sorts, result = (), rhs
            for s in (*arg_sorts, result):
                if s not in sorts:
                    raise TheoryFileError(f"fun {fname}: unknown sort {s}", lineno)
            if fname in functions:
                raise TheoryFileError(f"function {fname} already declared", lineno)
            functions[fname] = FunDecl(fname, arg_sorts, result)
        elif head == "rel":
            m = _REL_RE.match(line)
            if not m:
                raise TheoryFileError("malformed rel line", lineno)
            rname, args_text = m.group(1), (m.group(2) or "").strip()
            arg_sorts = tuple(a.strip() for a in args_text.split("*")) if args_text else ()
            for s in arg_sorts:
                if s not in sorts:
                    raise TheoryFileError(f"rel {rname}: unknown sort {s}", lineno)
            if rname in relations:
                raise TheoryFileError(f"relation {rname} already declared", lineno)
            relations[rname] = RelDecl(rname, arg_sorts)
        elif head == "axiom":
            axiom_srcs.append((line[len("axiom"):].strip(), lineno))
        elif head == "depth":
            if "depth" in lines:
                raise TheoryFileError(f"depth already given on line {lines['depth']}", lineno)
            try:
                depth = int(line[len("depth"):].strip())
            except ValueError:
                raise TheoryFileError("depth needs an integer", lineno) from None
            if depth < 1:
                raise TheoryFileError("depth must be >= 1", lineno)
            if depth > MAX_NESTING:
                raise TheoryFileError(f"depth must be <= {MAX_NESTING}", lineno)
            lines["depth"] = lineno
        elif head == "interp":
            m = _INTERP_RE.match(line)
            if not m:
                raise TheoryFileError("malformed interp line", lineno)
            interp_srcs.append((m.group(1), m.group(2), lineno))
        else:
            raise TheoryFileError(f"unrecognized line: {line}", lineno)

    decls = tuple(sorts), tuple(functions.values()), tuple(relations.values())
    bare_sig = Signature(*decls)

    def formula(src: str, lineno: int) -> Formula:
        try:
            return parse_formula(src, bare_sig, _line_offset=lineno - 1)
        except FormulaSyntaxError as exc:
            if exc.line:
                raise
            raise TheoryFileError(str(exc), lineno) from None  # it ended early

    axioms = [formula(src, lineno) for src, lineno in axiom_srcs]
    sig = Signature(*decls, tuple(axioms))

    atom_interp: dict[AtomKey, str] = {}
    for src, objname, lineno in interp_srcs:
        f = formula(src, lineno)
        if not isinstance(f, Atom):
            raise TheoryFileError(f"interp left side must be an atom, got {src}", lineno)
        key = (f.rel, f.args)
        if key in atom_interp:
            raise TheoryFileError(f"atom {src} interpreted twice", lineno)
        atom_interp[key], lines[key] = objname, lineno

    return Theory(sig, depth, atom_interp, theory_id, lines)


# -- closed term enumeration ---------------------------------------------------

# the most closed terms a term universe may hold
MAX_TERMS = 4096


@dataclass
class TermUniverse:
    """All closed terms per sort up to a nesting depth, in stable order."""
    by_sort: dict[str, tuple[Term, ...]]
    depth: int
    saturated: bool
    empty_sorts: tuple[str, ...] = ()

    def terms(self, sort: str) -> tuple[Term, ...]:
        return self.by_sort.get(sort, ())


def enumerate_closed_terms(sig: Signature, depth: int) -> TermUniverse:
    """All closed terms of nesting depth <= depth, ordered by depth then
    declaration/argument order.  A constant has depth 1.  ``saturated`` is
    set iff depth+1 would add nothing; sorts without closed terms are flagged.

    Each depth is counted before it is built: ScaleExceeded if ``depth``
    exceeds MAX_NESTING, which no formula can hold, or the universe would
    hold more than MAX_TERMS terms.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_NESTING:
        raise ScaleExceeded(f"term depth {depth} exceeds {MAX_NESTING}, "
                            f"the deepest nesting a formula may have")
    built = {s: [] for s in sig.sorts}  # by depth, then as the loop below makes them
    older = dict.fromkeys(sig.sorts, 0)  # how many of them are shallower than the last depth
    for d in range(1, depth + 2):
        # a term of depth exactly d is a constant if d is 1, and otherwise
        # has an argument of depth d - 1: every argument tuple but those of
        # older terms only
        size = sum(math.prod(len(built[s]) for s in fn.arg_sorts)
                   - (math.prod(older[s] for s in fn.arg_sorts) if d > 1 else 0)
                   for fn in sig.functions)
        if d > depth:
            break
        total = size + sum(map(len, built.values()))
        if total > MAX_TERMS:
            raise ScaleExceeded(f"the closed terms up to depth {d} number {total}, more than "
                                f"the {MAX_TERMS} a term universe may hold")
        fresh: dict[str, list[Term]] = {s: [] for s in sig.sorts}
        for fn in sig.functions:
            pools = [[(t, k >= older[s]) for k, t in enumerate(built[s])] for s in fn.arg_sorts]
            for combo in itertools.product(*pools):
                if d == 1 or any(last for _, last in combo):
                    fresh[fn.result].append(App(fn.name, tuple(t for t, _ in combo), fn.result))
        for s in sig.sorts:
            older[s] = len(built[s])
            built[s] += fresh[s]
    by_sort = {s: tuple(built[s]) for s in sig.sorts}
    empty = tuple(s for s in sig.sorts if not by_sort[s])
    return TermUniverse(by_sort, depth, size == 0, empty)


# -- bounded closed-formula enumeration ----------------------------------------

def canonical_var(sig: Signature, sort: str) -> str:
    """One designated variable name per sort for generated formulas."""
    if len(sig.sorts) == 1:
        return "x"
    return f"x{sig._sort_positions[sort]}"


# enumerate_formulas: the deepest level, the closed formulas kept at each
# level (None: all) and the formulas, open or closed, each level passes on
_MAX_DEPTH = 3
_LEVEL_CAPS = (None, None, 300, 200)
_POOL_CAP = 80


def enumerate_formulas(sig: Signature, universe: TermUniverse) -> list[Formula]:
    """Deterministically enumerate closed formulas of connective depth <= 3.

    Levels 0 and 1 are complete over the capped pools; deeper levels keep the
    first ``_LEVEL_CAPS[d]`` formulas in generation order, which interleaves
    every connective and both quantifiers.
    """
    free_pool: list[Formula] = []
    leaves: list[Formula] = [Zero(), One()]
    for rel in sig.relations:
        arg_options = []
        for s in rel.arg_sorts:
            opts: list[Term] = list(universe.terms(s))
            opts.append(Var(canonical_var(sig, s), s))
            arg_options.append(opts)
        if not rel.arg_sorts:
            leaves.append(Atom(rel.name, ()))
            continue
        for combo in itertools.product(*arg_options):
            atom = Atom(rel.name, tuple(combo))
            if atom.fv:
                free_pool.append(atom)
            else:
                leaves.append(atom)

    pools: list[list[Formula]] = [(leaves + free_pool)[:_POOL_CAP]]
    out: list[Formula] = list(leaves)

    for depth_level in range(1, _MAX_DEPTH + 1):
        cap = _LEVEL_CAPS[depth_level]
        fresh: dict[Formula, None] = {}  # in the order pushed
        closed_count = 0

        def push(f: Formula) -> bool:
            nonlocal closed_count
            if f not in fresh:
                fresh[f] = None
                if not f.fv:
                    out.append(f)
                    closed_count += 1
            return cap is not None and closed_count >= cap

        # quantifiers first (they matter most for coverage) but leave at
        # least two thirds of the level budget to the binary connectives
        quant_budget = None if cap is None else max(cap // 3, 1)
        for sort, body in itertools.product(sig.sorts, pools[depth_level - 1]):
            var = canonical_var(sig, sort)
            if not set(body.fv) <= {(var, sort)}:
                continue
            push(Forall(var, sort, body))
            push(Exists(var, sort, body))
            if quant_budget is not None and closed_count >= quant_budget:
                break
        # binaries: r ranges over the deepest pool so the result has this depth,
        # l cycles quickly through every shallower depth for shape diversity
        if cap is None or closed_count < cap:
            combined = [f for pool in pools[:depth_level] for f in pool]
            for r, l, kind in itertools.product(pools[depth_level - 1], combined,
                                                _BINARY.values()):
                if push(kind(l, r)) or (l != r and push(kind(r, l))):
                    break
        pools.append(list(fresh)[:_POOL_CAP])

    return out
