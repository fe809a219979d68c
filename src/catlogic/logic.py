"""Sorted signatures, formulas, substitution and closed-term enumeration.

Concrete syntax: ``&`` / ``|`` / ``->`` (right associative, precedence
``&`` > ``|`` > ``->``), constants ``0`` and ``1``, and ``forall x:s.`` /
``exists x:s.`` whose body extends as far right as possible.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import (
    FormulaSyntaxError,
    SortError,
    SortMismatch,
    TheoryFileError,
    UnknownSymbol,
)


# -- terms and formulas -------------------------------------------------------

class Term:
    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: str


@dataclass(frozen=True)
class App(Term):
    func: str
    args: tuple[Term, ...]
    sort: str


class Formula:
    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Zero(Formula):
    pass


@dataclass(frozen=True)
class One(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Times(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Plus(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Arrow(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sort: str
    body: Formula


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

    def function(self, name: str) -> FunDecl | None:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    def relation(self, name: str) -> RelDecl | None:
        for r in self.relations:
            if r.name == name:
                return r
        return None


AtomKey = tuple[str, tuple[Term, ...]]


@dataclass
class Theory:
    """A signature plus the run configuration carried by a theory file."""
    signature: Signature
    depth: int
    atom_interp: dict[AtomKey, str]  # closed atom -> object name
    theory_id: str = "theory"


# -- basic formula operations -------------------------------------------------

def term_vars(t: Term) -> frozenset[tuple[str, str]]:
    if isinstance(t, Var):
        return frozenset({(t.name, t.sort)})
    return frozenset().union(*[term_vars(a) for a in t.args]) if t.args else frozenset()


def free_vars(f: Formula) -> frozenset[tuple[str, str]]:
    """Free (variable, sort) pairs; binders remove their variable by name."""
    if isinstance(f, (Zero, One)):
        return frozenset()
    if isinstance(f, Atom):
        if not f.args:
            return frozenset()
        return frozenset().union(*[term_vars(t) for t in f.args])
    if isinstance(f, (Times, Plus, Arrow)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return frozenset((n, s) for n, s in free_vars(f.body) if n != f.var)
    raise TypeError(f"not a formula: {f!r}")


def connective_depth(f: Formula) -> int:
    if isinstance(f, (Zero, One, Atom)):
        return 0
    if isinstance(f, (Times, Plus, Arrow)):
        return 1 + max(connective_depth(f.left), connective_depth(f.right))
    if isinstance(f, (Forall, Exists)):
        return 1 + connective_depth(f.body)
    raise TypeError(f"not a formula: {f!r}")


def _subst_term(t: Term, repl: Term, x: str) -> Term:
    if isinstance(t, Var):
        if t.name == x:
            if t.sort != repl.sort:
                raise SortMismatch(
                    f"cannot substitute {repl} : {repl.sort} for {x} : {t.sort}")
            return repl
        return t
    return App(t.func, tuple(_subst_term(a, repl, x) for a in t.args), t.sort)


def substitute(f: Formula, t: Term, x: str) -> Formula:
    """Replace every free occurrence of ``x`` by the closed term ``t``."""
    if term_vars(t):
        raise SortMismatch(f"substituted term {t} must be closed")
    return _subst(f, t, x)


def _subst(f: Formula, t: Term, x: str) -> Formula:
    if isinstance(f, (Zero, One)):
        return f
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(_subst_term(a, t, x) for a in f.args))
    if isinstance(f, Times):
        return Times(_subst(f.left, t, x), _subst(f.right, t, x))
    if isinstance(f, Plus):
        return Plus(_subst(f.left, t, x), _subst(f.right, t, x))
    if isinstance(f, Arrow):
        return Arrow(_subst(f.left, t, x), _subst(f.right, t, x))
    if isinstance(f, Forall):
        if f.var == x:
            return f
        return Forall(f.var, f.sort, _subst(f.body, t, x))
    if isinstance(f, Exists):
        if f.var == x:
            return f
        return Exists(f.var, f.sort, _subst(f.body, t, x))
    raise TypeError(f"not a formula: {f!r}")


def alpha_key(f: Formula, _env: tuple[str, ...] = ()) -> tuple:
    """Hashable key identifying formulas up to renaming of bound variables."""
    if isinstance(f, Zero):
        return ("0",)
    if isinstance(f, One):
        return ("1",)
    if isinstance(f, Atom):
        return ("R", f.rel, tuple(_term_key(t, _env) for t in f.args))
    if isinstance(f, Times):
        return ("*", alpha_key(f.left, _env), alpha_key(f.right, _env))
    if isinstance(f, Plus):
        return ("+", alpha_key(f.left, _env), alpha_key(f.right, _env))
    if isinstance(f, Arrow):
        return (">", alpha_key(f.left, _env), alpha_key(f.right, _env))
    if isinstance(f, Forall):
        return ("A", f.sort, alpha_key(f.body, _env + (f.var,)))
    if isinstance(f, Exists):
        return ("E", f.sort, alpha_key(f.body, _env + (f.var,)))
    raise TypeError(f"not a formula: {f!r}")


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


_PREC = {Arrow: 1, Plus: 2, Times: 3}


def format_formula(f: Formula, _parent: int = 0) -> str:
    if isinstance(f, Zero):
        return "0"
    if isinstance(f, One):
        return "1"
    if isinstance(f, Atom):
        if not f.args:
            return f.rel
        return f"{f.rel}({', '.join(format_term(t) for t in f.args)})"
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        body = format_formula(f.body, 0)
        text = f"{kw} {f.var}:{f.sort}. {body}"
        return f"({text})" if _parent > 0 else text
    prec = _PREC[type(f)]
    if isinstance(f, Arrow):
        text = (f"{format_formula(f.left, prec + 1)} -> "
                f"{format_formula(f.right, prec)}")
    else:
        op = "&" if isinstance(f, Times) else "|"
        text = (f"{format_formula(f.left, prec)} {op} "
                f"{format_formula(f.right, prec + 1)}")
    return f"({text})" if prec < _parent else text


# -- parsing -----------------------------------------------------------------

# one alternative per token shape; whitespace is skipped and any other
# character is an error
_TOKEN_RE = re.compile(r"\s+|(->|[()&|.,:*=]|[A-Za-z_][A-Za-z0-9_']*|[01])|(.)", re.S)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


class _Tok(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(text: str, line_offset: int = 0) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines() or [""], 1 + line_offset):
        for m in _TOKEN_RE.finditer(line):
            tok, bad = m.groups()
            if tok:
                toks.append(_Tok(tok, lineno, m.start() + 1))
            elif bad:
                raise FormulaSyntaxError(f"unexpected character {bad!r}",
                                         lineno, m.start() + 1)
    return toks


# Deepest nesting a formula may have, both as the height of its syntax tree
# (connectives, quantifiers and argument lists) and as the depth to which the
# parser recurses (parentheses, right operands of ->, quantifier scopes and
# argument lists).  Parsing and every recursive pass over formulas
# (interpretation, substitution, printing) then stay far inside the
# interpreter's recursion limit.
MAX_NESTING = 100


def _height(f: Formula | Term) -> int:
    """Height of the syntax tree of ``f``, terms included, without recursion."""
    height, stack = 0, [(f, 0)]
    while stack:
        node, h = stack.pop()
        height = max(height, h)
        if isinstance(node, (Times, Plus, Arrow)):
            stack += [(node.left, h + 1), (node.right, h + 1)]
        elif isinstance(node, (Forall, Exists)):
            stack.append((node.body, h + 1))
        elif isinstance(node, (Atom, App)):
            stack += [(t, h + 1) for t in node.args]
    return height


class _FormulaParser:
    def __init__(self, toks: list[_Tok], sig: Signature, env: dict[str, str]):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.env = dict(env)  # variable name -> sort (innermost binding wins)
        self.depth = 0  # enclosing formulas and argument lists

    def check_depth(self) -> None:
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise FormulaSyntaxError(f"formula nested more than {MAX_NESTING} levels deep",
                                     *((tok.line, tok.col) if tok else ()))

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError(
                f"unexpected end of input" + (f", expected {expected!r}" if expected else ""))
        if expected is not None and tok.text != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {tok.text!r}",
                                     tok.line, tok.col)
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Take the next token if it is ``text``."""
        if (tok := self.peek()) and tok.text == text:
            self.pos += 1
            return True
        return False

    def formula(self) -> Formula:
        # parentheses, the right of ->, and quantifier scopes parse a formula
        # one level down
        self.check_depth()
        self.depth += 1
        left = self.disjunction()
        if self.accept("->"):
            left = Arrow(left, self.formula())  # right associative
        self.depth -= 1
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.accept("|"):
            left = Plus(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unit()
        while self.accept("&"):
            left = Times(left, self.unit())
        return left

    def unit(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input")
        if tok.text == "0":
            self.take()
            return Zero()
        if tok.text == "1":
            self.take()
            return One()
        if tok.text == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if tok.text in ("forall", "exists"):
            return self.quantifier()
        if _NAME_RE.fullmatch(tok.text):
            return self.atom()
        raise FormulaSyntaxError(f"expected a formula, found {tok.text!r}",
                                 tok.line, tok.col)

    def quantifier(self) -> Formula:
        kw = self.take().text
        var = self.take()
        if not _NAME_RE.fullmatch(var.text):
            raise FormulaSyntaxError(f"expected a variable after {kw}, "
                                     f"found {var.text!r}", var.line, var.col)
        self.take(":")
        sort = self.take()
        if sort.text not in self.sig.sorts:
            raise SortError(f"unknown sort {sort.text}", sort.line, sort.col)
        self.take(".")
        saved = self.env.get(var.text)
        self.env[var.text] = sort.text
        body = self.formula()  # scope extends as far right as possible
        if saved is None:
            del self.env[var.text]
        else:
            self.env[var.text] = saved
        cls = Forall if kw == "forall" else Exists
        return cls(var.text, sort.text, body)

    def atom(self) -> Formula:
        name = self.take()
        rel = self.sig.relation(name.text)
        if rel is None:
            raise UnknownSymbol(f"unknown relation {name.text}", name.line, name.col)
        args = self.arguments()
        if len(args) != len(rel.arg_sorts):
            raise SortError(f"relation {rel.name} expects {len(rel.arg_sorts)} "
                            f"arguments, got {len(args)}", name.line, name.col)
        for got, want in zip(args, rel.arg_sorts):
            if got.sort != want:
                raise SortError(f"argument {format_term(got)} of {rel.name} has sort "
                                f"{got.sort}, expected {want}", name.line, name.col)
        return Atom(rel.name, tuple(args))

    def arguments(self) -> list[Term]:
        """The parenthesized argument list that follows, if any, one level down."""
        args: list[Term] = []
        if self.accept("("):
            self.check_depth()
            self.depth += 1
            if self.peek() and self.peek().text != ")":
                args.append(self.term())
                while self.accept(","):
                    args.append(self.term())
            self.depth -= 1
            self.take(")")
        return args

    def term(self) -> Term:
        name = self.take()
        if not _NAME_RE.fullmatch(name.text):
            raise FormulaSyntaxError(f"expected a term, found {name.text!r}",
                                     name.line, name.col)
        # bound and declared variables shadow function symbols
        if name.text in self.env and not (self.peek() and self.peek().text == "("):
            return Var(name.text, self.env[name.text])
        fn = self.sig.function(name.text)
        if fn is None:
            if name.text in self.env:
                return Var(name.text, self.env[name.text])
            raise UnknownSymbol(f"unknown term symbol {name.text}", name.line, name.col)
        args = self.arguments()
        if len(args) != len(fn.arg_sorts):
            raise SortError(f"function {fn.name} expects {len(fn.arg_sorts)} "
                            f"arguments, got {len(args)}", name.line, name.col)
        for got, want in zip(args, fn.arg_sorts):
            if got.sort != want:
                raise SortError(f"argument {format_term(got)} of {fn.name} has sort "
                                f"{got.sort}, expected {want}", name.line, name.col)
        return App(fn.name, tuple(args), fn.result)


def parse_formula(text: str, sig: Signature,
                  env: Mapping[str, str] | None = None,
                  _line_offset: int = 0) -> Formula:
    """Parse and sort-check a formula; ``env`` declares free variables.

    Raises FormulaSyntaxError if the formula nests more than MAX_NESTING
    levels deep.
    """
    toks = _tokenize(text, _line_offset)
    p = _FormulaParser(toks, sig, dict(env or {}))
    f = p.formula()
    if (tok := p.peek()) is not None:
        raise FormulaSyntaxError(f"trailing input starting at {tok.text!r}",
                                 tok.line, tok.col)
    # a syntax tree of height h has at least h + 1 tokens
    if len(toks) > MAX_NESTING and _height(f) > MAX_NESTING:
        raise FormulaSyntaxError(f"formula nested more than {MAX_NESTING} levels deep",
                                 toks[0].line, toks[0].col)
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
    sorts: list[str] = []
    functions: list[FunDecl] = []
    relations: list[RelDecl] = []
    axiom_srcs: list[tuple[str, int]] = []
    interp_srcs: list[tuple[str, str, int]] = []
    depth = 2

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "sort":
            name = line[len("sort"):].strip()
            if not name or " " in name:
                raise TheoryFileError("sort line needs exactly one name", lineno)
            if name in sorts:
                raise TheoryFileError(f"sort {name} already declared", lineno)
            sorts.append(name)
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
            if any(f.name == fname for f in functions):
                raise TheoryFileError(f"function {fname} already declared", lineno)
            functions.append(FunDecl(fname, arg_sorts, result))
        elif head == "rel":
            m = _REL_RE.match(line)
            if not m:
                raise TheoryFileError("malformed rel line", lineno)
            rname, args_text = m.group(1), (m.group(2) or "").strip()
            arg_sorts = tuple(a.strip() for a in args_text.split("*")) if args_text else ()
            for s in arg_sorts:
                if s not in sorts:
                    raise TheoryFileError(f"rel {rname}: unknown sort {s}", lineno)
            if any(r.name == rname for r in relations):
                raise TheoryFileError(f"relation {rname} already declared", lineno)
            relations.append(RelDecl(rname, arg_sorts))
        elif head == "axiom":
            axiom_srcs.append((line[len("axiom"):].strip(), lineno))
        elif head == "depth":
            try:
                depth = int(line[len("depth"):].strip())
            except ValueError:
                raise TheoryFileError("depth needs an integer", lineno) from None
            if depth < 1:
                raise TheoryFileError("depth must be >= 1", lineno)
        elif head == "interp":
            m = _INTERP_RE.match(line)
            if not m:
                raise TheoryFileError("malformed interp line", lineno)
            interp_srcs.append((m.group(1), m.group(2), lineno))
        else:
            raise TheoryFileError(f"unrecognized line: {line}", lineno)

    bare_sig = Signature(tuple(sorts), tuple(functions), tuple(relations))
    axioms = [parse_formula(src, bare_sig, _line_offset=lineno - 1)
              for src, lineno in axiom_srcs]
    sig = Signature(tuple(sorts), tuple(functions), tuple(relations), tuple(axioms))

    atom_interp: dict[AtomKey, str] = {}
    for src, objname, lineno in interp_srcs:
        f = parse_formula(src, bare_sig, _line_offset=lineno - 1)
        if not isinstance(f, Atom):
            raise TheoryFileError(f"interp left side must be an atom, got {src}", lineno)
        if free_vars(f):
            raise TheoryFileError(f"interp atom must be closed: {src}", lineno)
        key = (f.rel, f.args)
        if key in atom_interp:
            raise TheoryFileError(f"atom {src} interpreted twice", lineno)
        atom_interp[key] = objname

    return Theory(sig, depth, atom_interp, theory_id)


def parse_signature(text: str) -> Signature:
    """The signature part of a theory file (sorts, functions, relations, axioms)."""
    return parse_theory(text).signature


# -- closed term enumeration ---------------------------------------------------

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
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def grow(levels: dict[str, list[list[Term]]], d: int) -> dict[str, list[Term]]:
        # terms whose nesting depth is exactly d
        fresh: dict[str, list[Term]] = {s: [] for s in sig.sorts}
        for fn in sig.functions:
            if d == 1:
                if not fn.arg_sorts:
                    fresh[fn.result].append(App(fn.name, (), fn.result))
                continue
            if not fn.arg_sorts:
                continue
            pools = [list(itertools.chain.from_iterable(levels[s][1:d]))
                     for s in fn.arg_sorts]
            if any(not p for p in pools):
                continue
            for combo in itertools.product(*pools):
                if max(_term_depth(t) for t in combo) == d - 1:
                    fresh[fn.result].append(App(fn.name, tuple(combo), fn.result))
        return fresh

    levels: dict[str, list[list[Term]]] = {s: [[]] for s in sig.sorts}
    for d in range(1, depth + 2):
        fresh = grow(levels, d)
        for s in sig.sorts:
            levels[s].append(fresh[s])

    by_sort = {s: tuple(itertools.chain.from_iterable(levels[s][1:depth + 1]))
               for s in sig.sorts}
    saturated = all(not levels[s][depth + 1] for s in sig.sorts)
    empty = tuple(s for s in sig.sorts if not by_sort[s])
    return TermUniverse(by_sort, depth, saturated, empty)


def _term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    if not t.args:
        return 1
    return 1 + max(_term_depth(a) for a in t.args)


# -- bounded closed-formula enumeration ----------------------------------------

def canonical_var(sig: Signature, sort: str) -> str:
    """One designated variable name per sort for generated formulas."""
    if len(sig.sorts) == 1:
        return "x"
    return f"x{sig.sorts.index(sort)}"


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
    free_pool: list[tuple[Formula, frozenset]] = []
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
            fv = free_vars(atom)
            if fv:
                free_pool.append((atom, fv))
            else:
                leaves.append(atom)

    pools: list[list[tuple[Formula, frozenset]]] = [
        ([(f, frozenset()) for f in leaves] + free_pool)[:_POOL_CAP]]
    out: list[Formula] = list(leaves)

    for depth_level in range(1, _MAX_DEPTH + 1):
        cap = _LEVEL_CAPS[depth_level]
        fresh: list[tuple[Formula, frozenset]] = []
        seen: set[Formula] = set()
        closed_count = 0

        def push(f: Formula, fv: frozenset) -> bool:
            nonlocal closed_count
            if f in seen:
                return cap is not None and closed_count >= cap
            seen.add(f)
            fresh.append((f, fv))
            if not fv:
                out.append(f)
                closed_count += 1
            return cap is not None and closed_count >= cap

        done = False
        # quantifiers first (they matter most for coverage) but leave at
        # least two thirds of the level budget to the binary connectives
        quant_budget = None if cap is None else max(cap // 3, 1)
        for sort in sig.sorts:
            var = canonical_var(sig, sort)
            for (body, fv) in pools[depth_level - 1]:
                if not (fv <= {(var, sort)}):
                    continue
                rest = frozenset(p for p in fv if p != (var, sort))
                push(Forall(var, sort, body), rest)
                push(Exists(var, sort, body), rest)
                if quant_budget is not None and closed_count >= quant_budget:
                    done = True
                    break
            if done:
                break
        done = cap is not None and closed_count >= cap
        # binaries: r ranges over the deepest pool so the result has this depth,
        # l cycles quickly through every shallower depth for shape diversity
        if not done:
            combined = [p for pool in pools[:depth_level] for p in pool]
            for (r, fvr) in pools[depth_level - 1]:
                for (l, fvl) in combined:
                    fv = fvl | fvr
                    for ctor in (Times, Plus, Arrow):
                        if push(ctor(l, r), fv) or (l != r and push(ctor(r, l), fv)):
                            done = True
                            break
                    if done:
                        break
                if done:
                    break
        pools.append(fresh[:_POOL_CAP])

    return out
