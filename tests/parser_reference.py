"""The per-character tokenizer and the formula parser that the one-regex
tokenizer replaced, kept as the reference its trees and errors (type,
message, line and column) must match."""

import re
from dataclasses import dataclass
from typing import Mapping

from catlogic.errors import FormulaSyntaxError, SortError, UnknownSymbol
from catlogic.logic import (
    MAX_NESTING,
    App,
    Arrow,
    Atom,
    Exists,
    Forall,
    Formula,
    One,
    Plus,
    Signature,
    Term,
    Times,
    Var,
    Zero,
    format_term,
)

_TOKEN_RE = re.compile(r"->|[()&|.,:*=]|[A-Za-z_][A-Za-z0-9_']*|[01]")


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


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str, line_offset: int = 0) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines() or [""], 1 + line_offset):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise FormulaSyntaxError(f"unexpected character {line[pos]!r}",
                                         lineno, pos + 1)
            toks.append(_Tok(m.group(0), lineno, pos + 1))
            pos = m.end()
    return toks


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

    def formula(self) -> Formula:
        self.check_depth()
        self.depth += 1
        left = self.disjunction()
        if (tok := self.peek()) and tok.text == "->":
            self.take()
            left = Arrow(left, self.formula())  # right associative
        self.depth -= 1
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while (tok := self.peek()) and tok.text == "|":
            self.take()
            left = Plus(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unit()
        while (tok := self.peek()) and tok.text == "&":
            self.take()
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
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", tok.text):
            return self.atom()
        raise FormulaSyntaxError(f"expected a formula, found {tok.text!r}",
                                 tok.line, tok.col)

    def quantifier(self) -> Formula:
        kw = self.take().text
        var = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", var.text):
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
        rel = next((r for r in self.sig.relations if r.name == name.text), None)
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
        args: list[Term] = []
        if (tok := self.peek()) and tok.text == "(":
            self.take()
            self.check_depth()
            self.depth += 1
            if self.peek() and self.peek().text != ")":
                args.append(self.term())
                while self.peek() and self.peek().text == ",":
                    self.take()
                    args.append(self.term())
            self.depth -= 1
            self.take(")")
        return args

    def term(self) -> Term:
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", name.text):
            raise FormulaSyntaxError(f"expected a term, found {name.text!r}",
                                     name.line, name.col)
        # bound and declared variables shadow function symbols
        if name.text in self.env and not (self.peek() and self.peek().text == "("):
            return Var(name.text, self.env[name.text])
        fn = next((f for f in self.sig.functions if f.name == name.text), None)
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


def ref_parse_formula(text: str, sig: Signature,
                      env: Mapping[str, str] | None = None,
                      _line_offset: int = 0) -> Formula:
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
