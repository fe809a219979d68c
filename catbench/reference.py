"""The independent reference that every benchmark answer is checked against.

Nothing here imports catlogic.  It reads the same texts catlogic receives
and predicts what catlogic must answer (differential testing):

* thin models: the lattice is rebuilt from the arrows, each element is
  represented by its down-set of join-irreducibles (Birkhoff), and formulas
  are evaluated with meet as intersection, join as union and
  ``a -> b = {x : down(x) & a <= b}``;
* finite-set models: products fail on exactly the pairs whose size product
  is absent, coproducts on exactly the pairs whose size sum is absent;
* certificates: every PASS delta arrow and its inverse are decoded into
  functions and composed here, and must give both identities.
"""

from __future__ import annotations

import itertools
import re

_TOKEN_RE = re.compile(r"\s*(->|[()&|.,:]|[A-Za-z_][A-Za-z0-9_']*|[01])")


class UnmodelledInput(Exception):
    """An input the reference cannot model."""


# -- formulas ----------------------------------------------------------------

def parse_formula(text: str) -> tuple:
    """Text to a tuple tree: ('0',), ('1',), ('atom', rel, terms),
    ('&'|'|'|'->', left, right), ('forall'|'exists', var, body).  Terms are
    ('var', name) or ('app', name, args)."""
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise UnmodelledInput(f"bad formula text at {text[pos:]!r}")
        toks.append(m.group(1))
        pos = m.end()
    parser = _Parser(toks)
    tree = parser.implication(frozenset())
    if parser.i != len(toks):
        raise UnmodelledInput(f"trailing input in {text!r}")
    return tree


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise UnmodelledInput(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def implication(self, bound: frozenset) -> tuple:
        left = self.binary(bound, "|", self.conjunction)
        if self.peek() == "->":
            self.take()
            return ("->", left, self.implication(bound))
        return left

    def conjunction(self, bound: frozenset) -> tuple:
        return self.binary(bound, "&", self.unit)

    def binary(self, bound, op, sub) -> tuple:
        left = sub(bound)
        while self.peek() == op:
            self.take()
            left = (op, left, sub(bound))
        return left

    def unit(self, bound: frozenset) -> tuple:
        tok = self.take()
        if tok in ("0", "1"):
            return (tok,)
        if tok == "(":
            inner = self.implication(bound)
            self.take(")")
            return inner
        if tok in ("forall", "exists"):
            var = self.take()
            self.take(":")
            self.take()  # the one sort
            self.take(".")
            return (tok, var, self.implication(bound | {var}))
        args = self.arguments(bound) if self.peek() == "(" else ()
        return ("atom", tok, args)

    def arguments(self, bound: frozenset) -> tuple:
        self.take("(")
        args = [self.term(bound)]
        while self.peek() == ",":
            self.take()
            args.append(self.term(bound))
        self.take(")")
        return tuple(args)

    def term(self, bound: frozenset) -> tuple:
        name = self.take()
        if self.peek() == "(":
            return ("app", name, self.arguments(bound))
        return ("var", name) if name in bound else ("app", name, ())


def render_term(t: tuple, env: dict[str, str]) -> str:
    if t[0] == "var":
        return env[t[1]]
    if not t[2]:
        return t[1]
    return f"{t[1]}({', '.join(render_term(a, env) for a in t[2])})"


# -- theories -----------------------------------------------------------------

class TheoryFacts:
    """What the reference needs from a theory text: the closed-term universe
    (a constant has depth 1), the axioms in order and the atom map."""

    def __init__(self, text: str):
        functions: list[tuple[str, int]] = []
        self.depth = 2
        self.axioms: list[str] = []
        self.atom_objects: dict[tuple[str, tuple[str, ...]], str] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            head = line.split(None, 1)[0] if line else ""
            if head == "fun":
                name, sig = (part.strip() for part in line[3:].split(":", 1))
                arity = sig.split("->")[0].count("*") + 1 if "->" in sig else 0
                functions.append((name, arity))
            elif head == "depth":
                self.depth = int(line.split()[1])
            elif head == "axiom":
                self.axioms.append(line[len("axiom"):].strip())
            elif head == "interp":
                lhs, obj = (part.strip() for part in line[len("interp"):].rsplit("=", 1))
                atom = parse_formula(lhs)
                if atom[0] != "atom":
                    raise UnmodelledInput(f"interp of a non-atom: {lhs}")
                key = (atom[1], tuple(render_term(t, {}) for t in atom[2]))
                self.atom_objects[key] = obj
        self.universe = _closed_terms(functions, self.depth)


def _closed_terms(functions: list[tuple[str, int]], depth: int) -> list[str]:
    by_depth: list[list[str]] = [[], [f for f, n in functions if n == 0]]
    for d in range(2, depth + 1):
        shallower = [t for level in by_depth[1:d] for t in level]
        fresh = []
        for name, arity in functions:
            if arity == 0:
                continue
            for args in itertools.product(shallower, repeat=arity):
                if any(a in by_depth[d - 1] for a in args):
                    fresh.append(f"{name}({', '.join(args)})")
        by_depth.append(fresh)
    return [t for level in by_depth for t in level]


# -- thin models: the down-set evaluator --------------------------------------

def read_category(text: str) -> tuple[list[str], dict[str, tuple[str, str]]]:
    """Objects in declaration order and every arrow's endpoints, with the
    ``auto`` identities named ``id_<object>``."""
    objects: list[str] = []
    arrows: dict[str, tuple[str, str]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("object "):
            objects.append(line.split()[1])
        elif line.startswith("arrow "):
            name, ends = line[len("arrow "):].split(":", 1)
            dom, cod = (part.strip() for part in ends.split("->"))
            arrows[name.strip()] = (dom, cod)
        elif line.startswith("id ") and line.endswith("= auto"):
            obj = line.split()[1]
            arrows[f"id_{obj}"] = (obj, obj)
    return objects, arrows


class DownsetLattice:
    """A finite distributive lattice given as a thin category, with each
    element represented by the bit mask of join-irreducibles below it."""

    def __init__(self, category_text: str):
        objects, arrows = read_category(category_text)
        index = {o: i for i, o in enumerate(objects)}
        n = len(objects)
        leq = [[i == j for j in range(n)] for i in range(n)]
        for dom, cod in arrows.values():
            leq[index[dom]][index[cod]] = True
        below = [[x for x in range(n) if x != e and leq[x][e]] for e in range(n)]
        # join-irreducible: exactly one lower cover
        irreducible = [e for e in range(n)
                       if sum(1 for y in below[e]
                              if not any(leq[y][z] for z in below[e] if z != y)) == 1]
        self.points = irreducible
        self.mask = {objects[e]: sum(1 << k for k, j in enumerate(irreducible) if leq[j][e])
                     for e in range(n)}
        self.name = {m: o for o, m in self.mask.items()}
        if len(self.name) != n:
            raise UnmodelledInput("not a distributive lattice: two elements "
                                 "share their join-irreducibles")
        self.down = [self.mask[objects[j]] for j in irreducible]
        self.top = (1 << len(irreducible)) - 1
        for a, b in itertools.product(self.name, repeat=2):
            if a & b not in self.name or a | b not in self.name:
                raise UnmodelledInput("not a distributive lattice: down-sets "
                                     "not closed under meet and join")

    def implies(self, a: int, b: int) -> int:
        return sum(1 << k for k, d in enumerate(self.down) if d & a & ~b == 0)

    def evaluate(self, tree: tuple, facts: TheoryFacts,
                 env: dict[str, str] | None = None) -> int:
        env = env or {}
        op = tree[0]
        if op == "0":
            return 0
        if op == "1":
            return self.top
        if op == "atom":
            key = (tree[1], tuple(render_term(t, env) for t in tree[2]))
            return self.mask[facts.atom_objects[key]]
        if op in ("forall", "exists"):
            acc = self.top if op == "forall" else 0
            for t in facts.universe:
                v = self.evaluate(tree[2], facts, {**env, tree[1]: t})
                acc = acc & v if op == "forall" else acc | v
            return acc
        left = self.evaluate(tree[1], facts, env)
        right = self.evaluate(tree[2], facts, env)
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        return self.implies(left, right)

    def answer(self, formula_text: str, facts: TheoryFacts) -> str:
        return self.name[self.evaluate(parse_formula(formula_text), facts)]

    def carrier(self, obj: str) -> list[int]:
        """The join-irreducibles below ``obj``: a thin arrow is the
        inclusion function between two carriers."""
        m = self.mask[obj]
        return [k for k in range(len(self.points)) if m >> k & 1]


# -- finite-set models ----------------------------------------------------------

def finset_size(obj: str) -> int:
    """Sizes are part of the generated names ``s<size>x<copy>``."""
    return int(obj[1:obj.index("x")])


def finset_failing_pairs(objects: list[str]) -> tuple[set, set]:
    """Pairs without a product and pairs without a coproduct."""
    present = {finset_size(o) for o in objects}
    pairs = list(itertools.product(objects, repeat=2))
    products = {(a, b) for a, b in pairs
                if finset_size(a) * finset_size(b) not in present}
    coproducts = {(a, b) for a, b in pairs
                  if finset_size(a) + finset_size(b) not in present}
    return products, coproducts


# -- certificates as functions ------------------------------------------------------

class ArrowDecoder:
    """Turns an arrow name into (dom, cod, function on carriers)."""

    def __init__(self, category_text: str, thin: bool):
        self.objects, self.arrows = read_category(category_text)
        self.lattice = DownsetLattice(category_text) if thin else None

    def decode(self, name: str) -> tuple[str, str, tuple[int, ...]]:
        if name not in self.arrows:
            raise UnmodelledInput(f"no arrow named {name}")
        dom, cod = self.arrows[name]
        if self.lattice is not None:
            src, tgt = self.lattice.carrier(dom), self.lattice.carrier(cod)
            if not set(src) <= set(tgt):
                raise UnmodelledInput(f"{name}: {dom} is not below {cod}")
            return dom, cod, tuple(tgt.index(p) for p in src)
        if name == f"id_{dom}":
            return dom, cod, tuple(range(finset_size(dom)))
        values = tuple(int(ch) for ch in name.rsplit("_v", 1)[1])
        if len(values) != finset_size(dom) or any(v >= finset_size(cod) for v in values):
            raise UnmodelledInput(f"{name} is not a function {dom} -> {cod}")
        return dom, cod, values


def check_delta(decoder: ArrowDecoder, triple: tuple[str, str, str],
                arrow: str, inverse: str) -> str | None:
    """None if ``arrow`` : (a x b) + (a x c) -> a x (b + c) and ``inverse``
    compose to both identities; otherwise what is wrong."""
    dom, cod, f = decoder.decode(arrow)
    idom, icod, g = decoder.decode(inverse)
    if (idom, icod) != (cod, dom):
        return f"{inverse} is not {cod} -> {dom}"
    if tuple(g[i] for i in f) != tuple(range(len(f))):
        return f"{inverse} . {arrow} is not the identity of {dom}"
    if tuple(f[i] for i in g) != tuple(range(len(g))):
        return f"{arrow} . {inverse} is not the identity of {cod}"
    lat = decoder.lattice
    if lat is not None:
        ma, mb, mc = (lat.mask[o] for o in triple)
        want_dom, want_cod = (ma & mb) | (ma & mc), ma & (mb | mc)
        if (lat.mask[dom], lat.mask[cod]) != (want_dom, want_cod):
            return f"{arrow} is not {lat.name[want_dom]} -> {lat.name[want_cod]}"
    else:
        sa, sb, sc = (finset_size(o) for o in triple)
        if finset_size(dom) != sa * (sb + sc):
            return f"{arrow} starts at a set of the wrong size"
    return None


# -- whole reports ----------------------------------------------------------------------

def report_lines(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


_PRODUCT_RE = re.compile(r"no product for \((\S+), (\S+)\)")
_COPRODUCT_RE = re.compile(r"no coproduct for \((\S+), (\S+)\)")


def check_report(command: str, exit_code: int, report: str, model_text: str,
                 theory_text: str | None, thin: bool) -> list[str]:
    """Every way ``report`` and ``exit_code`` differ from the reference."""
    lines = report_lines(report)
    problems: list[str] = []
    objects, _ = read_category(model_text)

    if lines.get("validation") != "PASS":
        problems.append(f"validation = {lines.get('validation')}")
    if command == "validate":
        if exit_code != 0:
            problems.append(f"exit {exit_code}, expected 0")
        return problems

    if command == "check":
        verdicts = {k: v for k, v in lines.items()
                    if re.fullmatch(r"condition\.\d\.[a-z-]+", k)}
        if len(verdicts) != 7:
            problems.append(f"{len(verdicts)} condition verdicts, expected 7")
        if thin:
            problems += [f"{k} = {v}" for k, v in verdicts.items() if v != "PASS"]
            lattice = DownsetLattice(model_text)
            facts = TheoryFacts(theory_text or "")
            for i, ax in enumerate(facts.axioms, 1):
                want = lattice.answer(ax, facts)
                got = lines.get(f"interpret.{i:03d}.object")
                if got != want:
                    problems.append(f"axiom {i}: {got}, expected {want}")
        else:
            no_prod, no_coprod = finset_failing_pairs(objects)
            details = [v for k, v in lines.items()
                       if re.fullmatch(r"condition\.[12]\.detail\.\d+", k)]
            got_prod = {m.groups() for d in details if (m := _PRODUCT_RE.search(d))}
            got_coprod = {m.groups() for d in details if (m := _COPRODUCT_RE.search(d))}
            if got_prod != no_prod:
                problems.append(f"products fail on {sorted(got_prod)}, "
                                f"expected {sorted(no_prod)}")
            if got_coprod != no_coprod:
                problems.append(f"coproducts fail on {sorted(got_coprod)}, "
                                f"expected {sorted(no_coprod)}")
            for number, expected in ((1, no_prod), (2, no_coprod)):
                status = next((v for k, v in verdicts.items()
                               if k.startswith(f"condition.{number}.")), None)
                if status != ("FAIL" if expected else "PASS"):
                    problems.append(f"condition {number} = {status}")
        overall = "PASS" if all(v == "PASS" for v in verdicts.values()) else "FAIL"
        if lines.get("conditions.overall") != overall:
            problems.append(f"conditions.overall = {lines.get('conditions.overall')}")
        want_exit = 0 if overall == "PASS" else 1
        if exit_code != want_exit:
            problems.append(f"exit {exit_code}, expected {want_exit}")
        return problems

    decoder = ArrowDecoder(model_text, thin)
    n = len(objects)
    if lines.get("delta.count") != str(n ** 3):
        problems.append(f"delta.count = {lines.get('delta.count')}, expected {n ** 3}")
    failed = 0
    for i in range(1, n ** 3 + 1):
        key = f"delta.{i:04d}"
        triple = tuple(lines.get(f"{key}.triple", "()")[1:-1].split(", "))
        verdict = lines.get(f"{key}.verdict", "")
        if verdict != "PASS":
            failed += 1
            if thin:
                problems.append(f"{key}: {verdict}")
            continue
        try:
            why = check_delta(decoder, triple, lines.get(f"{key}.arrow", ""),
                              lines.get(f"{key}.inverse", ""))
        except (UnmodelledInput, KeyError) as exc:  # a name the model lacks
            why = f"unreadable certificate: {exc}"
        if why:
            problems.append(f"{key} {triple}: {why}")
    for key, value in lines.items():
        if re.fullmatch(r"frobenius\.\d+\.verdict", key) and value != "PASS":
            failed += 1
            if thin:
                problems.append(f"{key} = {value}")
    want_overall = "PASS" if failed == 0 else f"FAIL ({failed})"
    if lines.get("redundancy.overall") != want_overall:
        problems.append(f"redundancy.overall = {lines.get('redundancy.overall')}, "
                        f"expected {want_overall}")
    want_exit = 0 if failed == 0 else 1
    if exit_code != want_exit:
        problems.append(f"exit {exit_code}, expected {want_exit}")
    return problems
