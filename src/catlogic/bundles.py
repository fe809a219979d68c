"""The bundled desk-scale suites: three Heyting models crossed with two
theories, with atom maps chosen to generate the whole algebra and to
exercise non-trivial implications.
"""

from __future__ import annotations

from dataclasses import dataclass

from .heyting import HeytingModel, gen_chain, gen_powerset
from .logic import Theory, parse_theory


@dataclass(frozen=True)
class Suite:
    suite_id: str
    model: HeytingModel
    theory_text: str

    def theory(self) -> Theory:
        return parse_theory(self.theory_text, theory_id=self.suite_id.split("/", 1)[1])


# per model: three designated elements feeding the atom maps; together with
# 0 and 1 they generate the full algebra within reach depth 3
_ATOM_TARGETS = {
    "chain-4": ("c1", "c2", "c1"),
    "powerset-2": ("e1", "e2", "e1"),
    "powerset-3": ("e1", "e2", "e3"),
}

_PAIR_CONST = """\
# two constants, saturated universe
sort s
fun c : s
fun d : s
rel B : s
rel P
depth 1
axiom exists x:s. (P & B(x))
axiom forall x:s. (B(x) -> P)
axiom exists x:s. (B(x) & (P | B(c)))
interp B(c) = {}
interp B(d) = {}
interp P = {}
"""

_UNARY_FUN = """\
# one unary function, universe cut at depth 2 (unsaturated)
sort s
fun c : s
fun f : s -> s
rel B : s
rel P
depth 2
axiom exists x:s. (P & B(x))
axiom forall x:s. (B(x) -> P)
axiom exists x:s. (B(x) & (P | B(c)))
interp B(c) = {}
interp B(f(c)) = {}
interp P = {}
"""


def bundled_models() -> tuple[HeytingModel, ...]:
    return (gen_chain(4), gen_powerset(2), gen_powerset(3))


def bundled_suites() -> tuple[Suite, ...]:
    return tuple(Suite(f"{model.name}/{theory}", model, text.format(*_ATOM_TARGETS[model.name]))
                 for model in bundled_models()
                 for theory, text in (("pair-const", _PAIR_CONST), ("unary-fun", _UNARY_FUN)))
