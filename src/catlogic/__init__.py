"""catlogic: a desk-scale workbench for quantifier semantics over finite
bicartesian closed categories.

Pipeline: validate a finite category, discover its structure by exhaustive
universal-property search, interpret sorted first-order formulas over it,
check the seven defining conditions, and certify constructively that the two
distributivity conditions follow from the others.
"""

import importlib

from .errors import (
    CertificateFailure,
    LawViolation,
    MalformedInput,
    MissingAtom,
    MultipleMediators,
    NoMediator,
    NoQuantifierObject,
    NoSuchStructure,
    NotComposable,
    ScaleExceeded,
    ShapeMismatch,
    SortMismatch,
    WorkbenchError,
)
from .kernel import (
    ArrId,
    FinCategory,
    ObjId,
    ValidationReport,
    format_category,
    gen_finset,
    inverses,
    mutually_inverse,
    parse_category,
    validate_category,
)
from .structure import (
    Cone,
    ExponentialWitness,
    StructureTable,
    discover_structure,
)
from .logic import (
    Atom,
    Arrow,
    Exists,
    Forall,
    Formula,
    One,
    Plus,
    Signature,
    Term,
    TermUniverse,
    Theory,
    Times,
    Var,
    Zero,
    enumerate_closed_terms,
    enumerate_formulas,
    format_formula,
    free_vars,
    parse_formula,
    parse_theory,
    substitute,
)
from .semantics import (
    ConditionReport,
    Instance,
    Interpretation,
    ReachSet,
    build_interpretation,
    check_conditions,
    derive_instances,
)
from .theorems import (
    DeltaCertificate,
    FrobeniusCertificate,
    build_alpha,
    build_delta,
    build_delta_inverse,
    build_gamma,
    delta_certificate,
    verify_frobenius,
)
from .heyting import (
    HeytingModel,
    gen_chain,
    gen_diamond,
    gen_powerset,
    heyting_from_leq,
    oracle_atom_map,
    oracle_interpret,
    thin_category_from_leq,
)
from .bundles import Suite, bundled_models, bundled_suites

__version__ = "0.1.0"


def __getattr__(name: str):
    """``cli`` and ``run_cli``, imported on first use, so that
    ``python -m catlogic.cli`` runs cli.py once, as ``__main__``."""
    if name not in ("cli", "run_cli"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global run_cli
    run_cli = importlib.import_module(f"{__name__}.cli").run_cli
    return globals()[name]
