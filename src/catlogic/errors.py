"""Exception types shared by all workbench modules."""


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


# --- category kernel ---

class MalformedInput(WorkbenchError):
    """Structural defect: dangling index, duplicate name, bad shape."""


class LawViolation(WorkbenchError):
    """A category law failed; details live in the validation report."""


class NotComposable(WorkbenchError):
    """compose(g, f) with dom(g) != cod(f)."""


class UndefinedComposite(WorkbenchError):
    """A composable pair whose table cell was never filled in."""


class ShapeMismatch(WorkbenchError):
    """Arrow endpoints do not fit the requested operation."""


class CategoryFileError(MalformedInput):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# --- structure discovery ---

class NoSuchStructure(WorkbenchError):
    """No candidate satisfied the universal property.  Raised by the search,
    its message saying why by counting hom-sets or naming the first family
    the first fitting apex misses, and by reading a missing witness from a
    structure table, with that recorded failure if there is one."""


# --- logic frontend ---

class FormulaSyntaxError(WorkbenchError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        pos = "" if line is None else f" at {line}:{col}"
        super().__init__(message + pos)


class UnknownSymbol(FormulaSyntaxError):
    pass


class SortError(FormulaSyntaxError):
    pass


class SortMismatch(WorkbenchError):
    """Substitution of a term whose sort differs from the variable's."""


class TheoryFileError(WorkbenchError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# --- semantics ---

class MissingAtom(WorkbenchError):
    """A closed atomic instance has no entry in the interpretation map."""


class NoQuantifierObject(WorkbenchError):
    """No universal cone (forall) or cocone (exists) over a quantifier diagram
    among the searched vertexes; the message gives the hom-set count that
    refutes every candidate."""


class MissingQuantifierObject(NoQuantifierObject):
    """Raised by interpret when a quantified formula has no quantifier object."""


# --- theorems ---

class NoMediator(WorkbenchError):
    pass


class MultipleMediators(WorkbenchError):
    pass


class CertificateFailure(WorkbenchError):
    """A constructed certificate violated one of its defining equations."""


# --- harness ---

class ScaleExceeded(WorkbenchError):
    """Requested model is beyond desk scale (~32 objects)."""
