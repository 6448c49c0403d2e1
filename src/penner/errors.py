"""Exception hierarchy shared by the whole package.

Every error raised by library code derives from :class:`PennerError`, so
callers can catch a single base class.  The CLI maps subfamilies onto exit
codes: input/validation problems exit with 2, violated mathematical
preconditions with 3, and exhausted search budgets with 4.
"""


class PennerError(Exception):
    """Base class for all errors raised by this package."""


# --- input validation -------------------------------------------------------

class ValidationError(PennerError):
    """Malformed input data (CLI exit code 2)."""


class NotSquare(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NegativeEntry(ValidationError):
    pass


class NonzeroDiagonal(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class NonpositiveScale(ValidationError):
    pass


class InvalidWord(ValidationError):
    pass


class UnknownId(ValidationError):
    pass


class InvalidEntry(ValidationError):
    pass


# --- mathematical preconditions (CLI exit code 3) ---------------------------

class PreconditionError(PennerError):
    """A mathematical precondition of an operation does not hold."""


class NotPerronFrobenius(PreconditionError):
    pass


class DivisionFailed(PreconditionError):
    pass


class NotAnEdge(PreconditionError):
    pass


class NotSupported(PreconditionError):
    pass


class PreconditionViolated(PreconditionError):
    pass


class NotGeneral(PreconditionError):
    pass


class AmbiguousRootAssignment(PreconditionError):
    pass


class CurvesIntersect(PreconditionError):
    pass


class OutOfFormulaRange(PreconditionError):
    pass


class NoPseudoAnosov(PreconditionError):
    pass


class NotContractible(PreconditionError):
    pass


# --- budgets (CLI exit code 4) ----------------------------------------------

class BudgetError(PennerError):
    pass


class KBudgetExhausted(BudgetError):
    pass
