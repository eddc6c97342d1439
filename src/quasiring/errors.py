"""Exception types shared across the package.

Errors that carry witnesses store them on the exception so callers (and the
report renderer) can serialize them.
"""


class QuasiringError(Exception):
    """Base class for all package errors."""


# -- topology ---------------------------------------------------------------

class MissingEmptyOrFull(QuasiringError):
    pass


class NotClosedUnderUnion(QuasiringError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"opens not closed under union: {sorted(a)} | {sorted(b)}")


class NotClosedUnderIntersection(QuasiringError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(
            f"opens not closed under intersection: {sorted(a)} & {sorted(b)}"
        )


class CarrierMismatch(QuasiringError):
    pass


# -- algebra ----------------------------------------------------------------

class BadTable(QuasiringError):
    pass


# -- function spaces --------------------------------------------------------

class InfiniteBackend(QuasiringError):
    pass


class BudgetExceeded(QuasiringError):
    """A stage refused to grow past `cap`; `reached` is the size that did."""

    def __init__(self, message, *, cap: int, reached: int):
        self.cap = cap
        self.reached = reached
        super().__init__(message)


class MissingAddition(QuasiringError):
    pass


class MissingUnit(QuasiringError):
    pass


class NotClopen(QuasiringError):
    pass


class ZeroValue(QuasiringError):
    pass


# -- ideals -----------------------------------------------------------------

class NotProper(QuasiringError):
    pass


class IncompleteLattice(BudgetExceeded):
    """A lattice pass stopped at its ideal budget `cap`, holding `reached`
    = cap + 1 ideals."""


class CrossCheckFailed(QuasiringError):
    """A computed result disagrees with an independent check of it."""


# -- zariski / verify -------------------------------------------------------

class ZeroDivisorHypothesis(QuasiringError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class UnknownChecker(QuasiringError):
    pass


# -- dsl --------------------------------------------------------------------

class DslError(QuasiringError):
    pass


class DslSyntaxError(DslError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


class DuplicateName(DslError):
    pass


class UnknownReference(DslError):
    pass
