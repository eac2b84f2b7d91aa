"""Exception types shared across the package."""


class ComodcheckError(Exception):
    """Base class for all domain errors."""


class AxiomError(ComodcheckError):
    """A structure or morphism violates one of its defining axioms.

    ``axiom`` names the violated law (e.g. "coassociativity"); ``witness``
    optionally records where the two sides first differ, as (column, flat
    row index) in the fixed tensor bases.
    """

    def __init__(self, axiom: str, message: str, witness=None):
        super().__init__(f"{axiom}: {message}")
        self.axiom = axiom
        self.witness = witness


class BaseMismatchError(ComodcheckError):
    """Operands live over different base fields or base coalgebras."""


class UnsupportedBaseError(ComodcheckError):
    """The operation is only implemented for the stated class of bases."""


class HypothesisViolatedError(ComodcheckError):
    """A theorem hypothesis required by the operation fails on this input."""
