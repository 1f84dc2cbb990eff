"""Exception hierarchy shared across the package."""


class EquizetaError(Exception):
    """Base class for all errors raised by this package; ``exit_code`` is the
    command line's exit status for it (2 semantic, 3 parse or schema)."""

    exit_code = 2


class InvalidInput(EquizetaError, ValueError):
    """A value from the command line or input JSON, or a result computed
    from it, is outside the range this program handles."""


class ZeroDenominator(EquizetaError):
    """A rational function was built with a zero denominator."""


class DivisionByZero(EquizetaError):
    """Division of a rational function by zero."""


class NotExpandable(EquizetaError):
    """A rational function has no integer Laurent expansion in u^-1."""


class UnknownAtom(EquizetaError):
    """A G-space atom name is not in the catalog."""


class RankTooLarge(EquizetaError):
    """A declared differential rank exceeds an available page dimension."""


class TailMismatch(EquizetaError):
    """A spectral page disagrees with the declared stable tail dimensions."""


class ParseError(EquizetaError):
    """Input text is not well-formed JSON."""

    exit_code = 3


class SchemaError(EquizetaError):
    """Well-formed JSON that does not match the expected schema."""

    exit_code = 3


class UnknownFixture(EquizetaError):
    """A requested catalog fixture does not exist."""


class InvalidResolution(EquizetaError):
    """Resolution data failed validation; diagnostics attached."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class NotInvariant(EquizetaError):
    """A monomial germ is not invariant under the given sign action."""
