"""Exception types shared across the package, and the unknown-field check
of the catalog parsers."""


class GraphFactorError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GraphFactorError, ValueError):
    """A caller-supplied parameter is malformed or out of range."""


class PreconditionError(GraphFactorError, ValueError):
    """A documented precondition of an operation does not hold."""


class UnsupportedSizeError(GraphFactorError, ValueError):
    """Input exceeds a documented size cap."""


class Graph6Error(GraphFactorError, ValueError):
    """Malformed graph6 input; the message names the offending byte offset."""


class CatalogSchemaError(GraphFactorError, ValueError):
    """A catalog line does not match the census record schema."""


class TheoremViolationError(GraphFactorError, RuntimeError):
    """A verified factorization contradicts a registered assertion."""


def reject_unknown_fields(obj: dict, fields: tuple[str, ...], what: str) -> None:
    """Raise ParameterError naming the first key of obj outside fields: a
    parsed catalog object holds no field that the census does not write."""
    for key in obj:
        if key not in fields:
            raise ParameterError(f"{what} has unknown field {key!r}")
