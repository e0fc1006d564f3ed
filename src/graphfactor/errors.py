"""Exception types shared across the package, and the field check of the
catalog's JSON objects."""


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
    """A structural fact the code relies on does not hold: the census's
    orbit-count recheck of its class enumeration, or the shape a witness
    family builder checks of its own product.  A registered assertion never
    raises it; its violations are recorded as values."""


def check_fields(obj, fields: tuple[str, ...], what: str) -> None:
    """Raise ParameterError unless obj is a JSON object with exactly the
    given fields: a catalog object holds every field the census writes and
    no other."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} is not a JSON object")
    for name in fields:
        if name not in obj:
            raise ParameterError(f"{what} is missing field {name!r}")
    for key in obj:
        if key not in fields:
            raise ParameterError(f"{what} has unknown field {key!r}")
