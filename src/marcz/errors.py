"""Exception types shared across the package."""


class MarczError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MarczError, ValueError):
    """Invalid parameter combination in a spec or config object."""


class DomainError(MarczError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class OutOfWindowError(DomainError):
    """Coefficient index beyond the truncation window."""


class SchemaError(MarczError, ValueError):
    """Input file does not have the expected columns."""


class EmptyDataError(MarczError, ValueError):
    """No usable rows remain after cleaning."""


class LengthError(MarczError, ValueError):
    """Series too short for the requested computation."""


class SizeError(MarczError, ValueError):
    """Requested object exceeds the configured memory cap."""
