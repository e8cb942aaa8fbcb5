"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class CorpusError(ValueError):
    """Malformed corpus file. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint file."""


class NumericalDivergenceError(RuntimeError):
    """Training produced a non-finite loss."""
