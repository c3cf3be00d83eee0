"""Exception types shared across the package."""


class EnkpfError(Exception):
    """Base class for all package errors."""


class ConfigError(EnkpfError):
    """Malformed experiment configuration (carries file/line context)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InputError(EnkpfError):
    """Malformed input file; the message names the file and, if known, the line."""

    def __init__(self, path, message, line=None):
        where = str(path) if line is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class FilterError(EnkpfError):
    """An analysis update could not be completed (singular system, bad shapes)."""


class NumericalBlowup(EnkpfError):
    """Model integration or observation generation produced NaN/Inf.

    Carries the first offending grid index to help locate the instability.
    """

    def __init__(self, message, grid_index=None, time=None):
        super().__init__(message)
        self.grid_index = grid_index
        self.time = time


class CflViolation(EnkpfError):
    """Time step exceeds the advective CFL bound for the current state."""
