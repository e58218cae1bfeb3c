"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad configuration text: unknown key, type mismatch, or invalid value."""


class UsageError(ValueError):
    """Bad command line: an unknown subcommand or option, or a missing value."""


class SnapshotFormatError(ValueError):
    """Corrupt or truncated snapshot file.

    Carries ``byte_offset`` when the defect has a definite location.
    """

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class BlowUpError(RuntimeError):
    """Time stepping produced non-finite values or exceeded the growth guard.

    ``last_finite_time`` is the time of the last state that was still finite
    and within the guard.
    """

    def __init__(self, message: str, last_finite_time: float):
        super().__init__(f"{message} (last finite time t={last_finite_time:.6g})")
        self.last_finite_time = last_finite_time


class GateError(RuntimeError):
    """Noise constants violate a well-posedness gate and --force was not given."""
