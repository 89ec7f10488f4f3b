"""Exception types shared across the package."""


class CapacityError(ValueError):
    """Requested register size exceeds the configured qubit cap."""


class DataError(ValueError):
    """Input data is malformed (NaN features, bad labels, bad bitstrings)."""


class FormatError(ValueError):
    """A file on disk does not match its expected format."""


class CapabilityError(RuntimeError):
    """The requested combination of options is not supported."""


class ReconciliationError(RuntimeError):
    """Measured device-call counts disagree with the prediction."""

    def __init__(self, report: dict):
        self.report = report
        super().__init__(
            f"call-ledger mismatch: measured {report['measured']} "
            f"vs predicted {report['predicted']} "
            f"(forward={report['n_forward']}, backward={report['n_backward']})"
        )


class ConfigError(ValueError):
    """A run configuration failed schema validation."""


def check_int(name: str, value, low: int) -> None:
    """Raise ValueError unless value is an int >= low. JSON true and false
    load as bools, which are ints to Python, so a bool is rejected too."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
