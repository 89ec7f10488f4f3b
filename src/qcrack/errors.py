"""Exception types shared across the package, and the one check of each
kind of number: check_int for counts, check_real for reals."""

import math
from sys import float_info


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


def _bounds(low, high) -> str:
    if high < math.inf:
        return f" in [{low}, {high}]"
    return f" >= {low}" if low > -math.inf else ""


def check_int(name: str, value, low: int, high=math.inf,
              error: type[ValueError] = ValueError) -> None:
    """Raise `error` unless value is an int in [low, high]. JSON true
    and false load as bools, which are ints to Python, so a bool is
    rejected too."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not low <= value <= high:
        raise error(f"{name} must be an integer{_bounds(low, high)}, "
                    f"got {value!r}")


def check_real(name: str, value, low: float, high: float = math.inf) -> None:
    """Raise ValueError unless value is a finite int or float, not a bool,
    in [low, high]. An int must also convert to float: 10**400 does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not (low <= value <= high and abs(value) <= float_info.max):
        raise ValueError(f"{name} must be a finite number"
                         f"{_bounds(low, high)}, got {value!r}")
