"""Runtime estimation from published backend throughput figures.

This is an order-of-magnitude model, not a calibrated predictor:
    device_seconds = n_calls * shots * layers / clops
    wall_seconds   = device_seconds * overhead_factor
where the overhead factor is a single knob standing in for queueing,
transpilation, and validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import FormatError, check_int, check_real


@dataclass(frozen=True)
class BackendProfile:
    name: str
    clops: int  # circuit layer operations per second
    overhead_factor: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        check_int("clops", self.clops, 1)
        check_real("overhead_factor", self.overhead_factor, 1)


def builtin_profiles() -> list[str]:
    pkg = resources.files("qcrack") / "profiles"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_profile(name_or_path: str) -> BackendProfile:
    """Load a shipped profile by name, or any profile JSON by path. Keys the
    model does not use, such as "qv", are ignored."""
    path = Path(name_or_path)
    if not (path.suffix == ".json" and path.is_file()):
        path = resources.files("qcrack") / "profiles" / f"{name_or_path}.json"
        if not path.is_file():
            raise FileNotFoundError(
                f"no backend profile {name_or_path!r}; "
                f"built-ins: {', '.join(builtin_profiles())}"
            )
    try:
        doc = json.loads(path.read_text())
        return BackendProfile(name=doc["name"], clops=doc["clops"],
                              overhead_factor=doc.get("overhead_factor", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed backend profile "
                          f"({type(exc).__name__}: {exc})") from exc


def estimate_runtime(profile: BackendProfile, n_calls: int, shots: int,
                     layers: int) -> tuple[float, float]:
    """(device_seconds, wall_seconds) for a batch of circuit executions."""
    for name, v in (("n_calls", n_calls), ("shots", shots),
                    ("layers", layers)):
        check_int(name, v, 1)
    device_seconds = n_calls * shots * layers / profile.clops
    return device_seconds, device_seconds * profile.overhead_factor
