"""The variational circuit: H + Ry feature encoding, then q_depth blocks of
a brick-pattern CX layer followed by trainable Ry rotations, measured as
per-qubit <Z>.

Parameter layout: theta is flattened layer-major, theta[layer * Q + qubit].
The encoding angles themselves count as a shiftable layer, so the circuit
has L = q_depth + 1 layers of differentiable angles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .statevector import Gate, StateVector, apply_gates, brick_pairs, evolve
from .statevector import estimate_z_from_counts, sample, sampled_z_rows
from .statevector import z_expectations, z_rows


@dataclass(frozen=True)
class CircuitSpec:
    num_qubits: int = 4
    q_depth: int = 1
    entanglement: str = "parallel-brick"
    input_scaling: str = "tanh-halfpi"

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if self.q_depth < 1:
            raise ValueError("q_depth must be >= 1")
        if self.entanglement != "parallel-brick":
            raise ValueError(f"unsupported entanglement scheme {self.entanglement!r}")
        if self.input_scaling != "tanh-halfpi":
            raise ValueError(f"unsupported input scaling {self.input_scaling!r}")

    @property
    def num_layers(self) -> int:
        """Shiftable layers: the encoding layer plus q_depth variational ones."""
        return self.q_depth + 1

    @property
    def num_params(self) -> int:
        return self.q_depth * self.num_qubits

    def to_json(self) -> str:
        return json.dumps({
            "num_qubits": self.num_qubits,
            "q_depth": self.q_depth,
            "entanglement": self.entanglement,
            "input_scaling": self.input_scaling,
        })

    @classmethod
    def from_dict(cls, doc: dict) -> "CircuitSpec":
        return cls(
            num_qubits=doc.get("num_qubits", 4),
            q_depth=doc.get("q_depth", 1),
            entanglement=doc.get("entanglement", "parallel-brick"),
            input_scaling=doc.get("input_scaling", "tanh-halfpi"),
        )


@dataclass(frozen=True)
class Shots:
    """Shot-based evaluation mode; None means exact expectations."""
    shots: int
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


def derive_seed(base: int, *keys: int) -> int:
    """An independent PCG64 seed for the stream `keys` under `base`."""
    seq = np.random.SeedSequence(entropy=[int(base), *map(int, keys)])
    return int(seq.generate_state(1)[0])


@dataclass
class QNodeInput:
    features: np.ndarray  # raw, pre-scaling, length Q
    params: np.ndarray    # radians, length q_depth * Q, layer-major

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.params = np.asarray(self.params, dtype=float)


def encode_features(x: np.ndarray) -> np.ndarray:
    """Squash raw features into rotation angles: (pi/2) * tanh(x)."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise DataError("NaN in feature vector")
    return (math.pi / 2.0) * np.tanh(x)


def build_from_angles(spec: CircuitSpec, angles: np.ndarray,
                      params: np.ndarray) -> list[Gate]:
    """Gate sequence with encoding angles already computed."""
    q = spec.num_qubits
    angles = np.asarray(angles, dtype=float)
    params = np.asarray(params, dtype=float)
    if angles.shape != (q,):
        raise ValueError(f"expected {q} encoding angles, got {angles.shape}")
    if params.shape != (spec.num_params,):
        raise ValueError(
            f"expected {spec.num_params} variational params, got {params.shape}"
        )
    gates = [Gate("h", w) for w in range(q)]
    gates += [Gate("ry", w, theta=float(angles[w])) for w in range(q)]
    pairs = brick_pairs(q)
    for layer in range(spec.q_depth):
        gates += [Gate("cx", tgt, control=ctl) for ctl, tgt in pairs]
        gates += [
            Gate("ry", w, theta=float(params[layer * q + w])) for w in range(q)
        ]
    return gates


def _encoded(spec: CircuitSpec, qinput: QNodeInput) -> np.ndarray:
    if qinput.features.shape != (spec.num_qubits,):
        raise ValueError(
            f"expected {spec.num_qubits} features, got {qinput.features.shape}"
        )
    return encode_features(qinput.features)


def build_circuit(spec: CircuitSpec, qinput: QNodeInput) -> list[Gate]:
    """Full gate list for raw features (encoding applied internally)."""
    return build_from_angles(spec, _encoded(spec, qinput), qinput.params)


def evaluate_angles(spec: CircuitSpec, angles: np.ndarray, params: np.ndarray,
                    mode: Shots | None = None) -> np.ndarray:
    """Per-qubit <Z> of the circuit at already-encoded angles."""
    state = StateVector(spec.num_qubits)
    apply_gates(state, build_from_angles(spec, angles, params))
    if mode is None:
        return z_expectations(state)
    counts = sample(state, mode.shots, mode.seed)
    return np.array([
        estimate_z_from_counts(counts, qb) for qb in range(spec.num_qubits)
    ])


def evaluate(spec: CircuitSpec, qinput: QNodeInput,
             mode: Shots | None = None) -> np.ndarray:
    """The circuit-as-function: raw features and params to Q expectations."""
    return evaluate_angles(spec, _encoded(spec, qinput), qinput.params, mode)


BLOCK_AMPS = 1 << 13  # amplitudes per kernel call, which bounds its memory


def evaluate_rows(spec: CircuitSpec, angles: np.ndarray,
                  mode: Shots | None = None, keys: tuple = ()) -> np.ndarray:
    """(B, Q) per-qubit <Z> of one circuit per row of L*Q angles: the Q
    encoding angles, then the variational ones, run through the kernel in
    blocks of at most BLOCK_AMPS amplitudes. In shot mode row i samples
    with seed derive_seed(mode.seed, *keys, i)."""
    step = max(1, BLOCK_AMPS >> spec.num_qubits)
    z = []
    for start in range(0, len(angles), step):
        amps = evolve(spec.num_qubits, spec.q_depth, angles[start:start + step])
        if mode is None:
            z.append(z_rows(amps))
        else:
            seeds = [derive_seed(mode.seed, *keys, start + i)
                     for i in range(len(amps))]
            z.append(sampled_z_rows(amps, mode.shots, seeds))
    return np.vstack(z)


def describe(spec: CircuitSpec, qinput: QNodeInput) -> str:
    """Human-readable gate listing for inspection."""
    lines = [f"circuit Q={spec.num_qubits} q_depth={spec.q_depth} "
             f"({spec.entanglement}, {spec.input_scaling})"]
    for i, gate in enumerate(build_circuit(spec, qinput)):
        lines.append(f"  {i:3d}: {gate.describe()}")
    lines.append(f"  measure <Z> on qubits 0..{spec.num_qubits - 1}")
    return "\n".join(lines)
