"""The variational circuit: H + Ry feature encoding, then q_depth blocks of
a brick-pattern CX layer followed by trainable Ry rotations, measured as
per-qubit <Z>.

Parameter layout: theta is flattened layer-major, theta[layer * Q + qubit].
The encoding angles themselves count as a shiftable layer, so the circuit
has L = q_depth + 1 layers of differentiable angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import derive_streams
from .errors import DataError, check_int
from .statevector import BLOCK_AMPS, MAX_SHOTS, Gate, StateVector, apply_gates
from .statevector import brick_pairs, check_qubits, estimate_z_from_counts
from .statevector import evolve, sample, sampled_z_rows, z_expectations, z_rows

# keys older configs and checkpoints carry, with the one value each can hold
_FIXED_KEYS = {"entanglement": "parallel-brick", "input_scaling": "tanh-halfpi"}


@dataclass(frozen=True)
class CircuitSpec:
    """Size of the one circuit: a parallel CX brick per block and
    (pi/2)*tanh(x) encoding, on num_qubits wires with q_depth blocks."""
    num_qubits: int = 4
    q_depth: int = 1

    def __post_init__(self):
        check_qubits(self.num_qubits)
        check_int("q_depth", self.q_depth, 1)

    @property
    def num_layers(self) -> int:
        """Shiftable layers: the encoding layer plus q_depth variational ones."""
        return self.q_depth + 1

    @property
    def num_params(self) -> int:
        return self.q_depth * self.num_qubits

    @classmethod
    def from_dict(cls, doc: dict) -> "CircuitSpec":
        """The spec a config or checkpoint object describes. Unknown keys are
        rejected; entanglement and input_scaling load when they hold the one
        value the circuit has."""
        if not isinstance(doc, dict):
            raise TypeError(f"circuit must be an object, got {doc!r}")
        sizes = dict(doc)
        for key, value in _FIXED_KEYS.items():
            if sizes.pop(key, value) != value:
                raise ValueError(f"unsupported {key} {doc[key]!r}")
        unknown = set(sizes) - {"num_qubits", "q_depth"}
        if unknown:
            raise ValueError(f"unknown circuit keys: {sorted(unknown)}")
        return cls(**sizes)


@dataclass(frozen=True)
class Shots:
    """Shot-based evaluation mode; None means exact expectations. If set,
    `streams` holds the rows' derive_streams words, hashed ahead by the
    caller, and then nothing reads `seed`. Equality ignores `streams`."""
    shots: int
    seed: int
    streams: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        check_int("shots", self.shots, 1, MAX_SHOTS)
        check_int("seed", self.seed, 0)


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
    if np.isnan(x).any():
        raise DataError("NaN in feature vector")
    return (math.pi / 2.0) * np.tanh(x)


def encode_features_vjp(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g times the derivative of encode_features at x, elementwise."""
    return g * (math.pi / 2.0) * (1.0 - np.tanh(x) ** 2)


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


def evaluate_angles(spec: CircuitSpec, angles: np.ndarray, params: np.ndarray,
                    mode: Shots | None = None) -> np.ndarray:
    """Per-qubit <Z> of the circuit at already-encoded angles, simulated
    gate by gate on one complex register: the reference evaluate_rows is
    tested against."""
    state = StateVector(spec.num_qubits)
    apply_gates(state, build_from_angles(spec, angles, params))
    if mode is None:
        return z_expectations(state)
    counts = sample(state, mode.shots, mode.seed)
    return np.array([
        estimate_z_from_counts(counts, qb) for qb in range(spec.num_qubits)
    ])


def evaluate_rows(spec: CircuitSpec, angles: np.ndarray,
                  mode: Shots | None = None, keys: tuple = ()) -> np.ndarray:
    """(B, Q) per-qubit <Z> of one circuit per row of L*Q angles: the Q
    encoding angles, then the variational ones, run through the kernel in
    blocks of max(1, BLOCK_AMPS >> Q) rows. In shot mode row i samples
    with seed derive_seed(mode.seed, *keys, i); all B streams are hashed
    by one derive_streams call before the first block, or taken from
    mode.streams, which must hold B rows. One block's readout
    is returned as it is, without a stacking copy; zero rows run one empty
    block and read out as (0, Q). The blocks bound the amplitudes; evolve
    also keeps z_signs (Q*2^Q float64, 160 MiB at Q = 20) and
    brick_permutation (2^Q int64) of the two latest register sizes."""
    step = max(1, BLOCK_AMPS >> spec.num_qubits)
    streams = mode and (derive_streams(mode.seed, keys, len(angles))
                        if mode.streams is None else mode.streams)
    if mode and len(streams) != len(angles):
        raise ValueError(f"{len(streams)} shot streams for {len(angles)} rows")
    z = []
    for start in range(0, max(len(angles), 1), step):
        amps = evolve(spec.num_qubits, spec.q_depth, angles[start:start + step])
        if mode is None:
            z.append(z_rows(amps))
        else:
            z.append(sampled_z_rows(amps, mode.shots,
                                    streams[start:start + step]))
    return z[0] if len(z) == 1 else np.vstack(z)
