"""Exact simulation of small qubit registers, in two forms.

  * `evolve` is the batched float64 kernel the training and evaluation
    paths run: a (B, 2^Q) stack of real amplitudes, angles per row.
  * `StateVector` + `apply_gate` simulate one complex register gate by
    gate. No runtime path calls them: they are the single-register API
    and the reference the kernel is tested against.

Conventions:
  * Little-endian basis ordering: qubit 0 is the least-significant bit of
    the basis index, so index 6 = 0b110 means qubit0=0, qubit1=1, qubit2=1.
  * Bitstrings are printed most-significant qubit first ("b_{Q-1}...b_0"),
    matching ket notation, so the two-qubit index 2 prints as "10".
  * Sampling uses numpy's PCG64 on SeedSequence streams, hashed in bulk by
    data.derive_streams alone and tested against numpy's own, so results
    repeat bit for bit on one numpy build at one SIMD level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DataError, check_int

MAX_QUBITS = 20
MAX_SHOTS = 2 ** 63 - 1  # the most shots numpy's multinomial takes (int64)

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def check_qubits(num_qubits) -> None:
    """Raise CapacityError unless num_qubits is an integer in
    [1, MAX_QUBITS]: the one register-size check."""
    check_int("num_qubits", num_qubits, 1, MAX_QUBITS, CapacityError)


@dataclass(frozen=True)
class Gate:
    """One gate in a circuit: X, H, Ry(theta), CX, or CRy(theta)."""

    kind: str  # "x" | "h" | "ry" | "cx" | "cry"
    target: int
    control: int | None = None
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("x", "h", "ry", "cx", "cry"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in ("cx", "cry"):
            if self.control is None:
                raise ValueError(f"{self.kind} gate needs a control qubit")
            if self.control == self.target:
                raise ValueError("control and target must be distinct")
        elif self.control is not None:
            raise ValueError(f"{self.kind} gate takes no control qubit")

    def local_matrix(self) -> np.ndarray:
        """The 2x2 matrix applied to the target qubit."""
        if self.kind in ("x", "cx"):
            return np.array([[0, 1], [1, 0]], dtype=complex)
        if self.kind == "h":
            return np.array([[_SQRT_HALF, _SQRT_HALF],
                             [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)
        # ry / cry
        c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)


class StateVector:
    """Mutable register of `num_qubits` qubits holding 2^Q complex amplitudes."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: np.ndarray | None = None):
        check_qubits(num_qubits)
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if amps is None:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=complex)
            if amps.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got {amps.shape}")
        self.amps = amps

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def zero_state(num_qubits: int) -> StateVector:
    """|0...0> on the given number of qubits."""
    return StateVector(num_qubits)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply `gate` in place, on basic-index views of the (2,)*Q register:
    qubit q is axis Q-1-q, a control fixes its axis to 1; returns state."""
    n = state.num_qubits
    for q in (gate.target, gate.control):
        if q is not None:
            check_int("qubit index", q, 0, n - 1)
    amps = state.amps.reshape((2,) * n)  # a 1-D array: always a view
    at = [slice(None)] * n + [Ellipsis]  # 0-d halves, not scalars, at Q=1
    if gate.control is not None:
        at[n - 1 - gate.control] = 1
    at[n - 1 - gate.target] = 0
    lo = tuple(at)
    at[n - 1 - gate.target] = 1
    hi = tuple(at)
    a0 = amps[lo].copy()
    a1 = amps[hi].copy()
    kind = gate.kind
    if kind == "x" or kind == "cx":
        amps[lo], amps[hi] = a1, a0
    elif kind == "h":
        amps[lo] = _SQRT_HALF * (a0 + a1)
        amps[hi] = _SQRT_HALF * (a0 - a1)
    else:  # ry / cry
        c, s = math.cos(gate.theta / 2), math.sin(gate.theta / 2)
        amps[lo] = c * a0 - s * a1
        amps[hi] = s * a0 + c * a1
    return state


def apply_gates(state: StateVector, gates) -> StateVector:
    for gate in gates:
        apply_gate(state, gate)
    return state


@functools.lru_cache(maxsize=2)
def z_signs(num_qubits: int) -> np.ndarray:
    """(Q, 2^Q) eigenvalues of Z_k on each basis state: 1 - 2*bit_k.
    Q*2^Q float64 (160 MiB at Q = 20), kept for the two latest register
    sizes; a miss rebuilds it in 5 us at Q = 4 and 0.16 s at Q = 20."""
    idx = np.arange(1 << num_qubits)
    return 1.0 - 2.0 * ((idx >> np.arange(num_qubits)[:, None]) & 1)


def z_expectation(state: StateVector, qubit: int) -> float:
    """<Z> on one qubit: P(bit=0) - P(bit=1)."""
    check_int("qubit", qubit, 0, state.num_qubits - 1)
    amps = state.amps
    probs = amps.real * amps.real + amps.imag * amps.imag
    return float(np.dot(probs, z_signs(state.num_qubits)[qubit]))


def z_expectations(state: StateVector) -> np.ndarray:
    """<Z> for every qubit of the register."""
    return np.array([z_expectation(state, q) for q in range(state.num_qubits)])


def sample(state: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Draw `shots` basis-state measurements with an explicit PCG64 seed:
    the counts of each observed bitstring, whose total is `shots`."""
    check_int("shots", shots, 1, MAX_SHOTS)
    probs = np.abs(state.amps) ** 2
    rng = np.random.default_rng(seed)
    raw = rng.multinomial(shots, probs / probs.sum())
    n = state.num_qubits
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(raw) if c > 0}


def estimate_z_from_counts(counts: dict[str, int], qubit: int) -> float:
    """(n0 - n1)/(n0 + n1) for one qubit position from measured bitstrings."""
    n0 = 0
    n1 = 0
    for bitstring, c in counts.items():
        if not bitstring or any(ch not in "01" for ch in bitstring):
            raise DataError(f"malformed bitstring {bitstring!r}")
        check_int(f"qubit of bitstring {bitstring!r}", qubit, 0,
                  len(bitstring) - 1, DataError)
        check_int(f"count of {bitstring!r}", c, 0, error=DataError)
        # qubit 0 is the least-significant (rightmost) character
        if bitstring[len(bitstring) - 1 - qubit] == "0":
            n0 += c
        else:
            n1 += c
    if n0 + n1 == 0:
        raise DataError("empty shot counts")
    return (n0 - n1) / (n0 + n1)


# ---------------------------------------------------------------------------
# Batched float64 kernel

def brick_pairs(num_qubits: int) -> list[tuple[int, int]]:
    """(control, target) of one CX brick: even pairs, then odd pairs."""
    evens = [(q, q + 1) for q in range(0, num_qubits - 1, 2)]
    odds = [(q, q + 1) for q in range(1, num_qubits - 1, 2)]
    return evens + odds


@functools.lru_cache(maxsize=2)
def brick_permutation(num_qubits: int) -> np.ndarray:
    """amps[:, perm] applies the CX gates of one brick, in order. 2^Q
    int64 (8 MiB at Q = 20), kept for the two latest register sizes; a
    miss rebuilds it in 10 us at Q = 4 and 0.17 s at Q = 20."""
    idx = perm = np.arange(1 << num_qubits)
    for control, target in brick_pairs(num_qubits):
        perm = perm[idx ^ (((idx >> control) & 1) << target)]
    return perm


_SWAP_SIGN = np.array([[-1.0], [1.0]])

# amplitudes per evaluate_rows block (or one row of 2^Q for Q >= 14), and
# the most a cached plan buffer of evolve holds
BLOCK_AMPS = 1 << 13

# evolve runs its Ry gates on flat operands on rows at most this long
_FLAT_ROW = 1 << 5

# evolve's gate-loop ufunc buffer, in elements, on rows at least this long
_GATE_BUFSIZE = 1 << 8


@functools.lru_cache(maxsize=16)
def _gate_plan(num_qubits: int, q_depth: int, rows: int, tangents: bool):
    """Two (T, 2^Q) buffers, T = rows (rows + n_gates with tangents), the
    tables each call fills with its gates' cos and sin, and per Ry gate
    what it reads and writes: (brick source or None, state, its
    pair-flipped operand, flip index or None, where the flipped product
    goes, the scratch rows, tangent rows or None, cos rows, sin rows). A
    brick copies the state into the other buffer, so the two swap roles
    there.

    On rows of at most _FLAT_ROW amplitudes the flipped operand is the
    state's flat view, and flip indexes it at i ^ (1 << k) plus each
    row's offset: qubit k's row of a (Q, G, 2^Q) int64 table, where G is
    the most rows one gate updates (rows, or rows + q_depth*Q with
    tangents). The product goes to the scratch rows. The cos and sin
    tables are (n_gates, G, 2^Q), and the sin one is filled times its
    signs, each gate's row of -z_signs ((n_gates, 1, 2^Q)). Such a plan
    keeps 8*2^Q*(2T + (2n_gates + Q)*G + n_gates) bytes, and 16*Q*2^Q
    more with tangents. Longer rows take (n_gates, rows, 1) and (n_gates,
    rows, 1, 2, 1) tables with _SWAP_SIGN as signs, and 4-d views (rows,
    count, pair, run), or (rows, run, pair, count) when runs are shorter
    than their count, so a C-order multiply walks the longer axis
    innermost.

    Returns ((initial rows, cos table, sin table, signs), final state,
    steps, idx, sign); amps[0, idx[k]] * sign[k] is Ry(pi) on qubit k of
    row 0, and both are None unless tangents."""
    dim = 1 << num_qubits
    n = (q_depth + 1) * num_qubits
    bufs = np.empty((2, rows + n if tangents else rows, dim))
    flat = dim <= _FLAT_ROW
    if flat:
        most = rows + n - num_qubits if tangents else rows
        cos, sin = np.empty((2, n, most, dim))
        signs = -z_signs(num_qubits)[np.arange(n) % num_qubits, None]
        flips = (np.arange(most * dim).reshape(most, dim)
                 ^ (1 << np.arange(num_qubits))[:, None, None])
    else:
        cos, sin = np.empty((n, rows, 1)), np.empty((n, rows, 1, 2, 1))
        signs = _SWAP_SIGN
    live, cur, steps = rows, 0, []
    for j in range(n):
        qubit = j % num_qubits
        src = None
        if qubit == 0 and j:
            src, cur = bufs[cur, :live], cur ^ 1
        a, t = bufs[cur, :live], bufs[cur ^ 1, :live]
        if flat:
            flipped, flip, t4 = a.reshape(-1), flips[qubit, :live], t
            c_j, s_j = cos[j, :live], sin[j, :live]
        else:
            shape = (live, dim >> (qubit + 1), 2, 1 << qubit)
            flipped, t4 = a.reshape(shape)[:, :, ::-1], t.reshape(shape)
            flip = None
            if shape[3] < shape[1]:  # runs shorter than their count
                flipped, t4 = (v.transpose(0, 3, 2, 1) for v in (flipped, t4))
            c_j, s_j = cos[j], sin[j]
        tan = None
        if tangents and qubit == num_qubits - 1:
            tan = bufs[cur, live:live + num_qubits]
            live += num_qubits
        steps.append((src, a, flipped, flip, t4, t, tan, c_j, s_j))
    idx = sign = None
    if tangents:
        idx = np.arange(dim) ^ (1 << np.arange(num_qubits))[:, None]
        sign = -z_signs(num_qubits)
    return (bufs[0, :rows], cos, sin, signs), bufs[cur], steps, idx, sign


def evolve(num_qubits: int, q_depth: int, angles: np.ndarray,
           tangents: bool = False) -> np.ndarray:
    """(B, 2^Q) float64 amplitudes of the H wall, Ry(angles[:, :Q]) as the
    encoding, then q_depth blocks of a CX brick and one Ry per wire, with
    one row of L*Q angles (layer-major) per circuit. Memory is O(B*2^Q)
    on rows longer than _FLAT_ROW and O(L*Q*B*2^Q) on shorter ones
    (O((L*Q)^2*2^Q) with tangents); kept for the life of the process are
    z_signs and brick_permutation of the two latest register sizes (their
    docstrings give bytes and miss costs), and at most 16 plans of at
    most BLOCK_AMPS amplitudes per buffer: a plan of short rows with its
    flip, cos and sin tables (the bytes are in _gate_plan's docstring;
    about 2 + 2*n_gates + Q buffers' worth, 1.4 MiB at the paper size),
    one of longer rows with a flip table only for tangents. Every gate is
    real, so float64 loses nothing, and each Ry rounds as apply_gate's
    formula: the amplitudes equal the real parts of the register
    apply_gate evolves, bit for bit.

    Each Ry is three ufuncs and each brick one np.take on the buffers of
    `_gate_plan`, cached per shape when they hold at most BLOCK_AMPS
    amplitudes each and built for the call otherwise. The Ry has two
    forms. Rows of at most _FLAT_ROW = 32 amplitudes (Q <= 5) gather the
    pair-flipped state through a flat index, then multiply it by the
    call's sin table, whose entries carry the flip's sign (exact), and
    the state by its cos table: operands of one contiguous shape, where
    numpy spent two to five times the arithmetic on broadcast (rows, 1)
    and strided 4-d operands at Q = 4. Longer rows keep those strided
    views, since there the gather costs more: the flipped multiply runs
    in C order over them, so on a qubit whose runs are shorter than their
    count it iterates the count axis; each product is the same, written
    to the same address. The flat form's time over the strided one's
    (timeit min; a one-row tangent sweep / the 2LQ+1-row shift stack / a
    block of BLOCK_AMPS amplitudes):

        Q    q_depth 1           q_depth 3
        3    0.84 0.70 0.75      0.83 0.70 0.77
        4    0.87 0.74 0.86      0.81 0.70 0.85
        5    0.83 0.82 0.96      0.89 0.85 1.05
        6    0.95 0.98 1.11      1.17 0.94 1.07
        7    1.12 1.10 1.37      1.52 1.37 1.39

    The result is a copy, so later calls do not change it; the cached
    buffers make evolve not reentrant across threads.

    Rows of at least _GATE_BUFSIZE amplitudes run the gate loop under a
    ufunc buffer that size, given back to the caller's by error too: with
    numpy's 8,192, each broadcast multiply allocated 64 KiB per operand
    first. Buffering only changes how numpy feeds an elementwise loop, so
    the bits stay; no reduction runs under it, since a smaller buffer
    could regroup a sum. Shorter rows gained nothing and skip it.

    Tangents take exactly one row of angles (ValueError otherwise): each
    Ry wall appends Ry(pi) of the ket on each of its wires, and those rows
    take the rest of the circuit with the ket. A wall's Ry gates commute
    and dRy(t)/dt = Ry(pi)Ry(t)/2, so row 1+j is twice d|psi>/d angle_j:
    1+L*Q rows in all, and row 0 is the ket bit for bit. At Q = 13 and 14
    the traced peak is under 5x their bytes (4.49x at q_depth 1)."""
    check_qubits(num_qubits)
    check_int("q_depth", q_depth, 0)
    angles = np.asarray(angles, dtype=float)
    n = (q_depth + 1) * num_qubits
    if angles.ndim != 2 or angles.shape[1] != n:
        raise ValueError(f"expected (B, {n}) angles, got {angles.shape}")
    if tangents and len(angles) != 1:
        raise ValueError("tangent rows need exactly one row of angles, "
                         f"got {len(angles)}")
    size = (len(angles) + n if tangents else len(angles)) << num_qubits
    plan = _gate_plan if size <= BLOCK_AMPS else _gate_plan.__wrapped__
    (start, cos, sin, signs), out, steps, idx, sign = plan(
        num_qubits, q_depth, len(angles), tangents)
    # the H wall on |0...0> leaves every amplitude equal to (1/sqrt 2)^Q,
    # rounded once per gate as apply_gate rounds it
    amp = 1.0
    for _ in range(num_qubits):
        amp = _SQRT_HALF * amp
    start.fill(amp)
    half = angles / 2  # gate j's cos and sin, one entry per row
    np.copyto(cos, np.cos(half).T[:, :, None])
    sin_t = np.sin(half).T  # to (n, B, 1), or (n, B, 1, 1, 1) for _SWAP_SIGN
    np.multiply(sin_t.reshape(sin_t.shape + (1,) * (sin.ndim - 2)), signs,
                out=sin)
    perm = brick_permutation(num_qubits)
    wide = 1 << num_qubits >= _GATE_BUFSIZE
    old = np.setbufsize(_GATE_BUFSIZE) if wide else None
    try:
        for src, a, flipped, flip, t4, t, tan, c_j, s_j in steps:
            if src is not None:  # mode="raise" would buffer a copy of out
                np.take(src, perm, axis=1, out=a, mode="clip")
            if flip is not None:  # the flat form gathers the flipped pairs
                flipped = flipped[flip]
            # c*(a0, a1) + (-s, s)*(a1, a0) rounds as c*a0 - s*a1, s*a0 +
            # c*a1 (apply_gate's): (-s)*a1 is -(s*a1) and addition commutes
            np.multiply(flipped, s_j, out=t4, order="C")
            a *= c_j
            a += t
            if tan is not None:
                np.multiply(a[0, idx], sign, out=tan)
    finally:
        if wide:
            np.setbufsize(old)
    return out.copy()


def z_rows(amps: np.ndarray) -> np.ndarray:
    """<Z> for every row and qubit of a (B, 2^Q) float64 stack."""
    return (amps * amps) @ z_signs(amps.shape[1].bit_length() - 1).T


class _Stream:
    """A derive_streams row, four uint64 words that PCG64 reads raw: PCG64(it)
    is default_rng(seed)'s. Registered on use, so import skips numpy.random."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def sampled_z_rows(amps: np.ndarray, shots: int, streams) -> np.ndarray:
    """<Z> from `shots` measurements of each row, drawn by a fresh PCG64 on
    streams[i], the derive_streams row of a seed: the counts `sample` draws
    for that register and seed, read as `estimate_z_from_counts` reads
    them. One division normalises the block, as each row's p / p.sum()."""
    check_int("shots", shots, 1, MAX_SHOTS)
    streams = np.ascontiguousarray(streams, np.uint64)
    if streams.shape != (len(amps), 4):
        raise ValueError(f"{len(streams)} shot streams for {len(amps)} rows "
                         f"(words shaped {streams.shape}, not (B, 4))")
    np.random.bit_generator.ISeedSequence.register(_Stream)
    probs = amps * amps
    probs /= probs.sum(axis=1, keepdims=True)
    raw = np.array([
        np.random.Generator(np.random.PCG64(_Stream(w))).multinomial(shots, p)
        for p, w in zip(probs, streams)
    ]).reshape(amps.shape)  # (0, 2^Q) for zero rows, not (0,)
    # integer counts: the signed sums are exact, so one division rounds
    return (raw @ z_signs(amps.shape[1].bit_length() - 1).T) / shots
