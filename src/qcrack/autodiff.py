"""Gradients of the quantum node by three interchangeable methods, plus
exact bookkeeping of simulated device calls.

All three methods differentiate with respect to the L*Q shiftable angles:
the Q encoding angles (post-scaling) and the q_depth*Q variational
parameters. Every method also produces the forward value, charged as one
forward call, so that one training image costs exactly one forward call
plus the method's backward calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import (CircuitSpec, QNodeInput, Shots, encode_features,
                      evaluate_rows)
# the single-register path stays bound here for tracers that wrap it
from .circuit import build_from_angles, evaluate_angles  # noqa: F401
from .errors import (CapabilityError, ReconciliationError, check_int,
                     check_real)
from .statevector import evolve, z_rows, z_signs

BACKPROP = "backprop"
FINITE_DIFF = "finite-diff"
PARAM_SHIFT = "param-shift"


@dataclass(frozen=True)
class GradMethod:
    kind: str
    fd_delta: float = 1e-4
    fd_variant: str = "forward"  # "forward" | "central"

    def __post_init__(self):
        if self.kind not in (BACKPROP, FINITE_DIFF, PARAM_SHIFT):
            raise ValueError(f"unknown gradient method {self.kind!r}")
        check_real("fd_delta", self.fd_delta, 0)
        if self.fd_delta == 0:
            raise ValueError(f"fd_delta must be > 0, got {self.fd_delta!r}")
        if self.fd_variant not in ("forward", "central"):
            raise ValueError(f"unknown finite-difference variant {self.fd_variant!r}")

    @classmethod
    def backprop(cls) -> "GradMethod":
        return cls(BACKPROP)

    @classmethod
    def finite_diff(cls, *fd) -> "GradMethod":
        """Finite differences; fd is (fd_delta, fd_variant) or a prefix."""
        return cls(FINITE_DIFF, *fd)

    @classmethod
    def param_shift(cls) -> "GradMethod":
        return cls(PARAM_SHIFT)


class CallLedger:
    """Counter of quantum-circuit executions. model.train() keeps the
    ledger_reconcile report it checked in `reconcile`."""

    def __init__(self):
        self.n_forward = 0
        self.n_backward = 0
        self.reconcile: dict | None = None

    def add_forward(self, n: int = 1):
        self.n_forward += n

    def add_backward(self, n: int = 1):
        self.n_backward += n

    @property
    def n_calls(self) -> int:
        return self.n_forward + self.n_backward


@dataclass
class QNodeJacobian:
    d_params: np.ndarray  # (Q outputs, q_depth*Q params)
    d_inputs: np.ndarray  # (Q outputs, Q encoding angles)


@functools.lru_cache(maxsize=32)
def _shift_rows(method: GradMethod, n: int) -> np.ndarray:
    """Angle offsets of the circuits a method runs: the unshifted base row,
    then +step on angle j (forward differences) or +step, -step on angle j
    (the shift rule at pi/2 and central differences), j = 0..n-1. Built
    once per (method, n) and shared, so the array is read-only."""
    step = math.pi / 2 if method.kind == PARAM_SHIFT else method.fd_delta
    eye = step * np.eye(n)
    if method.kind == FINITE_DIFF and method.fd_variant == "forward":
        shifts = eye
    else:
        shifts = np.stack([eye, -eye], axis=1).reshape(2 * n, n)
    rows = np.vstack([np.zeros(n), shifts])
    rows.flags.writeable = False
    return rows


def value_and_jacobian(spec: CircuitSpec, qinput: QNodeInput,
                       method: GradMethod, ledger: CallLedger,
                       mode: Shots | None = None
                       ) -> tuple[np.ndarray, QNodeJacobian]:
    """Forward value plus Jacobian of the quantum node: one forward call,
    plus one backward call per shifted row of `_shift_rows`, 2*L*Q (the
    shift rule, central differences) or L*Q (forward differences). Backprop
    runs none: its L*Q tangent rows ride the one forward sweep in evolve
    and are amplitudes, not <Z> readouts. The rows run as one evaluate_rows
    call; in shot mode row i samples with seed derive_seed(mode.seed, i),
    or from mode.streams[i] if the caller hashed them."""
    q = spec.num_qubits
    if (qinput.features.shape != (q,)
            or qinput.params.shape != (spec.num_params,)):
        raise ValueError(f"expected features ({q},) and params "
                         f"({spec.num_params},), got {qinput.features.shape} "
                         f"and {qinput.params.shape}")
    all_angles = np.concatenate([encode_features(qinput.features),
                                 qinput.params])

    if method.kind == BACKPROP:
        if mode is not None:
            raise CapabilityError("backprop needs exact statevector access; "
                                  "not available in shots mode")
        rows = evolve(q, spec.q_depth, all_angles[None], tangents=True)
        # d<Z_k>/d angle_j = 2<psi|Z_k|d psi/d angle_j> = <psi|Z_k|row 1+j>
        f, deriv = z_rows(rows[:1]), ((rows[:1] * z_signs(q)) @ rows[1:].T).T
    else:
        f = evaluate_rows(spec, all_angles + _shift_rows(method, all_angles.size),
                          mode)
        # the shift rule (f+ - f-) / (2 sin s) at s = pi/2: central, h = 1
        h = 1.0 if method.kind == PARAM_SHIFT else method.fd_delta
        if len(f) == all_angles.size + 1:  # one-sided rows
            deriv = (f[1:] - f[0]) / h
        else:  # paired rows
            deriv = (f[1::2] - f[2::2]) / (2.0 * h)
    ledger.add_forward(1)
    ledger.add_backward(len(f) - 1)
    return f[0], QNodeJacobian(d_params=deriv[q:].T, d_inputs=deriv[:q].T)


def jacobian(spec: CircuitSpec, qinput: QNodeInput, method: GradMethod,
             ledger: CallLedger, mode: Shots | None = None) -> QNodeJacobian:
    return value_and_jacobian(spec, qinput, method, ledger, mode)[1]


def ledger_predict(T: int, V: int, L: int, Q: int, method: GradMethod) -> int:
    """Predicted device calls for one epoch of T training and V validation
    images on an L-layer (L = q_depth + 1), Q-qubit circuit: forward T+V
    plus backward work."""
    for name, v, low in (("T", T, 0), ("V", V, 0), ("L", L, 2), ("Q", Q, 1)):
        check_int(name, v, low)
    if method.kind == BACKPROP:
        return T + V
    if method.kind == PARAM_SHIFT:
        return T + V + 2 * T * L * Q
    if method.fd_variant == "forward":
        return T + V + T * L * Q
    return T + V + 2 * T * L * Q  # central differences: two evals per angle


def ledger_reconcile(ledger: CallLedger, predicted: int) -> dict:
    """Check measured calls against a prediction; raise on mismatch."""
    report = {
        "measured": ledger.n_calls,
        "predicted": predicted,
        "n_forward": ledger.n_forward,
        "n_backward": ledger.n_backward,
        "ok": ledger.n_calls == predicted,
    }
    if not report["ok"]:
        raise ReconciliationError(report)
    return report
