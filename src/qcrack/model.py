"""Hybrid classifier: linear(F -> Q), quantum node, linear(Q -> 2),
softmax cross-entropy, per-sample Adam steps.

Labels: 1 = crack (positive class), 0 = no crack. Logit index 1 scores the
crack class.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (CallLedger, GradMethod, ledger_predict,
                       ledger_reconcile, value_and_jacobian)
from .circuit import (CircuitSpec, QNodeInput, Shots, encode_features,
                      encode_features_vjp, evaluate_rows)
# the single-register path stays bound here for tracers that wrap it
from .circuit import evaluate_angles  # noqa: F401
from .data import LABELS, derive_rng, derive_seed, write_atomic
from .errors import DataError, FormatError, check_int

ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LinearLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)

    def __post_init__(self):
        w, b = np.shape(self.weights), np.shape(self.bias)
        if len(w) != 2 or b != w[:1]:
            raise ValueError(f"expected (out, in) weights and an (out,) bias, "
                             f"got {w} and {b}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ x + self.bias

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator
             ) -> "LinearLayer":
        scale = 1.0 / math.sqrt(in_dim)
        return cls(
            weights=rng.uniform(-scale, scale, size=(out_dim, in_dim)),
            bias=np.zeros(out_dim),
        )


@dataclass
class HybridModel:
    pre: LinearLayer
    qspec: CircuitSpec
    qparams: np.ndarray
    post: LinearLayer

    def __post_init__(self):
        q = self.qspec.num_qubits
        if self.pre.out_dim != q or self.post.weights.shape != (2, q):
            raise ValueError(f"linear layers must map into {q} qubits and "
                             "out of them to 2 logits")
        if self.qparams.shape != (self.qspec.num_params,):
            raise ValueError(
                f"expected {self.qspec.num_params} quantum params, "
                f"got {self.qparams.shape}"
            )

    @classmethod
    def init(cls, n_features: int, qspec: CircuitSpec, seed: int
             ) -> "HybridModel":
        rng = derive_rng(seed, 0xC0DE)
        return cls(
            pre=LinearLayer.init(n_features, qspec.num_qubits, rng),
            qspec=qspec,
            qparams=rng.uniform(-0.1, 0.1, size=qspec.num_params),
            post=LinearLayer.init(qspec.num_qubits, 2, rng),
        )

    def _angles(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.shape != (self.pre.in_dim,):
            raise ValueError(
                f"expected {self.pre.in_dim} features, got {features.shape}"
            )
        return encode_features(self.pre.apply(features))

    def forward(self, features: np.ndarray) -> np.ndarray:
        """(2,) logits of one feature vector: one exact forward_rows row."""
        return self.forward_rows([features])[0]

    def forward_rows(self, features, ledger: CallLedger | None = None,
                     mode: Shots | None = None, keys: tuple = ()
                     ) -> np.ndarray:
        """(B, 2) logits of B feature vectors, their circuits run as rows of
        one evaluate_rows call; in shot mode row i samples with seed
        derive_seed(mode.seed, *keys, i). The linear layers run per row."""
        angles = np.array([self._angles(x) for x in features])
        params = np.tile(self.qparams, (len(angles), 1))
        z = evaluate_rows(self.qspec, np.hstack([angles, params]), mode, keys)
        if ledger is not None:
            ledger.add_forward(len(angles))
        return np.array([self.post.apply(zi) for zi in z])

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "pre_w": self.pre.weights, "pre_b": self.pre.bias,
            "theta": self.qparams,
            "post_w": self.post.weights, "post_b": self.post.bias,
        }


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


def cross_entropy(logits: np.ndarray, label: int) -> float:
    shifted = logits - np.max(logits)
    return float(np.log(np.sum(np.exp(shifted))) - shifted[label])


def loss_and_grad(model: HybridModel, batch: list[tuple[np.ndarray, int]],
                  method: GradMethod, ledger: CallLedger,
                  mode: Shots | None = None
                  ) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Mean cross-entropy, gradients for every parameter, and the logits.

    The gradient chain: d(loss)/d(logits) -> post layer -> quantum outputs
    -> quantum Jacobian (method-dependent) -> encoding angles -> tanh
    scaling -> pre layer. Only quantum-node executions touch the ledger.
    In shot mode sample 0 samples under `mode` and sample i > 0 under
    derive_seed(mode.seed, i), so no two samples share shot noise.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    grads = {k: np.zeros_like(v) for k, v in model.parameters().items()}
    total_loss = 0.0
    logits_out = np.zeros((len(batch), 2))
    for i, (features, label) in enumerate(batch):
        if label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {label!r}")
        features = np.asarray(features, dtype=float)
        u = model.pre.apply(features)
        qinput = QNodeInput(features=u, params=model.qparams)
        m = mode
        if mode is not None and i:
            m = Shots(mode.shots, derive_seed(mode.seed, i))
        z, jac = value_and_jacobian(model.qspec, qinput, method, ledger, m)
        logits = model.post.apply(z)
        logits_out[i] = logits
        total_loss += cross_entropy(logits, label)

        g_logits = softmax(logits)
        g_logits[label] -= 1.0
        grads["post_w"] += np.outer(g_logits, z)
        grads["post_b"] += g_logits
        g_z = model.post.weights.T @ g_logits
        grads["theta"] += jac.d_params.T @ g_z
        g_angles = jac.d_inputs.T @ g_z
        g_u = encode_features_vjp(u, g_angles)
        grads["pre_w"] += np.outer(g_u, features)
        grads["pre_b"] += g_u

    n = len(batch)
    for g in grads.values():
        g /= n
    return total_loss / n, grads, logits_out


@dataclass
class OptimizerState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptimizerState) -> None:
    """Bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for k, p in params.items():
        g = grads[k]
        state.m[k] = ADAM_BETA1 * state.m[k] + (1 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[k] / (1 - ADAM_BETA1 ** t)
        v_hat = state.v[k] / (1 - ADAM_BETA2 ** t)
        p -= ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    n_calls: int
    elapsed_ms: float

    CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc,n_calls,elapsed_ms"

    def csv_row(self) -> str:
        return (f"{self.epoch},{self.train_loss:.10g},{self.train_acc:.10g},"
                f"{self.val_loss:.10g},{self.val_acc:.10g},{self.n_calls},"
                f"{self.elapsed_ms:.3f}")


def train(model: HybridModel, train_set, val_set, epochs: int,
          method: GradMethod, seed: int, mode: Shots | None = None
          ) -> tuple[HybridModel, list[EpochMetrics], CallLedger]:
    """Seeded shuffling, per-sample Adam steps, one validation forward pass
    per image per epoch. Afterwards the ledger must equal epochs times
    ledger_predict, or ReconciliationError is raised; the returned ledger
    holds the reconcile report in `reconcile`."""
    if epochs and not train_set:
        raise ValueError("training split is empty")
    ledger = CallLedger()
    params = model.parameters()
    opt = OptimizerState.for_params(params)
    shuffle_rng = derive_rng(seed, 0x5F)
    metrics: list[EpochMetrics] = []

    for epoch in range(epochs):
        t0 = time.perf_counter()
        calls_before = ledger.n_calls
        train_loss = 0.0
        train_correct = 0
        for step, idx in enumerate(shuffle_rng.permutation(len(train_set))):
            s = train_set[idx]
            label = LABELS.index(s.label)
            m = mode
            if mode is not None:
                m = Shots(mode.shots, derive_seed(mode.seed, epoch, step))
            loss, grads, logits = loss_and_grad(model, [(s.values, label)],
                                                method, ledger, m)
            adam_step(params, grads, opt)
            train_loss += loss
            train_correct += int(np.argmax(logits[0]) == label)
        val_loss = val_acc = float("nan")
        if val_set:
            val = evaluate_test(model, val_set, mode, ledger,
                                seed_tag=epoch + 1_000_000)
            val_loss, val_acc = val.loss, val.accuracy
        metrics.append(EpochMetrics(
            epoch=epoch,
            train_loss=train_loss / len(train_set),
            train_acc=train_correct / len(train_set),
            val_loss=val_loss,
            val_acc=val_acc,
            n_calls=ledger.n_calls - calls_before,
            elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        ))
    ledger.reconcile = ledger_reconcile(ledger, epochs * ledger_predict(
        len(train_set), len(val_set), model.qspec.num_layers,
        model.qspec.num_qubits, method))
    return model, metrics, ledger


@dataclass
class TestReport:
    loss: float
    accuracy: float
    confusion: dict[str, int]  # tp, fp, fn, tn; "crack" is positive
    misclassified: list[str]

    def to_dict(self) -> dict:
        return {
            "test_loss": self.loss,
            "test_accuracy": self.accuracy,
            "confusion_matrix": self.confusion,
            "misclassified_ids": self.misclassified,
        }


def evaluate_test(model: HybridModel, test_set, mode: Shots | None = None,
                  ledger: CallLedger | None = None,
                  seed_tag: int = 0xE7A1) -> TestReport:
    """Loss, accuracy and confusion over a split, its circuits run as rows
    of one evaluate_rows call; in shot mode image i samples with seed
    derive_seed(mode.seed, seed_tag, i)."""
    if not test_set:
        raise ValueError("test split is empty")
    conf = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    loss = 0.0
    wrong: list[str] = []
    rows = model.forward_rows([s.values for s in test_set], ledger, mode,
                              (seed_tag,))
    for s, logits in zip(test_set, rows):
        y = LABELS.index(s.label)
        pred = int(np.argmax(logits))
        loss += cross_entropy(logits, y)
        if pred == 1 and y == 1:
            conf["tp"] += 1
        elif pred == 1 and y == 0:
            conf["fp"] += 1
        elif pred == 0 and y == 1:
            conf["fn"] += 1
        else:
            conf["tn"] += 1
        if pred != y:
            wrong.append(s.id)
    n = len(test_set)
    return TestReport(
        loss=loss / n,
        accuracy=(conf["tp"] + conf["tn"]) / n,
        confusion=conf,
        misclassified=wrong,
    )


def save_checkpoint(path, model: HybridModel, seed: int) -> None:
    """Write the model and its seed as JSON, atomically."""
    write_atomic(path, json.dumps({
        "seed": seed,
        "circuit": asdict(model.qspec),
        "pre": {"weights": model.pre.weights.tolist(),
                "bias": model.pre.bias.tolist()},
        "qparams": model.qparams.tolist(),
        "post": {"weights": model.post.weights.tolist(),
                 "bias": model.post.bias.tolist()},
    }))


def load_checkpoint(path) -> tuple[HybridModel, int]:
    """The model and seed save_checkpoint wrote. Keys of older files that
    the model no longer uses, such as "optimizer", are ignored."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        model = HybridModel(
            pre=LinearLayer(np.array(doc["pre"]["weights"], dtype=float),
                            np.array(doc["pre"]["bias"], dtype=float)),
            qspec=CircuitSpec.from_dict(doc["circuit"]),
            qparams=np.array(doc["qparams"], dtype=float),
            post=LinearLayer(np.array(doc["post"]["weights"], dtype=float),
                             np.array(doc["post"]["bias"], dtype=float)),
        )
        check_int("seed", doc["seed"], 0)
        return model, doc["seed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint "
                          f"({type(exc).__name__}: {exc})") from exc
