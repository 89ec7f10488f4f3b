"""Hybrid classifier: linear(F -> Q), quantum node, linear(Q -> 2),
softmax cross-entropy, per-sample Adam steps.

Labels: 1 = crack (positive class), 0 = no crack. Logit index 1 scores the
crack class.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .autodiff import (CallLedger, GradMethod, ledger_predict,
                       ledger_reconcile, value_and_jacobian)
from .circuit import (CircuitSpec, QNodeInput, Shots, encode_features,
                      encode_features_vjp, evaluate_rows)
# the single-register path stays bound here for tracers that wrap it
from .circuit import evaluate_angles  # noqa: F401
from .data import (LABELS, derive_rng, derive_seed, derive_streams,
                   write_atomic)
from .errors import DataError, FormatError, check_int, check_real

ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_ONE_HOT = np.eye(2)  # row y is label y's one-hot


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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x + b for one input vector, or for each row of a stack: the
        same bits either way."""
        return (self.weights @ x[..., None])[..., 0] + self.bias

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator
             ) -> "LinearLayer":
        check_int("in_dim", in_dim, 1)
        scale = 1.0 / math.sqrt(in_dim)
        return cls(
            weights=rng.uniform(-scale, scale, size=(out_dim, in_dim)),
            bias=np.zeros(out_dim),
        )


class ParamVector(dict):
    """Named views of one flat float64 vector, reachable as `vector`:
    writing through a view writes the vector, and the reverse."""

    def __init__(self, arrays: dict[str, np.ndarray], vector=None):
        """Views of `vector`, or of a new copy of the arrays, shaped as them."""
        if vector is None:
            vector = np.concatenate([np.ravel(a) for a in arrays.values()],
                                    dtype=float)
        self.vector, start = vector, 0
        for name, a in arrays.items():
            self[name] = vector[start:start + np.size(a)].reshape(np.shape(a))
            start += np.size(a)


@dataclass
class HybridModel:
    """The constructor copies pre, qparams and post into one ParamVector
    and rebinds them as its views, so every parameter lives in one vector."""
    pre: LinearLayer
    qspec: CircuitSpec
    qparams: np.ndarray
    post: LinearLayer

    def __post_init__(self):
        q, n = self.qspec.num_qubits, self.qspec.num_params
        if (self.pre.weights.shape[0], self.post.weights.shape,
                np.shape(self.qparams)) != (q, (2, q), (n,)):
            raise ValueError(
                f"expected ({q}, F) and (2, {q}) layer weights around {n} "
                f"quantum params, got {self.pre.weights.shape}, "
                f"{self.post.weights.shape} and {np.shape(self.qparams)}")
        p = self._params = ParamVector({
            "pre_w": self.pre.weights, "pre_b": self.pre.bias,
            "theta": self.qparams,
            "post_w": self.post.weights, "post_b": self.post.bias,
        })
        self.pre, self.qparams, self.post = (
            LinearLayer(p["pre_w"], p["pre_b"]), p["theta"],
            LinearLayer(p["post_w"], p["post_b"]))

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

    def forward(self, features: np.ndarray) -> np.ndarray:
        """(2,) logits of one feature vector: one exact forward_rows row."""
        return self.forward_rows([features])[0]

    def forward_rows(self, features, ledger: CallLedger | None = None,
                     mode: Shots | None = None, keys: tuple = ()
                     ) -> np.ndarray:
        """(B, 2) logits of B feature vectors, their circuits run as rows of
        one evaluate_rows call; in shot mode row i samples with seed
        derive_seed(mode.seed, *keys, i). The linear layers and the
        encoding run once on the stack."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.pre.in_dim:
            raise ValueError(f"expected rows of {self.pre.in_dim} features, "
                             f"got {features.shape}")
        angles = encode_features(self.pre.apply(features))
        params = np.tile(self.qparams, (len(angles), 1))
        z = evaluate_rows(self.qspec, np.hstack([angles, params]), mode, keys)
        if ledger is not None:
            ledger.add_forward(len(angles))
        return self.post.apply(z)

    def parameters(self) -> ParamVector:
        return self._params


def cross_entropy(logits: np.ndarray, labels
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(B,) cross-entropies of a (B, 2) logit stack against its labels (one
    int for all rows, or one per row) and their gradients in the logits,
    the softmax minus the one-hot label. Each row rounds as it would alone:
    log(sum e) - shifted[y], and x - 0.0 is x off the label."""
    shifted = logits.T - np.maximum(*logits.T)  # one column per row
    e = np.exp(shifted)
    total = e[0] + e[1]
    g = (e / total).T
    g -= _ONE_HOT[labels]
    return np.log(total) - np.where(labels, shifted[1], shifted[0]), g


def loss_and_grad(model: HybridModel, batch: list[tuple[np.ndarray, int]],
                  method: GradMethod, ledger: CallLedger,
                  mode: Shots | None = None, grads: ParamVector | None = None
                  ) -> tuple[float, ParamVector, np.ndarray]:
    """Mean cross-entropy, gradients for every parameter, and the logits.

    The gradient chain: d(loss)/d(logits) -> post layer -> quantum outputs
    -> quantum Jacobian (method-dependent) -> encoding angles -> tanh
    scaling -> pre layer. Every sample adds into one zeroed vector laid
    out as model.parameters(), divided once by the batch size: `grads`,
    refilled and returned, or a new vector without it. Only quantum-node
    executions touch the ledger.
    In shot mode sample 0 samples under `mode` and sample i > 0 under
    derive_seed(mode.seed, i), so no two samples share shot noise; hashed
    mode.streams cover one sample, so a larger batch raises ValueError.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    if mode and mode.streams is not None and len(batch) > 1:
        raise ValueError(f"hashed shot streams cover one sample, not a "
                         f"batch of {len(batch)}")
    params = model.parameters()
    if grads is None:
        grads = ParamVector(params, np.empty_like(params.vector))
    grads.vector.fill(0.0)
    total_loss = 0.0
    logits_out = np.zeros((len(batch), 2))
    for i, (features, label) in enumerate(batch):
        check_int("label", label, 0, len(LABELS) - 1, DataError)
        features = np.asarray(features, dtype=float)
        if features.shape != (model.pre.in_dim,):
            raise ValueError(f"expected rows of {model.pre.in_dim} features, "
                             f"got {features.shape}")
        u = model.pre.apply(features)
        m = Shots(mode.shots, derive_seed(mode.seed, i)) if mode and i else mode
        z, jac = value_and_jacobian(model.qspec, QNodeInput(u, model.qparams),
                                    method, ledger, m)
        logits_out[i] = model.post.apply(z)
        loss, g = cross_entropy(logits_out[i:i + 1], label)
        total_loss += float(loss[0])
        g_logits = g[0]
        grads["post_w"] += g_logits[:, None] * z
        grads["post_b"] += g_logits
        g_z = model.post.weights.T @ g_logits
        grads["theta"] += jac.d_params.T @ g_z
        g_u = encode_features_vjp(u, jac.d_inputs.T @ g_z)
        grads["pre_w"] += g_u[:, None] * features
        grads["pre_b"] += g_u
    if len(batch) > 1:  # x / 1 is x, so a one-sample step skips the pass
        grads.vector /= len(batch)
    return total_loss / len(batch), grads, logits_out


@dataclass
class OptimizerState:
    """Adam's step count and moments, one entry per parameter entry."""
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamVector) -> "OptimizerState":
        return cls(np.zeros_like(params.vector), np.zeros_like(params.vector))


def adam_step(params: ParamVector, grads: ParamVector,
              state: OptimizerState) -> None:
    """Bias-corrected Adam (Kingma & Ba, arXiv:1412.6980), in place on the
    flat vectors. Per entry: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p -= (lr*m_hat) / (sqrt(v_hat) + eps)."""
    state.step += 1
    t = state.step
    g, m, v = grads.vector, state.m, state.v
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    params.vector -= (ADAM_LR * (m / (1 - ADAM_BETA1 ** t))
                      / (np.sqrt(v / (1 - ADAM_BETA2 ** t)) + ADAM_EPS))


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    n_calls: int
    elapsed_ms: float

    def csv_row(self) -> str:
        return ",".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                        for v in astuple(self))


def train(model: HybridModel, train_set, val_set, epochs: int,
          method: GradMethod, seed: int, mode: Shots | None = None
          ) -> tuple[HybridModel, list[EpochMetrics], CallLedger]:
    """Seeded shuffling, per-sample Adam steps, one validation forward pass
    per image per epoch. Afterwards the ledger must equal epochs times
    ledger_predict, or ReconciliationError is raised; the returned ledger
    holds the reconcile report in `reconcile`. In shot mode call j of step
    s samples with seed derive_seed(derive_seed(mode.seed, epoch, s), j)."""
    check_int("epochs", epochs, 0)
    if epochs and not train_set:
        raise ValueError("training split is empty")
    ledger = CallLedger()
    params = model.parameters()
    opt = OptimizerState.for_params(params)
    grads = ParamVector(params, np.zeros_like(params.vector))
    shuffle_rng = derive_rng(seed, 0x5F)
    metrics: list[EpochMetrics] = []
    calls = ledger_predict(1, 0, model.qspec.num_layers,  # a step's calls
                           model.qspec.num_qubits, method)

    for epoch in range(epochs):
        t0 = time.perf_counter()
        calls_before = ledger.n_calls
        train_loss = 0.0
        train_correct = 0
        if mode:  # one hash an epoch: per step, its fixed cost would dominate
            streams = derive_streams(mode.seed, (epoch,), len(train_set), calls)
        for step, idx in enumerate(shuffle_rng.permutation(len(train_set))):
            s = train_set[idx]
            label = LABELS.index(s.label)
            m = mode and Shots(mode.shots, mode.seed, streams[step])
            loss, _, logits = loss_and_grad(model, [(s.values, label)],
                                            method, ledger, m, grads)
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
    rows = model.forward_rows([s.values for s in test_set], ledger, mode,
                              (seed_tag,))
    labels = np.array([LABELS.index(s.label) for s in test_set])
    pred = rows.argmax(axis=1)
    tn, fn, fp, tp = np.bincount(2 * pred + labels, minlength=4).tolist()
    n = len(test_set)
    return TestReport(
        # a running sum, as image by image: np.sum would add pairwise
        loss=float(np.cumsum(cross_entropy(rows, labels)[0])[-1]) / n,
        accuracy=(tp + tn) / n,
        confusion={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        misclassified=[s.id for s, wrong in zip(test_set, pred != labels)
                       if wrong],
    )


def save_checkpoint(path, model: HybridModel, seed: int) -> None:
    """Write the model and its seed as JSON, atomically."""
    p = {k: v.tolist() for k, v in model.parameters().items()}
    write_atomic(path, json.dumps({
        "seed": seed, "circuit": asdict(model.qspec),
        "pre": {"weights": p["pre_w"], "bias": p["pre_b"]},
        "qparams": p["theta"],
        "post": {"weights": p["post_w"], "bias": p["post_b"]},
    }))


def _reals(name: str, value) -> np.ndarray:
    """A checkpoint array whose every entry passes check_real."""
    entries = np.array(value, dtype=object)
    for x in entries.flat:
        check_real(name, x, -math.inf)
    return entries.astype(float)


def load_checkpoint(path) -> tuple[HybridModel, int]:
    """The model and seed save_checkpoint wrote. Keys of older files that
    the model no longer uses, such as "optimizer", are ignored."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        model = HybridModel(
            pre=LinearLayer(_reals("pre.weights", doc["pre"]["weights"]),
                            _reals("pre.bias", doc["pre"]["bias"])),
            qspec=CircuitSpec.from_dict(doc["circuit"]),
            qparams=_reals("qparams", doc["qparams"]),
            post=LinearLayer(_reals("post.weights", doc["post"]["weights"]),
                             _reals("post.bias", doc["post"]["bias"])),
        )
        check_int("seed", doc["seed"], 0)
        return model, doc["seed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint "
                          f"({type(exc).__name__}: {exc})") from exc
