"""Workloads, output checks and metrics of the qcrack benchmark.

Every workload is a closed loop: one caller in one process runs a unit
(one paper-size epoch, one ingest batch or one evaluation pass), checks its
outputs, and starts the next unit only after that. run.py caps the BLAS
threads and puts src/ on the path before this module is imported.

README.md in this directory says why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qcrack import autodiff, backends, circuit, data, statevector
from qcrack import model as hybrid
from qcrack.autodiff import CallLedger, GradMethod, ledger_predict
from qcrack.circuit import CircuitSpec, QNodeInput, Shots
from qcrack.data import FeatureSample, SplitConfig

from tracer import Tracer, count_under, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 3              # set-up runs per process; setup_s is their median
UNTRACED_SHARE = 1 / 3      # of --seconds, spent untraced in a traced run
CAL_SHARE = 0.15            # calibration time after each unit, share of its wall
CAL_REF_S = 0.006           # calibration-loop time that setup_s is scaled to
REF_SEED = 20230624         # input of the stored reference checks
FEATURES = 512
SHOTS = 1024                # shot count of the paper's runtime estimates
PROFILE = "ibmq_kolkata"
ORACLE_TOL = 1e-12          # strided simulator against the dense oracle
PARITY_TOL = 1e-10          # param-shift against backprop Jacobians
TAIL_SPANS = ("autodiff.value_and_jacobian", "model.loss_and_grad")


def seed_rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def child_seed(*keys: int) -> int:
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1)[0])


def random_samples(n: int, rng: np.random.Generator,
                   prefix: str = "s") -> list[FeatureSample]:
    """scripts/reproduce_call_counts.py's recipe at 512 dims."""
    return [FeatureSample(id=f"{prefix}{i:04d}",
                          label="crack" if i % 2 else "no_crack",
                          values=rng.normal(size=FEATURES), source="random")
            for i in range(n)]


def copy_model(m: hybrid.HybridModel) -> hybrid.HybridModel:
    return hybrid.HybridModel(
        pre=hybrid.LinearLayer(m.pre.weights.copy(), m.pre.bias.copy()),
        qspec=m.qspec, qparams=m.qparams.copy(),
        post=hybrid.LinearLayer(m.post.weights.copy(), m.post.bias.copy()),
    )


def diff(expected, got, tol: float, path: str = "") -> list[str]:
    """Mismatches between two JSON-like values; floats within `tol`."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return [f"{path}: keys differ"]
        return [e for k in expected
                for e in diff(expected[k], got[k], tol, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{path}: length differs"]
        out = []
        for i, (a, b) in enumerate(zip(expected, got)):
            out += diff(a, b, tol, f"{path}[{i}]")
            if out:
                return out
        return out
    if isinstance(expected, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float))
              and abs(float(expected) - float(got)) <= tol)
        return [] if ok else [f"{path}: expected {expected!r}, got {got!r}"]
    return [] if expected == got else [f"{path}: expected {expected!r}, got {got!r}"]


# ---------------------------------------------------------------------------
# Independent cross-check against tests/dense_oracle.py

def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "dense_oracle", ROOT / "tests" / "dense_oracle.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_H = ((2 ** -0.5, 2 ** -0.5), (2 ** -0.5, -(2 ** -0.5)))
_X = ((0.0, 1.0), (1.0, 0.0))


@dataclass(frozen=True)
class OracleGate:
    """The gate interface dense_oracle.full_unitary reads, built here from
    the circuit's description rather than from qcrack's Gate."""
    target: int
    control: int | None
    matrix: tuple

    def local_matrix(self) -> np.ndarray:
        return np.array(self.matrix, dtype=complex)


def _ry(w: int, theta: float) -> OracleGate:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return OracleGate(w, None, ((c, -s), (s, c)))


def oracle_z(oracle, spec: CircuitSpec, u: np.ndarray,
             params: np.ndarray) -> np.ndarray:
    """Per-qubit <Z> by dense matrices: H wall, Ry((pi/2)tanh(u)) encoding,
    then per block a CX brick (even pairs, then odd) and one Ry per wire."""
    q = spec.num_qubits
    gates = [OracleGate(w, None, _H) for w in range(q)]
    gates += [_ry(w, (math.pi / 2) * math.tanh(u[w])) for w in range(q)]
    pairs = [(c, c + 1) for c in range(0, q - 1, 2)]
    pairs += [(c, c + 1) for c in range(1, q - 1, 2)]
    for layer in range(spec.q_depth):
        gates += [OracleGate(t, c, _X) for c, t in pairs]
        gates += [_ry(w, params[layer * q + w]) for w in range(q)]
    psi = np.zeros(1 << q, dtype=complex)
    psi[0] = 1.0
    psi = oracle.apply_dense(psi, gates, q)
    probs = np.abs(psi) ** 2
    idx = np.arange(1 << q)
    return np.array([probs @ (1 - 2 * ((idx >> k) & 1)) for k in range(q)])


def cross_check(m: hybrid.HybridModel, samples) -> list[str]:
    """Model logits and quantum-node values against the dense oracle, and
    param-shift against backprop Jacobians."""
    oracle = _load_oracle()
    errors = []
    spec = m.qspec
    for s in samples:
        u = m.pre.weights @ s.values + m.pre.bias
        z_ref = oracle_z(oracle, spec, u, m.qparams)
        logits = m.forward(s.values)
        dev = np.max(np.abs(logits - (m.post.weights @ z_ref + m.post.bias)))
        if not dev <= ORACLE_TOL:
            errors.append(f"{s.id}: forward deviates {dev:.3g} from the oracle")
        qin = QNodeInput(features=m.pre.apply(s.values), params=m.qparams)
        z_bp, j_bp = autodiff.value_and_jacobian(
            spec, qin, GradMethod.backprop(), CallLedger())
        z_ps, j_ps = autodiff.value_and_jacobian(
            spec, qin, GradMethod.param_shift(), CallLedger())
        dev = max(np.max(np.abs(z_bp - z_ref)), np.max(np.abs(z_ps - z_ref)))
        if not dev <= ORACLE_TOL:
            errors.append(f"{s.id}: <Z> deviates {dev:.3g} from the oracle")
        dev = max(np.max(np.abs(j_ps.d_params - j_bp.d_params)),
                  np.max(np.abs(j_ps.d_inputs - j_bp.d_inputs)))
        if not dev <= PARITY_TOL:
            errors.append(f"{s.id}: param-shift deviates {dev:.3g} "
                          f"from backprop")
    return errors


def in_child(fn, *args) -> list[str]:
    """fn(*args), a list of errors, run in a forked child process, so the
    memory it takes stays out of this process's peak RSS. The child sends
    its errors back through a pipe and exits; this process reads them and
    waits for it, so no process outlives the call."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            try:
                errors = fn(*args)
            except BaseException as exc:
                errors = [f"cross-check: {type(exc).__name__}: {exc}"]
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(errors, out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as inp:
            payload = inp.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not payload:
        return [f"cross-check child ended with status {status}"]
    return pickle.loads(payload)


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """One kind of unit. `inputs(seed)` derives everything from the seed,
    `run` is the timed unit, and `inspect` turns its outputs into a summary
    (compared with the stored reference and with the run's first unit)
    plus the errors of checks that need no reference."""

    name = ""
    tolerance = 0.0          # against the stored reference
    oracle_circuits = 0      # dense-oracle circuits per set-up
    spec: CircuitSpec | None = None

    def inputs(self, seed: int, reference: bool = False):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def inspect(self, inp, out) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def items(self, inp) -> int:
        raise NotImplementedError

    def calls(self, inp) -> int:
        """Circuit executions per unit."""
        return 0

    def ledger(self, inp) -> tuple[int, int, int]:
        """(forward, backward, total) ledger calls ledger_predict expects
        per unit."""
        return 0, 0, 0

    def oracle_samples(self, inp, rep: int) -> tuple:
        """(model, samples) to cross-check; needed if oracle_circuits."""
        raise NotImplementedError


@dataclass
class EpochInputs:
    train: list
    val: list
    model: hybrid.HybridModel
    shuffle_seed: int


class Epoch(Workload):
    """One training epoch from the same initial model, per-sample Adam."""

    tolerance = 1e-9
    oracle_circuits = 4
    spec = CircuitSpec(num_qubits=4, q_depth=1)

    def __init__(self, name: str, method: GradMethod):
        self.name = name
        self.method = method

    def inputs(self, seed, reference=False):
        t, v = (24, 8) if reference else (856, 184)
        return EpochInputs(
            train=random_samples(t, seed_rng(seed, 1), "t"),
            val=random_samples(v, seed_rng(seed, 2), "v"),
            model=hybrid.HybridModel.init(FEATURES, self.spec,
                                          child_seed(seed, 3)),
            shuffle_seed=child_seed(seed, 4),
        )

    def run(self, inp):
        return hybrid.train(copy_model(inp.model), inp.train, inp.val, 1,
                            self.method, seed=inp.shuffle_seed)

    def inspect(self, inp, out):
        trained, metrics, ledger = out
        (m,) = metrics
        summary = {
            "n_forward": ledger.n_forward, "n_backward": ledger.n_backward,
            "train_loss": m.train_loss, "val_loss": m.val_loss,
            "train_acc": m.train_acc, "val_acc": m.val_acc,
            "params": {k: p.tolist() for k, p in trained.parameters().items()},
        }
        _, _, predicted = self.ledger(inp)
        errors = []
        if ledger.n_calls != predicted:
            errors.append(f"ledger counted {ledger.n_calls} calls, "
                          f"ledger_predict says {predicted}")
        if ledger.n_forward != len(inp.train) + len(inp.val):
            errors.append(f"ledger counted {ledger.n_forward} forward calls")
        if not all(math.isfinite(x) for x in (m.train_loss, m.val_loss)):
            errors.append("non-finite loss")
        return summary, errors

    def items(self, inp):
        return len(inp.train) + len(inp.val)

    def calls(self, inp):
        return self.ledger(inp)[2]

    def ledger(self, inp):
        t, v = len(inp.train), len(inp.val)
        total = ledger_predict(t, v, self.spec.num_layers,
                               self.spec.num_qubits, self.method)
        return t + v, total - t - v, total

    def oracle_samples(self, inp, rep):
        pick = seed_rng(inp.shuffle_seed, rep).choice(
            len(inp.train), self.oracle_circuits, replace=False)
        return inp.model, [inp.train[i] for i in pick]


@dataclass
class IngestInputs:
    n_each: int
    patch_seed: int
    split_seed: int


class Ingest(Workload):
    """Synthesis, PGM write and read-back, feature extraction and split."""

    name = "ingest"
    tolerance = 1e-12
    ratios = (0.7, 0.15, 0.15)

    def inputs(self, seed, reference=False):
        return IngestInputs(n_each=7 if reference else 24,
                            patch_seed=child_seed(seed, 5),
                            split_seed=child_seed(seed, 6))

    def run(self, inp):
        OUT_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="ingest-", dir=OUT_DIR))
        patches = data.generate_synthetic(inp.n_each, inp.n_each,
                                          inp.patch_seed)
        manifest = data.write_patches(patches, work)
        loaded = data.load_dataset(work, manifest)
        features = [data.extract_features(p) for p in loaded]
        parts = data.split(features, SplitConfig(self.ratios, inp.split_seed))
        return work, manifest, patches, loaded, features, parts

    def inspect(self, inp, out):
        work, manifest, patches, loaded, features, parts = out
        try:
            files = [manifest] + [work / f"{p.id}.pgm" for p in patches]
            digest = hashlib.sha256()
            for f in files:
                digest.update(f.read_bytes())
            # load_dataset reads back every file write_patches wrote
            n_bytes = sum(f.stat().st_size for f in files)
        finally:
            shutil.rmtree(work)
        errors = []
        if [(p.id, p.label) for p in loaded] != [(p.id, p.label) for p in patches]:
            errors.append("read-back patches differ in id or label")
        elif not all(np.array_equal(a.pixels, b.pixels)
                     for a, b in zip(patches, loaded)):
            errors.append("read-back pixels differ from the written ones")
        ids = [s.id for part in parts for s in part]
        if sorted(ids) != sorted(p.id for p in patches):
            errors.append("split is not a partition of the patches")
        for label in ("crack", "no_crack"):
            for part, ratio in zip(parts, self.ratios):
                n = sum(s.label == label for s in part)
                if abs(n - inp.n_each * ratio) >= 1:
                    errors.append(f"split puts {n} {label} patches in a "
                                  f"{ratio} share of {inp.n_each}")
        summary = {
            "sha256": digest.hexdigest(),
            "bytes": n_bytes,
            "features": [f.values.tolist() for f in features],
            "split": [[s.id for s in part] for part in parts],
        }
        return summary, errors

    def items(self, inp):
        return 2 * inp.n_each


@dataclass
class EvalInputs:
    model: hybrid.HybridModel
    test: list
    mode: Shots
    exact_loss: float


class EvalShots(Workload):
    """evaluate_test in shot mode on a 10-qubit, q_depth=3 model."""

    name = "eval-shots-q10"
    tolerance = 1e-9
    oracle_circuits = 1
    spec = CircuitSpec(num_qubits=10, q_depth=3)
    shot_noise_tol = 0.05   # |shot-mode loss - exact loss|, mean over images

    def inputs(self, seed, reference=False):
        m = hybrid.HybridModel.init(FEATURES, self.spec, child_seed(seed, 7))
        test = random_samples(8 if reference else 64, seed_rng(seed, 8), "e")
        return EvalInputs(m, test, Shots(SHOTS, child_seed(seed, 9)),
                          hybrid.evaluate_test(m, test).loss)

    def run(self, inp):
        return hybrid.evaluate_test(inp.model, inp.test, inp.mode)

    def inspect(self, inp, out):
        errors = []
        if not abs(out.loss - inp.exact_loss) <= self.shot_noise_tol:
            errors.append(f"shot-mode loss {out.loss} is farther than "
                          f"{self.shot_noise_tol} from the exact "
                          f"{inp.exact_loss}")
        if sum(out.confusion.values()) != len(inp.test):
            errors.append("confusion matrix does not count every image")
        return {"loss": out.loss, "accuracy": out.accuracy,
                "confusion": out.confusion,
                "misclassified": out.misclassified}, errors

    def items(self, inp):
        return len(inp.test)

    def calls(self, inp):
        return len(inp.test)   # evaluate_test keeps no ledger: one per image

    def oracle_samples(self, inp, rep):
        pick = seed_rng(inp.mode.seed, rep).choice(
            len(inp.test), self.oracle_circuits, replace=False)
        return inp.model, [inp.test[i] for i in pick]


WORKLOADS = {w.name: w for w in (
    Epoch("epoch-paramshift", GradMethod.param_shift()),
    Epoch("epoch-backprop", GradMethod.backprop()),
    Ingest(),
    EvalShots(),
)}


def reference_run(wl: Workload) -> tuple[dict, list[str]]:
    """The unit on the fixed reference input, whose summary every set-up
    compares with reference.json."""
    inp = wl.inputs(REF_SEED, reference=True)
    return wl.inspect(inp, wl.run(inp))


# ---------------------------------------------------------------------------
# Measuring

@dataclass
class Unit:
    wall_s: float
    cpu_s: float
    errors: list
    ledger: tuple = (0, 0)   # (n_forward, n_backward) the unit's ledger kept


_CAL_AMPS = np.exp(1j * np.arange(16.0))
_CAL_IDX = np.arange(16)
_CAL_GRID = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
_CAL_WORDS = [format(i, "010b") for i in range(0, 1024, 4)]


def calibration_loop() -> tuple[float, float]:
    """A fixed stretch of work that uses no qcrack code, on one thread, in
    three parts of about equal time: numpy calls on 16 amplitudes, as in a
    gate kernel; pure-Python scans of bitstrings, as in reading shot
    counts; elementwise operations on a 128x128 array, as in feature
    extraction. Returns its wall and CPU seconds, which track the host's
    speed."""
    t0, c0 = time.perf_counter(), time.process_time()
    a = _CAL_AMPS
    for i in range(300):
        b = a[_CAL_IDX ^ (1 << (i & 3))]
        a = 0.6 * a + 0.8j * b
        a = a / np.sqrt(np.vdot(a, a).real)
    zeros = 0
    for bit in range(6):
        for word in _CAL_WORDS:
            if any(ch not in "01" for ch in word):
                raise ValueError(word)
            zeros += word[9 - bit] == "0"
    x = _CAL_GRID
    for _ in range(12):
        x = np.tanh(x) + np.cumsum(x, axis=1) * 1e-4
    return time.perf_counter() - t0, time.process_time() - c0


def calibrate(cal: list, seconds: float) -> None:
    """Run the calibration loop once, then again until `seconds` have
    passed, appending (wall, CPU) seconds of each run to `cal`."""
    end = time.perf_counter() + seconds
    cal.append(calibration_loop())
    while time.perf_counter() < end:
        cal.append(calibration_loop())


def set_up(wl: Workload, seed: int, rep: int):
    """One set-up: inputs, then the reference run (which also warms the
    caches the timed units use), then the cross-check."""
    inp = wl.inputs(seed)
    try:
        stored = json.loads(REFERENCE.read_text())[wl.name]
        summary, errors = reference_run(wl)
        errors += diff(stored, summary, wl.tolerance, "reference")
        if wl.oracle_circuits:
            # the dense oracle's unitaries (three live at once, 4**Q
            # complex128 entries each: 48 MiB at Q=10) stay out of
            # peak_rss_mb
            errors += in_child(cross_check, *wl.oracle_samples(inp, rep))
    except Exception as exc:  # a crash is a failed check, not a lost run
        errors = [f"set-up: {type(exc).__name__}: {exc}"]
    return inp, errors


def run_units(wl: Workload, inp, seconds: float, first: list,
              cal: list) -> list[Unit]:
    """Closed loop: start a unit only if it is expected to end in time.
    After each unit the calibration loop runs for CAL_SHARE of the unit's
    wall time, so its samples in `cal` follow the host's speed in step
    with the units."""
    units: list[Unit] = []
    t_begin = time.perf_counter()
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a crash is a failed unit, not a lost run
            out, errors = None, [f"{type(exc).__name__}: {exc}"]
        t1, c1 = time.perf_counter(), time.process_time()
        ledger = (0, 0)
        if out is not None:
            try:
                summary, errors = wl.inspect(inp, out)
                if not first:
                    first.append(summary)
                errors += diff(first[0], summary, 0.0, "unit")
                ledger = (summary.get("n_forward", 0),
                          summary.get("n_backward", 0))
            except Exception as exc:
                errors = [f"check: {type(exc).__name__}: {exc}"]
        units.append(Unit(t1 - t0, c1 - c0, errors, ledger))
        calibrate(cal, CAL_SHARE * (t1 - t0))
        expected = statistics.median(u.wall_s for u in units) * (1 + CAL_SHARE)
        if time.perf_counter() - t_begin + expected > seconds:
            return units


def per_cal(units: list[Unit], cal: list, key: str) -> float:
    """Mean unit time over the mean time of the calibration loop run beside
    the units: wall over wall, or CPU over CPU. A host that runs slower for
    a while slows both, so the ratio holds where seconds drift."""
    i = 0 if key == "wall_s" else 1
    return (statistics.fmean(getattr(u, key) for u in units)
            / statistics.fmean(c[i] for c in cal))


def tail(values) -> dict | None:
    """The highest percentile with at least ten values beyond it (p99 from
    1,000 values on), with the sample count; None below 11 values."""
    n = len(values)
    if n <= 10:
        return None
    pct = 99.0 if n >= 1000 else 100.0 * (n - 10) / n
    return {"pct": round(pct, 2), "value": float(np.percentile(values, pct)),
            "n": n}


@dataclass
class Tally:
    """Counts taken at call sites during the traced units."""
    gates: Counter = field(default_factory=Counter)  # (qubits, controlled)
    bytes_read: int = 0      # sizes of the files load_dataset reads


def install_tally(tally: Tally) -> None:
    """Count apply_gate calls by register size and control, and the bytes of
    the manifest and patch files load_dataset reads. Installed before the
    tracer, so these wrappers run inside the spans."""
    apply_gate, read_pgm = statevector.apply_gate, data.read_pgm
    load_dataset = data.load_dataset

    @functools.wraps(apply_gate)
    def counted_gate(state, gate, *args, **kwargs):
        tally.gates[state.num_qubits, gate.control is not None] += 1
        return apply_gate(state, gate, *args, **kwargs)

    @functools.wraps(read_pgm)
    def counted_read(path, *args, **kwargs):
        tally.bytes_read += os.stat(path).st_size
        return read_pgm(path, *args, **kwargs)

    @functools.wraps(load_dataset)
    def counted_load(directory, manifest, *args, **kwargs):
        tally.bytes_read += os.stat(manifest).st_size
        return load_dataset(directory, manifest, *args, **kwargs)

    statevector.apply_gate = autodiff.apply_gate = counted_gate
    data.read_pgm = counted_read
    data.load_dataset = counted_load


def install_wrappers(tracer: Tracer) -> None:
    for name, sites in (
        ("statevector.apply_gate",
         [(statevector, "apply_gate"), (autodiff, "apply_gate")]),
        ("statevector.apply_gates", [(circuit, "apply_gates")]),
        ("statevector.z_expectations", [(circuit, "z_expectations")]),
        ("statevector.sample", [(circuit, "sample")]),
        ("statevector.estimate_z_from_counts",
         [(circuit, "estimate_z_from_counts")]),
        ("circuit.build_from_angles",
         [(circuit, "build_from_angles"), (autodiff, "build_from_angles")]),
        ("circuit.evaluate_angles",
         [(autodiff, "evaluate_angles"), (hybrid, "evaluate_angles")]),
        ("autodiff.value_and_jacobian", [(hybrid, "value_and_jacobian")]),
        ("model.loss_and_grad", [(hybrid, "loss_and_grad")]),
        ("model.adam_step", [(hybrid, "adam_step")]),
        ("model.forward", [(hybrid.HybridModel, "forward")]),
        *((f"data.{fn}", [(data, fn)]) for fn in (
            "generate_synthetic", "write_patches", "load_dataset",
            "extract_features", "split")),
    ):
        tracer.install(name, sites)


def per_layer(wl: Workload, inp, summary: dict, tracer: Tracer, tally: Tally,
              traced: list[Unit], untraced: list[Unit], traced_cal: list,
              untraced_cal: list) -> dict[str, float]:
    """Per-unit layer metrics of the traced units."""
    n = len(traced)
    spans = summarize(tracer)
    out: dict[str, float] = {}

    def calls(name):
        return spans[name]["calls"] / n

    def self_s(name):
        return spans[name]["self_s"] / n

    def pct_us(name, key):
        d = spans[name]["durations"]
        if not d.size:
            return 0.0
        if key == "p50_us":
            return float(np.percentile(d, 50)) * 1e6
        t = tail(d)
        return (t["value"] if t else float(d.max())) * 1e6

    for name in ("statevector.apply_gate", "statevector.z_expectations",
                 "statevector.sample", "statevector.estimate_z_from_counts",
                 "circuit.build_from_angles", "circuit.evaluate_angles",
                 "autodiff.value_and_jacobian", "model.loss_and_grad",
                 "model.adam_step", "model.forward", "data.extract_features"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("statevector.apply_gates", "data.generate_synthetic",
                 "data.write_patches", "data.load_dataset", "data.split"):
        out[f"{name}.self_s"] = self_s(name)
    gate_calls = spans["statevector.apply_gate"]["calls"]
    out["statevector.apply_gate.us_per_call"] = (
        spans["statevector.apply_gate"]["self_s"] / gate_calls * 1e6
        if gate_calls else 0.0)
    circuits = wl.calls(inp)
    out["statevector.gates_per_circuit"] = (
        calls("statevector.apply_gate") / circuits if circuits else 0.0)
    # computed, not measured: per amplitude pair a gather and a scatter of
    # both complex128 amplitudes, each through an int64 index array
    out["statevector.bytes_moved_computed"] = sum(
        c * (1 << (q - 2 if controlled else q - 1)) * 96
        for (q, controlled), c in tally.gates.items()) / n
    for name in TAIL_SPANS:
        for key in ("p50_us", "p99_us"):
            out[f"{name}.{key}"] = pct_us(name, key)
    jac_calls = spans["autodiff.value_and_jacobian"]["calls"]
    if jac_calls and wl.spec is not None:
        s = wl.spec  # H and Ry walls, then per block Q-1 CX and Q Ry
        gates = 2 * s.num_qubits + s.q_depth * (2 * s.num_qubits - 1)
        out["autodiff.sweeps_per_jacobian"] = count_under(
            tracer, "autodiff.value_and_jacobian",
            "statevector.apply_gate") / (jac_calls * gates)
    else:
        out["autodiff.sweeps_per_jacobian"] = 0.0
    out["autodiff.ledger.n_forward"] = sum(u.ledger[0] for u in traced) / n
    out["autodiff.ledger.n_backward"] = sum(u.ledger[1] for u in traced) / n
    out["autodiff.ledger.predicted"] = float(wl.ledger(inp)[2])
    out["data.bytes_written"] = float(summary.get("bytes", 0))
    out["data.bytes_read"] = tally.bytes_read / n
    out["backends.device_s"] = (
        backends.estimate_runtime(backends.load_profile(PROFILE), circuits,
                                  SHOTS, wl.spec.num_layers)[0]
        if circuits else 0.0)
    out["trace.overhead_frac"] = (per_cal(traced, traced_cal, "wall_s")
                                  / per_cal(untraced, untraced_cal, "wall_s")
                                  - 1.0)
    out["trace.unaccounted_s"] = (
        sum(u.wall_s for u in traced) - spans["<top>"]["total_s"]) / n
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description="qcrack benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv, import_s: float, numpy_import_s: float) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    wl = WORKLOADS[args.workload]

    setup_times, set_up_errors = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        inp, errors = set_up(wl, args.seed, rep)
        setup_times.append(time.perf_counter() - t0)
        set_up_errors.append(errors)

    setup_raw_s = import_s + statistics.median(setup_times)

    first: list = []
    cal: list = []
    span_tails = {}
    if args.trace:
        untraced = run_units(wl, inp, args.seconds * UNTRACED_SHARE, first,
                             cal)
        tally, tracer = Tally(), Tracer()
        install_tally(tally)
        install_wrappers(tracer)
        traced_cal: list = []
        units = run_units(wl, inp, args.seconds * (1 - UNTRACED_SHARE), first,
                          traced_cal)
        metrics = per_layer(wl, inp, first[0] if first else {}, tracer, tally,
                            units, untraced, traced_cal, cal)
        spans = summarize(tracer)
        span_tails = {name: tail(spans[name]["durations"] * 1e6)
                      for name in TAIL_SPANS}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{wl.name}.npz")
        units = untraced + units
        cal += traced_cal
    else:
        units = run_units(wl, inp, args.seconds, first, cal)
        wall_cal = per_cal(units, cal, "wall_s")
        metrics = {
            "setup_s": setup_raw_s * CAL_REF_S / statistics.fmean(
                c[0] for c in cal),
            "wall_cal": wall_cal,
            "items_per_cal": wl.items(inp) / wall_cal,
            "cpu_cal": per_cal(units, cal, "cpu_s"),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    checked = set_up_errors + [u.errors for u in units]
    failed = sum(1 for e in checked if e)
    walls = [u.wall_s for u in units]
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "units": len(units),
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail(walls),
        "cpu_s": statistics.median(u.cpu_s for u in units),
        "items_per_s": wl.items(inp) * len(units) / sum(walls),
        "calls_per_s": (wl.calls(inp) * len(units) / sum(walls)
                        if wl.calls(inp) else None),
        "cal_s": statistics.fmean(c[0] for c in cal),
        "cal_samples": len(cal),
        "span_tails_us": span_tails,
        "fail_frac": failed / len(checked),
        "setup_raw_s": setup_raw_s, "import_s": import_s,
        "numpy_import_s": numpy_import_s,
        "setup_reps_s": setup_times,
        "errors": [e for errs in checked for e in errs][:10],
    }))
    declared = json.loads(BENCHMARK.read_text())
    units_of = {m["name"]: m["unit"] for m in
                declared["per_layer" if args.trace else "end_to_end"]}
    if set(units_of) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units_of) ^ set(metrics))} "
                           f"are not both measured and declared")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1
