"""Command-line surface: gen, train, eval, gradcheck, ledger, estimate.

Flags and config documents become the package's value types (CircuitSpec,
GradMethod, Shots, SplitConfig, BackendProfile), which check their own
fields; a value one rejects is a config error, raised before any work.
Each command returns its exit code, its result document and its text
lines, and prints nothing; `main` alone prints, the document with --json
and the lines without. Exit codes: 0 success, 1 runtime failure, 2
config/usage error. Files are written atomically (temp file + rename).
`train` alone writes a report, and its artifacts sit beside the exact
configuration that produced them (run_config.json, report.json's
`config`); the other commands print their result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from .autodiff import (BACKPROP, FINITE_DIFF, PARAM_SHIFT, CallLedger,
                       GradMethod, jacobian, ledger_predict)
from .backends import BackendProfile, estimate_runtime, load_profile
from .circuit import CircuitSpec, QNodeInput, Shots
from .data import SplitConfig, write_atomic
from .errors import ConfigError, ReconciliationError, check_int
from .model import (EpochMetrics, HybridModel, evaluate_test,
                    load_checkpoint, save_checkpoint, train)

# ---------------------------------------------------------------------------
# Run configuration

# The keys each data source takes, in the order its loader takes them.
_SOURCES = {"synthetic": ("n_crack", "n_clean", "gen_seed"),
            "dir": ("path", "manifest"), "features": ("path",)}

# Every train config key with its default, in the order run_config.json
# records them.
_DEFAULTS = {
    "circuit": {}, "method": BACKPROP, "fd_delta": GradMethod.fd_delta,
    "fd_variant": GradMethod.fd_variant, "epochs": 1, "seed": 0,
    "shots": None, "split": (0.7, 0.15, 0.15),
    "data": {"source": "synthetic", "n_crack": 50, "n_clean": 50},
    "out_dir": "runs/run",
}


@dataclass
class RunConfig:
    circuit: CircuitSpec
    method: GradMethod
    mode: Shots | None
    split: SplitConfig
    doc: dict  # every value the run uses, as run_config.json records it


@contextmanager
def _usage(prefix: str = ""):
    """Report a value type rejecting user input as a ConfigError (exit 2)."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def parse_run_config(doc: dict) -> RunConfig:
    """Validate a train config document before any work starts and fill in
    its defaults from _DEFAULTS, so that RunConfig.doc records every value
    the run uses."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    d = {**_DEFAULTS, **doc}
    with _usage("circuit: "):
        circuit = CircuitSpec.from_dict(d["circuit"])
    with _usage():
        check_int("epochs", d["epochs"], 0)
        check_int("seed", d["seed"], 0)
        method = GradMethod(d["method"], d["fd_delta"], d["fd_variant"])
        mode = None if d["shots"] is None else Shots(d["shots"], d["seed"])
        split = SplitConfig(d["split"], d["seed"])
    if mode is not None and method.kind == BACKPROP:
        raise ConfigError("backprop is not available in shots mode")
    d.update(circuit=asdict(circuit), split=list(split.ratios),
             data=check_data(d["data"]))
    if not isinstance(d["out_dir"], str):
        raise ConfigError("out_dir must be a path string")
    d["out_dir"] = str(Path(d["out_dir"]))
    return RunConfig(circuit, method, mode, split, d)


def check_data(data) -> dict:
    """Validate a data object, from a config or from `eval`'s flags, against
    _SOURCES and fill in the synthetic generator's default gen_seed."""
    source = data.get("source") if isinstance(data, dict) else None
    if not isinstance(source, str) or source not in _SOURCES:
        raise ConfigError(f"data.source must be one of {tuple(_SOURCES)}")
    unknown = set(data) - {"source", *_SOURCES[source]}
    if unknown:
        raise ConfigError(f"unknown data keys: {sorted(unknown)}")
    if source == "synthetic":
        data = {**data, "gen_seed": data.get("gen_seed", data_mod.GEN_SEED)}
    for key in _SOURCES[source]:
        if source == "synthetic":
            with _usage("data."):
                check_int(key, data.get(key), 0)
        elif not isinstance(data.get(key), str):
            raise ConfigError(f"data.{key} must be a path string")
    return data


def _load_samples(data: dict) -> list:
    args = [data[key] for key in _SOURCES[data["source"]]]
    if data["source"] == "features":
        return data_mod.import_features(*args)
    load = (data_mod.generate_synthetic if data["source"] == "synthetic"
            else data_mod.load_dataset)
    return [data_mod.extract_features(p) for p in load(*args)]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_train(args) -> tuple[int, dict | None, list[str]]:
    with _usage():
        doc = json.loads(Path(args.config).read_text())
    overrides = {"seed": args.seed, "out_dir": args.out}
    if isinstance(doc, dict):  # else parse_run_config reports it
        doc.update((k, v) for k, v in overrides.items() if v is not None)
    cfg = parse_run_config(doc)
    epochs, seed = cfg.doc["epochs"], cfg.doc["seed"]

    samples = _load_samples(cfg.doc["data"])
    train_set, val_set, test_set = data_mod.split(samples, cfg.split)
    n_features = len(samples[0].values) if samples else 0
    if not train_set:
        raise ConfigError("training split is empty")

    model = HybridModel.init(n_features, cfg.circuit, seed)
    out = Path(cfg.doc["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        model, metrics, ledger = train(model, train_set, val_set, epochs,
                                       cfg.method, seed, cfg.mode)
    except ReconciliationError as exc:
        write_atomic(out / "report.json", json.dumps(
            {"config": cfg.doc, "reconcile": exc.report}, indent=2))
        raise
    report = evaluate_test(model, test_set, cfg.mode) if test_set else None
    wall_s = time.perf_counter() - t0

    write_atomic(out / "run_config.json", json.dumps(cfg.doc, indent=2))
    write_atomic(out / "split.json",
                 data_mod.split_record((train_set, val_set, test_set), cfg.split))
    rows = [",".join(f.name for f in fields(EpochMetrics)),
            *(m.csv_row() for m in metrics)]
    write_atomic(out / "metrics.csv", "\n".join(rows) + "\n")
    save_checkpoint(out / "checkpoint.json", model, seed)

    rec = ledger.reconcile
    doc_out = {
        "config": cfg.doc,
        "reconcile": rec,
        "wall_seconds": wall_s,
        "splits": {"train": len(train_set), "val": len(val_set),
                   "test": len(test_set)},
    }
    if report is not None:
        doc_out.update(report.to_dict())
    write_atomic(out / "report.json", json.dumps(doc_out, indent=2))
    return 0, doc_out, [
        f"trained {epochs} epochs with {cfg.method.kind} "
        f"(T={len(train_set)}, V={len(val_set)}, "
        f"L={cfg.circuit.num_layers}, Q={cfg.circuit.num_qubits})",
        *([f"test loss {report.loss:.4f}  test accuracy {report.accuracy:.4f}"]
          if report is not None else []),
        f"calls: measured {rec['measured']}  predicted {rec['predicted']}",
        f"artifacts written to {out}"]


def cmd_eval(args) -> tuple[int, dict | None, list[str]]:
    flags = {"source": "dir", "path": args.data_dir, "manifest": args.manifest}
    if args.features is not None:
        flags.update(source="features", path=args.features)
    data = check_data({k: v for k, v in flags.items() if v is not None})
    if args.seed is not None and args.shots is None:
        raise ConfigError("--seed needs --shots")
    model, seed = load_checkpoint(args.checkpoint)
    with _usage():
        mode = None if args.shots is None else Shots(
            args.shots, seed if args.seed is None else args.seed)
    samples = _load_samples(data)
    if not samples:
        where = data.get("manifest", data["path"])
        raise ConfigError(f"nothing to evaluate: {where} lists no samples")
    if len(samples[0].values) != model.pre.in_dim:
        raise ConfigError(f"checkpoint expects {model.pre.in_dim} features, "
                          f"data has {len(samples[0].values)}")
    report = evaluate_test(model, samples, mode)
    c = report.confusion
    return 0, report.to_dict(), [
        f"loss {report.loss:.4f}  accuracy {report.accuracy:.4f}",
        f"confusion: tp={c['tp']} fp={c['fp']} fn={c['fn']} tn={c['tn']}",
        *([f"misclassified: {', '.join(report.misclassified)}"]
          if report.misclassified else [])]


# gradcheck's bounds: the shift rule is exact, finite differences truncate.
TOL_SHIFT, TOL_FD = 1e-10, 1e-3


def cmd_gradcheck(args) -> tuple[int, dict | None, list[str]]:
    with _usage():
        check_int("trials", args.trials, 1)
        check_int("seed", args.seed, 0)
        spec = CircuitSpec(num_qubits=args.qubits, q_depth=args.q_depth)
    fd_method = GradMethod.finite_diff()
    methods = (GradMethod.backprop(), GradMethod.param_shift(), fd_method)
    rng = np.random.default_rng(args.seed)
    max_shift = max_fd = 0.0
    for _ in range(args.trials):
        qinput = QNodeInput(
            features=rng.normal(0.0, 1.0, spec.num_qubits),
            params=rng.uniform(-np.pi, np.pi, spec.num_params),
        )
        ledger = CallLedger()
        bp, ps, fd = [np.hstack([j.d_params, j.d_inputs]) for j in
                      (jacobian(spec, qinput, m, ledger) for m in methods)]
        max_shift = max(max_shift, float(np.max(np.abs(ps - bp))))
        max_fd = max(max_fd, float(np.max(np.abs(fd - bp))))
    ok_shift = max_shift <= TOL_SHIFT
    ok_fd = max_fd <= TOL_FD
    doc = {
        "trials": args.trials,
        "qubits": args.qubits,
        "q_depth": args.q_depth,
        "max_dev_param_shift_vs_backprop": max_shift,
        "tol_shift": TOL_SHIFT,
        "max_dev_finite_diff_vs_backprop": max_fd,
        "tol_fd": TOL_FD,
        "pass": ok_shift and ok_fd,
    }
    return 0 if doc["pass"] else 1, doc, [
        f"param-shift vs backprop: max dev {max_shift:.3e} "
        f"(tol {TOL_SHIFT:.0e}) {'pass' if ok_shift else 'FAIL'}",
        f"finite-diff ({fd_method.fd_variant}, d={fd_method.fd_delta:g}) vs "
        f"backprop: max dev {max_fd:.3e} "
        f"(tol {TOL_FD:.0e}) {'pass' if ok_fd else 'FAIL'}"]


def cmd_ledger(args) -> tuple[int, dict | None, list[str]]:
    with _usage():
        rows = [(name, ledger_predict(args.T, args.V, args.L, args.Q,
                                      GradMethod(name)))
                for name in (BACKPROP, FINITE_DIFF, PARAM_SHIFT)]
    doc = {"T": args.T, "V": args.V, "L": args.L, "Q": args.Q,
           "n_calls": dict(rows)}
    return 0, doc, [f"predicted calls per epoch "
                    f"(T={args.T}, V={args.V}, L={args.L}, Q={args.Q}):",
                    *(f"  {name:<13} {n:,}" for name, n in rows)]


def cmd_estimate(args) -> tuple[int, dict | None, list[str]]:
    if args.clops is None and not args.profile:
        raise ConfigError("estimate needs --profile or --clops")
    with _usage():
        try:
            profile = (load_profile(args.profile) if args.profile else
                       BackendProfile("custom", args.clops))
        except FileNotFoundError as exc:  # an unknown name is a bad value
            raise ValueError(str(exc)) from exc
        if args.clops is not None:
            profile = replace(profile, clops=args.clops)
        if args.overhead is not None:
            profile = replace(profile, overhead_factor=args.overhead)
        device_s, wall_s = estimate_runtime(profile, args.n_calls, args.shots,
                                            args.layers)
    doc = {
        "profile": profile.name,
        "clops": profile.clops,
        "overhead_factor": profile.overhead_factor,
        "n_calls": args.n_calls,
        "shots": args.shots,
        "layers": args.layers,
        "device_seconds": device_s,
        "wall_seconds": wall_s,
    }
    return 0, doc, [
        f"device_seconds = n_calls*shots*layers/clops = "
        f"{args.n_calls}*{args.shots}*{args.layers}/{profile.clops} "
        f"= {device_s:,.1f} s",
        f"wall_seconds   = device_seconds*{profile.overhead_factor:g} "
        f"= {wall_s:,.1f} s",
        "(order-of-magnitude model; queueing reduced to one multiplier)"]


def cmd_gen(args) -> tuple[int, dict | None, list[str]]:
    with _usage():
        patches = data_mod.generate_synthetic(args.n_crack, args.n_clean,
                                              args.seed)
    manifest = data_mod.write_patches(patches, args.out)
    return 0, None, [f"wrote {len(patches)} patches and {manifest}"]


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcrack",
        description="Hybrid quantum-classical crack classifier on an exact "
                    "statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)  # all but gen's
    json_flag.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="generate synthetic crack/no-crack patches")
    p.add_argument("n_crack", type=int)
    p.add_argument("n_clean", type=int)
    p.add_argument("--seed", type=int, default=data_mod.GEN_SEED)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", parents=[json_flag],
                       help="train the hybrid classifier")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override config out_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[json_flag],
                       help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--features", default=None, help="feature CSV")
    source.add_argument("--data-dir", default=None,
                        help="patch directory (with --manifest)")
    p.add_argument("--manifest", default=None, help="manifest CSV")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", parents=[json_flag],
                       help="cross-check the three gradient methods")
    p.add_argument("--qubits", type=int, default=CircuitSpec.num_qubits)
    p.add_argument("--q-depth", type=int, default=CircuitSpec.q_depth)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ledger", parents=[json_flag],
                       help="predicted device calls per epoch")
    p.add_argument("T", type=int)
    p.add_argument("V", type=int)
    p.add_argument("L", type=int)
    p.add_argument("Q", type=int)
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("estimate", parents=[json_flag],
                       help="device/wall time from backend throughput")
    p.add_argument("--profile", default=None,
                   help="built-in profile name or profile JSON path")
    p.add_argument("--clops", type=int, default=None,
                   help="override/define throughput directly")
    p.add_argument("--overhead", type=float, default=None,
                   help="queue/transpile multiplier (>= 1)")
    p.add_argument("--n-calls", type=int, required=True)
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--layers", type=int, default=2)
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc, lines = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc) if getattr(args, "json", False) else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
