#!/usr/bin/env python3
"""End-to-end experiment: generate synthetic crack patches, train the
hybrid classifier with each gradient method, and compare test accuracy
and device-call cost.

Fully deterministic for a given --seed. With the defaults this takes a
couple of minutes; shrink --n-crack/--n-clean/--epochs for a quick look.
"""

import argparse
import sys
import time

from qcrack.autodiff import GradMethod, ledger_predict
from qcrack.circuit import CircuitSpec
from qcrack.data import SplitConfig, extract_features, generate_synthetic, split
from qcrack.model import HybridModel, evaluate_test, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-crack", type=int, default=175)
    ap.add_argument("--n-clean", type=int, default=175)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--q-depth", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--methods", nargs="+",
                    default=["backprop", "finite-diff", "param-shift"])
    args = ap.parse_args()

    print(f"generating {args.n_crack}+{args.n_clean} patches ...",
          flush=True)
    patches = generate_synthetic(args.n_crack, args.n_clean, seed=args.seed)
    samples = [extract_features(p) for p in patches]
    tr, va, te = split(samples, SplitConfig((4 / 7, 1 / 7, 2 / 7),
                                            seed=args.seed + 1))
    spec = CircuitSpec(num_qubits=4, q_depth=args.q_depth)
    print(f"split {len(tr)}/{len(va)}/{len(te)}, circuit "
          f"{spec.num_qubits} qubits, {spec.num_layers} layers")
    print(f"{'method':<12} {'test_acc':>8} {'calls':>10} {'predicted':>10}"
          f" {'seconds':>8}")

    for name in args.methods:
        method = GradMethod(name)
        model = HybridModel.init(len(tr[0].values), spec,
                                 seed=args.seed + 2)
        t0 = time.perf_counter()
        model, metrics, ledger = train(model, tr, va, args.epochs, method,
                                       seed=args.seed + 3)
        elapsed = time.perf_counter() - t0
        report = evaluate_test(model, te)
        per_epoch = ledger_predict(len(tr), len(va), spec.num_layers,
                                   spec.num_qubits, method)
        print(f"{name:<12} {report.accuracy:>8.3f} {ledger.n_calls:>10,}"
              f" {per_epoch * args.epochs:>10,} {elapsed:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
