#!/usr/bin/env python3
"""Reproduce the per-epoch device-call counts analytically and empirically.

The analytic counts for one epoch with T training and V validation images
on an L-layer, Q-qubit circuit:

    backprop     T + V
    finite-diff  T + V + T*L*Q      (forward differences)
    param-shift  T + V + 2*T*L*Q

Central differences run two circuits per angle, as the shift rule does,
and cost the same as param-shift.

The empirical half trains a real model for one epoch on synthetic data;
train() checks that the ledger agrees exactly and raises
ReconciliationError otherwise, so a mismatch exits 1. The analytic table
alone is `qcrack ledger T V L Q`.
"""

import argparse
import sys

import numpy as np

from qcrack.autodiff import GradMethod, ledger_predict
from qcrack.circuit import CircuitSpec
from qcrack.data import FeatureSample
from qcrack.model import HybridModel, train

METHODS = [GradMethod.backprop(), GradMethod.finite_diff(),
           GradMethod.param_shift()]


def random_samples(n: int, dim: int, seed: int) -> list[FeatureSample]:
    rng = np.random.default_rng(seed)
    return [FeatureSample(id=f"s{i:04d}",
                          label="crack" if i % 2 else "no_crack",
                          values=rng.normal(size=dim),
                          source="random")
            for i in range(n)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--train", type=int, default=856, metavar="T")
    ap.add_argument("--val", type=int, default=184, metavar="V")
    ap.add_argument("--qubits", type=int, default=4)
    ap.add_argument("--q-depth", type=int, default=1)
    args = ap.parse_args()

    spec = CircuitSpec(num_qubits=args.qubits, q_depth=args.q_depth)
    T, V, L, Q = args.train, args.val, spec.num_layers, spec.num_qubits
    print(f"T={T} V={V} L={L} Q={Q}")
    print(f"{'method':<12} {'predicted':>10} {'measured':>10}")
    for method in METHODS:
        predicted = ledger_predict(T, V, L, Q, method)
        tr = random_samples(T, 16, seed=1)
        va = random_samples(V, 16, seed=2)
        model = HybridModel.init(16, spec, seed=3)
        _, _, ledger = train(model, tr, va, 1, method, seed=4)
        print(f"{method.kind:<12} {predicted:>10,} {ledger.n_calls:>10,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
