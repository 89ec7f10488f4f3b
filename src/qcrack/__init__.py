"""Hybrid quantum-classical crack classification on an exact statevector
simulator, with interchangeable gradient methods and exact device-call
accounting."""

from .autodiff import (CallLedger, GradMethod, QNodeJacobian, jacobian,
                       ledger_predict, ledger_reconcile, value_and_jacobian)
from .circuit import CircuitSpec, QNodeInput, Shots, encode_features
from .data import (FeatureSample, Patch, SplitConfig, extract_features,
                   generate_synthetic, import_features, load_dataset, split)
from .model import (HybridModel, LinearLayer, OptimizerState, adam_step,
                    evaluate_test, loss_and_grad, train)
from .statevector import (Gate, ShotCounts, StateVector, apply_gate,
                          estimate_z_from_counts, sample, z_expectation,
                          zero_state)

__all__ = [
    "CallLedger", "CircuitSpec", "FeatureSample", "Gate",
    "GradMethod", "HybridModel", "LinearLayer", "OptimizerState", "Patch",
    "QNodeInput", "QNodeJacobian", "ShotCounts", "Shots", "SplitConfig",
    "StateVector", "adam_step", "apply_gate", "encode_features",
    "estimate_z_from_counts", "evaluate_test", "extract_features",
    "generate_synthetic", "import_features", "jacobian", "ledger_predict",
    "ledger_reconcile", "load_dataset", "loss_and_grad", "sample", "split",
    "train", "value_and_jacobian", "z_expectation", "zero_state",
]
