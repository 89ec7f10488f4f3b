"""Shot-mode outputs pinned to values the gate-by-gate simulator produced
before the batched kernel replaced it on the training and evaluation
paths. Shot-mode values depend on the exact amplitudes through the sampled
counts, so they must match exactly, not within a tolerance."""

import numpy as np

from qcrack.autodiff import CallLedger, GradMethod, value_and_jacobian
from qcrack.circuit import CircuitSpec, QNodeInput, Shots
from qcrack.data import FeatureSample
from qcrack.model import HybridModel, evaluate_test, train

SPEC = CircuitSpec(num_qubits=3, q_depth=2)

JAC_Z = [-0.109375, 0.34375, 0.15625]
JAC_D_INPUTS = [
    [-0.0234375, 0.41796875, -0.30078125],
    [-0.01171875, -0.21484375, 0.27734375],
    [0.046875, -0.37109375, 0.49609375],
]
JAC_D_PARAMS = [
    [-0.0703125, -0.06640625, -0.04296875, -0.8203125, 0.05859375, 0.0234375],
    [-0.07421875, 0.84765625, -0.84765625, 0.015625, 0.0078125, 0.0],
    [0.13671875, 0.24609375, -0.28515625, -0.0078125, 0.03515625, -0.23828125],
]
REPORT = {
    "test_loss": 0.796202253659179,
    "test_accuracy": 0.2,
    "confusion_matrix": {"tp": 1, "fp": 4, "fn": 4, "tn": 1},
    "misclassified_ids": ["e0", "e2", "e3", "e5", "e6", "e7", "e8", "e9"],
}
EPOCH_LOSSES = (0.6983049189396141, 0.758593653203977)
EPOCH_PARAMS = {
    "pre_w": [
        [-0.16253628263394254, 0.1984487586308929, 0.15542664246201693,
         -0.4039647456562839, -0.2911307217863247, 0.06685055397023106],
        [-0.1132636380365576, -0.3351320376415851, -0.052226879915528115,
         -0.015434640333704803, 0.3216870516241849, -0.1802886120351092],
        [0.38692875349002237, -0.024797564703002452, 0.0749783200293183,
         0.14496317484241317, 0.37596510911067343, 0.13398276400757375],
    ],
    "pre_b": [4.3823979291757295e-05, 0.0004644524721567102,
              0.0014664499304851146],
    "theta": [-0.05830401213847186, -0.013029853193751223,
              0.07602610918265185, -0.008679763355698585,
              -0.05521523402530516, -0.08173501801828456],
    "post_w": [
        [-0.1148705651545995, -0.023356168324624053, 0.49056667429410955],
        [-0.20405572523313487, 0.36332631644595403, 0.47027043521354844],
    ],
    "post_b": [0.0013268087572018404, -0.0013268087572018404],
}


def samples(n, seed, prefix):
    rng = np.random.default_rng(seed)
    return [FeatureSample(f"{prefix}{i}", "crack" if i % 2 else "no_crack",
                          rng.normal(size=6)) for i in range(n)]


def test_param_shift_jacobian():
    rng = np.random.default_rng(2718)
    qin = QNodeInput(rng.normal(size=3), rng.uniform(-np.pi, np.pi, 6))
    z, jac = value_and_jacobian(SPEC, qin, GradMethod.param_shift(),
                                CallLedger(), Shots(256, 11))
    assert z.tolist() == JAC_Z
    assert jac.d_inputs.tolist() == JAC_D_INPUTS
    assert jac.d_params.tolist() == JAC_D_PARAMS


def test_evaluate_test_report():
    model = HybridModel.init(6, SPEC, 5)
    report = evaluate_test(model, samples(10, 31, "e"), Shots(128, 21))
    assert report.to_dict() == REPORT


def test_param_shift_epoch():
    model = HybridModel.init(6, SPEC, 9)
    model, (m,), _ = train(model, samples(6, 41, "t"), samples(4, 42, "v"), 1,
                           GradMethod.param_shift(), seed=3,
                           mode=Shots(64, 17))
    assert (m.train_loss, m.val_loss) == EPOCH_LOSSES
    params = {k: v.tolist() for k, v in model.parameters().items()}
    assert params == EPOCH_PARAMS
