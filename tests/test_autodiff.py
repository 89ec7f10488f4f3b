import math

import numpy as np
import pytest

from dense_oracle import apply_dense
from qcrack.autodiff import (CallLedger, GradMethod, _shift_rows, jacobian,
                             ledger_predict, ledger_reconcile,
                             value_and_jacobian)
from qcrack.circuit import (CircuitSpec, QNodeInput, Shots, build_from_angles,
                            encode_features, evaluate_angles, evaluate_rows)
from qcrack.errors import CapabilityError, ReconciliationError
from qcrack.statevector import evolve, z_rows, z_signs, zero_state

BP = GradMethod.backprop()
PS = GradMethod.param_shift()
FD_FWD = GradMethod.finite_diff(1e-4, "forward")
FD_CTR = GradMethod.finite_diff(1e-3, "central")


def raw_for_angle(angle):
    return np.arctanh(np.asarray(angle) / (math.pi / 2))


def random_case(rng, q=None, d=None):
    q = q or int(rng.integers(1, 5))
    d = d or int(rng.integers(1, 7))
    spec = CircuitSpec(num_qubits=q, q_depth=d)
    return spec, QNodeInput(rng.normal(size=q),
                            rng.uniform(-np.pi, np.pi, q * d))


class TestGradMethod:
    def test_validation(self):
        with pytest.raises(ValueError):
            GradMethod.finite_diff(0.0)
        with pytest.raises(ValueError):
            GradMethod.finite_diff(-1e-3)
        for bad in (float("nan"), math.inf):
            with pytest.raises(ValueError):
                GradMethod.finite_diff(bad)
        with pytest.raises(ValueError):
            GradMethod("nope")
        with pytest.raises(ValueError):
            GradMethod("finite-diff", fd_variant="sideways")
        # every kind checks its fd_* fields, as a run config records them
        for bad in (True, "x", None, [1e-3], -1):
            with pytest.raises(ValueError):
                GradMethod("param-shift", fd_delta=bad)
        with pytest.raises(ValueError):
            GradMethod("backprop", fd_variant="sideways")

    def test_int_beyond_float_rejected(self):
        # 10**400 compares below inf but does not convert to a float
        with pytest.raises(ValueError, match="fd_delta must be a finite"):
            GradMethod("finite-diff", 10 ** 400)

    def test_parse(self):
        # the constructor is the one parser: it keeps fd_* for every kind
        assert not hasattr(GradMethod, "parse")
        assert GradMethod("param-shift") == GradMethod.param_shift()
        with pytest.raises(TypeError):  # the shift rule has no knobs
            GradMethod("param-shift", shift=1.0)
        for kind in ("backprop", "finite-diff", "param-shift"):
            m = GradMethod(kind, 1e-3, "central")
            assert (m.kind, m.fd_delta, m.fd_variant) == (kind, 1e-3, "central")


class TestJacobianValues:
    def test_param_shift_exact_single_qubit(self):
        # closed form z = -sin(a + t) so dz/dt = -cos(a + t)
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        qin = QNodeInput(raw_for_angle([0.2]), [0.3])
        jac = jacobian(spec, qin, PS, CallLedger())
        assert jac.d_params[0, 0] == pytest.approx(-math.cos(0.5), abs=1e-12)
        assert jac.d_inputs[0, 0] == pytest.approx(-math.cos(0.5), abs=1e-12)

    def test_finite_diff_central_accuracy(self):
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        qin = QNodeInput(raw_for_angle([0.2]), [0.3])
        jac = jacobian(spec, qin, FD_CTR, CallLedger())
        assert jac.d_params[0, 0] == pytest.approx(-math.cos(0.5), abs=1e-6)

    def test_stationary_point(self):
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        qin = QNodeInput(np.zeros(1), [-math.pi / 2])
        for method in (BP, PS, FD_FWD, FD_CTR):
            jac = jacobian(spec, qin, method, CallLedger())
            assert abs(jac.d_params[0, 0]) <= 1e-4

    def test_value_matches_evaluate(self):
        rng = np.random.default_rng(3)
        spec, qin = random_case(rng, q=3, d=2)
        ref = evaluate_angles(spec, encode_features(qin.features), qin.params)
        for method in (BP, PS, FD_FWD):
            z, _ = value_and_jacobian(spec, qin, method, CallLedger())
            assert np.allclose(z, ref, atol=1e-12)

    def test_parity_over_random_circuits(self):
        rng = np.random.default_rng(1234)
        worst_ps = worst_ctr = worst_fwd = 0.0
        for _ in range(100):
            spec, qin = random_case(rng)
            j_bp = jacobian(spec, qin, BP, CallLedger())
            j_ps = jacobian(spec, qin, PS, CallLedger())
            j_ctr = jacobian(spec, qin, FD_CTR, CallLedger())
            j_fwd = jacobian(spec, qin, FD_FWD, CallLedger())
            stack = lambda j: np.hstack([j.d_inputs, j.d_params])
            worst_ps = max(worst_ps, np.max(np.abs(stack(j_ps) - stack(j_bp))))
            worst_ctr = max(worst_ctr, np.max(np.abs(stack(j_ctr) - stack(j_bp))))
            worst_fwd = max(worst_fwd, np.max(np.abs(stack(j_fwd) - stack(j_bp))))
        assert worst_ps <= 1e-10
        assert worst_ctr <= 1e-5
        assert worst_fwd <= 1e-3

    def test_shift_rule_invariant_to_delta(self):
        # the shift rule has no tolerance knob: fd_delta changes finite
        # differences but never the param-shift columns
        rng = np.random.default_rng(9)
        spec, qin = random_case(rng, q=2, d=2)
        ref = jacobian(spec, qin, PS, CallLedger())
        for delta in (1e-2, 1e-4, 1e-6):
            fd = jacobian(spec, qin, GradMethod.finite_diff(delta, "central"),
                          CallLedger())
            again = jacobian(spec, qin, PS, CallLedger())
            assert np.array_equal(ref.d_params, again.d_params)
            assert not np.array_equal(ref.d_params, fd.d_params)

    def test_shots_mode_param_shift(self):
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        qin = QNodeInput(raw_for_angle([0.2]), [0.3])
        mode = Shots(shots=200_000, seed=4)
        jac = jacobian(spec, qin, PS, CallLedger(), mode)
        assert jac.d_params[0, 0] == pytest.approx(-math.cos(0.5), abs=0.02)

    def test_backprop_rejects_shots(self):
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        with pytest.raises(CapabilityError):
            jacobian(spec, QNodeInput(np.zeros(1), np.zeros(1)), BP,
                     CallLedger(), Shots(100, 1))


def dense_z(spec, angles):
    """Per-qubit <Z> from the dense oracle at already-encoded angles."""
    q = spec.num_qubits
    gates = build_from_angles(spec, angles[:q], angles[q:])
    probs = np.abs(apply_dense(zero_state(q).amps, gates, q)) ** 2
    return np.array([np.sum(probs * (1 - 2 * ((np.arange(1 << q) >> k) & 1)))
                     for k in range(q)])


class TestBackpropSweep:
    """Backprop's one forward sweep (the ket plus a tangent row per angle)
    against the plain kernel, the shift rule and the dense oracle."""

    @pytest.mark.parametrize("q,d", [(1, 1), (2, 1), (3, 2), (4, 1), (4, 3),
                                     (6, 2)])
    def test_value_and_jacobian(self, q, d):
        rng = np.random.default_rng(100 * q + d)
        for _ in range(3):
            spec, qin = random_case(rng, q=q, d=d)
            angles = np.concatenate([encode_features(qin.features),
                                     qin.params])
            z, j_bp = value_and_jacobian(spec, qin, BP, CallLedger())
            assert np.array_equal(z, z_rows(evolve(q, d, angles[None]))[0])
            j_ps = jacobian(spec, qin, PS, CallLedger())
            bp = np.hstack([j_bp.d_inputs, j_bp.d_params])
            assert np.max(np.abs(np.hstack([j_ps.d_inputs, j_ps.d_params])
                                 - bp)) <= 1e-10
            # the oracle's derivative from two shifted dense evaluations
            eye = 0.5 * math.pi * np.eye(angles.size)
            oracle = np.array([0.5 * (dense_z(spec, angles + e)
                                      - dense_z(spec, angles - e))
                               for e in eye]).T
            assert np.max(np.abs(oracle - bp)) <= 1e-10


def textbook_rows(angles, step, paired):
    """The base row, then angles + step*e_j (and angles - step*e_j when
    paired) for each j, written out one row at a time."""
    rows = [angles]
    for j in range(angles.size):
        e = np.zeros(angles.size)
        e[j] = step
        rows += [angles + e, angles - e] if paired else [angles + e]
    return np.array(rows)


class TestOneTail:
    """Each method's value_and_jacobian against its textbook combination of
    the circuits it runs, exactly and in shot mode, with its ledger count."""

    @pytest.mark.parametrize("mode", [None, Shots(64, 11)])
    @pytest.mark.parametrize("method", [PS, FD_FWD, FD_CTR])
    def test_shift_methods(self, method, mode):
        rng = np.random.default_rng(41)
        for _ in range(4):
            spec, qin = random_case(rng, d=int(rng.integers(1, 4)))
            angles = np.concatenate([encode_features(qin.features),
                                     qin.params])
            n = angles.size
            if method is PS:  # (f+ - f-)/2 at +-pi/2
                f = evaluate_rows(spec, textbook_rows(angles, math.pi / 2,
                                                      True), mode)
                want = (f[1::2] - f[2::2]) / 2
            elif method is FD_FWD:  # (f+ - f0)/delta
                f = evaluate_rows(spec, textbook_rows(angles, method.fd_delta,
                                                      False), mode)
                want = (f[1:] - f[0]) / method.fd_delta
            else:  # (f+ - f-)/(2 delta)
                f = evaluate_rows(spec, textbook_rows(angles, method.fd_delta,
                                                      True), mode)
                want = (f[1::2] - f[2::2]) / (2 * method.fd_delta)
            ledger = CallLedger()
            z, jac = value_and_jacobian(spec, qin, method, ledger, mode)
            assert np.array_equal(z, f[0])
            assert np.array_equal(jac.d_inputs, want[:spec.num_qubits].T)
            assert np.array_equal(jac.d_params, want[spec.num_qubits:].T)
            assert (ledger.n_forward, ledger.n_backward) == (1, len(f) - 1)
            assert len(f) - 1 == (n if method is FD_FWD else 2 * n)

    def test_backprop(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            spec, qin = random_case(rng, d=int(rng.integers(1, 4)))
            q, n = spec.num_qubits, spec.num_qubits * spec.num_layers
            angles = np.concatenate([encode_features(qin.features),
                                     qin.params])
            rows = evolve(q, spec.q_depth, angles[None], tangents=True)
            ledger = CallLedger()
            z, jac = value_and_jacobian(spec, qin, BP, ledger)
            assert np.array_equal(z, z_rows(rows[:1])[0])
            # entry (k, j) is <psi|Z_k|row 1+j>
            want = np.array([[np.sum(rows[0] * z_signs(q)[k] * rows[1 + j])
                              for j in range(n)] for k in range(q)])
            got = np.hstack([jac.d_inputs, jac.d_params])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
            assert (ledger.n_forward, ledger.n_backward) == (1, 0)


class TestCallCounting:
    @pytest.mark.parametrize("method,forward,backward", [
        (BP, 1, 0),
        (PS, 1, lambda L, Q: 2 * L * Q),
        (FD_FWD, 1, lambda L, Q: L * Q),
        (FD_CTR, 1, lambda L, Q: 2 * L * Q),
    ])
    def test_jacobian_increments(self, method, forward, backward):
        spec = CircuitSpec(num_qubits=3, q_depth=2)
        ledger = CallLedger()
        jacobian(spec, QNodeInput(np.zeros(3), np.zeros(6)), method, ledger)
        L, Q = spec.num_layers, spec.num_qubits
        assert ledger.n_forward == forward
        expected = backward(L, Q) if callable(backward) else backward
        assert ledger.n_backward == expected
        assert ledger.n_calls == ledger.n_forward + ledger.n_backward

    @pytest.mark.parametrize("method", [BP, PS, FD_FWD, FD_CTR])
    @pytest.mark.parametrize("features,params", [
        (np.zeros(3), np.zeros(5)),  # the right total of Q=4 angles
        (np.zeros((1, 4)), np.zeros(4)),
    ])
    def test_misshaped_input_rejected_before_any_call(self, method, features,
                                                      params):
        spec = CircuitSpec(num_qubits=4, q_depth=1)
        ledger = CallLedger()
        with pytest.raises(ValueError, match=r"expected features \(4,\) and "
                                             r"params \(4,\), got"):
            value_and_jacobian(spec, QNodeInput(features, params), method,
                               ledger)
        assert ledger.n_calls == 0

    @pytest.mark.parametrize("method,rows", [(PS, 17), (FD_FWD, 9),
                                             (FD_CTR, 17)])
    def test_shift_rows_built_once_and_read_only(self, method, rows):
        offsets = _shift_rows(method, 8)
        assert offsets.shape == (rows, 8)
        assert _shift_rows(method, 8) is offsets
        with pytest.raises(ValueError):
            offsets[0, 0] = 1.0

    def test_shift_rows_cache_keys_on_the_step(self):
        wide = GradMethod.finite_diff(2 * FD_FWD.fd_delta)
        assert np.max(_shift_rows(wide, 8)) == \
            2 * np.max(_shift_rows(FD_FWD, 8))


class TestLedgerPredict:
    def test_paper_epoch_counts(self):
        args = (856, 184, 2, 4)
        assert ledger_predict(*args, BP) == 1_040
        assert ledger_predict(*args, FD_FWD) == 7_888
        assert ledger_predict(*args, PS) == 14_736

    def test_ten_epoch_total(self):
        # 49 + 49 + 2*49*2*4 = 882 per epoch; 8,820 over ten epochs
        assert 10 * ledger_predict(49, 49, 2, 4, PS) == 8_820

    def test_small_cases(self):
        assert ledger_predict(1, 0, 2, 1, BP) == 1
        assert ledger_predict(1, 0, 2, 1, FD_FWD) == 3
        assert ledger_predict(1, 0, 2, 1, PS) == 5
        assert ledger_predict(0, 0, 3, 7, PS) == 0

    def test_central_variant_honest_count(self):
        assert ledger_predict(10, 5, 2, 4, FD_CTR) == 15 + 2 * 10 * 2 * 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ledger_predict(-1, 0, 2, 4, BP)
        # T, V >= 0, L = q_depth + 1 >= 2 and Q >= 1, each an integer
        for sizes in ((True, 1, 2, 4), (1.5, 1, 2, 4), (5, 5.0, 2, 4),
                      (5, 5, 2.0, 4), (5, 5, 2, False), (5, 5, 0, 4),
                      (5, 5, 1, 4), (5, 5, 2, 0)):
            with pytest.raises(ValueError, match="must be an integer"):
                ledger_predict(*sizes, PS)

    def test_sweep_matches_measured(self):
        # measured calls over simulated epochs equal the table predictions
        for T in (1, 5, 20):
            for V in (1, 5, 20):
                for L in range(2, 8):
                    for Q in (1, 2):
                        spec = CircuitSpec(num_qubits=Q, q_depth=L - 1)
                        for method in (BP, PS, FD_FWD):
                            ledger = CallLedger()
                            qin = QNodeInput(np.zeros(Q),
                                             np.zeros(spec.num_params))
                            for _ in range(T):
                                jacobian(spec, qin, method, ledger)
                            for _ in range(V):
                                ledger.add_forward(1)  # validation forward
                            assert ledger.n_calls == \
                                ledger_predict(T, V, L, Q, method)

    def test_backward_scales_affinely_in_depth(self):
        T, Q = 3, 4
        backs = []
        for d in range(1, 7):
            spec = CircuitSpec(num_qubits=Q, q_depth=d)
            ledger = CallLedger()
            qin = QNodeInput(np.zeros(Q), np.zeros(spec.num_params))
            for _ in range(T):
                jacobian(spec, qin, PS, ledger)
            backs.append(ledger.n_backward)
        diffs = np.diff(backs)
        assert np.all(diffs == 2 * T * Q)


class TestLedgerReconcile:
    def test_pass(self):
        ledger = CallLedger()
        ledger.add_forward(1040)
        report = ledger_reconcile(ledger, 1040)
        assert report["ok"] and report["measured"] == 1040

    def test_zero_epoch(self):
        assert ledger_reconcile(CallLedger(), 0)["ok"]

    def test_mismatch_flagged(self):
        spec = CircuitSpec(num_qubits=4, q_depth=1)
        T, V, L, Q = 3, 2, 2, 4
        ledger = CallLedger()
        qin = QNodeInput(np.zeros(4), np.zeros(4))
        for _ in range(T - 1):  # one skipped image
            jacobian(spec, qin, PS, ledger)
        for _ in range(V):
            ledger.add_forward(1)
        predicted = ledger_predict(T, V, L, Q, PS)
        with pytest.raises(ReconciliationError) as exc:
            ledger_reconcile(ledger, predicted)
        assert predicted - exc.value.report["measured"] == 2 * L * Q + 1
