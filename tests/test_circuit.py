import json
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import apply_dense
from qcrack.circuit import (CircuitSpec, Shots, build_from_angles,
                            encode_features, encode_features_vjp,
                            evaluate_angles, evaluate_rows)
from qcrack.data import derive_seed, derive_streams
from qcrack.errors import CapacityError, DataError
from qcrack.statevector import zero_state


class TestEncodeFeatures:
    def test_zero(self):
        assert np.array_equal(encode_features(np.zeros(4)), np.zeros(4))

    def test_saturation(self):
        assert encode_features(np.array([100.0]))[0] == \
            pytest.approx(math.pi / 2, abs=1e-10)

    def test_direct_values(self):
        got = encode_features(np.array([-1.0, 1.0]))
        want = (math.pi / 2) * math.tanh(1.0)
        assert np.allclose(got, [-want, want])
        assert want == pytest.approx(1.196309, abs=1e-6)

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            encode_features(np.array([0.0, float("nan")]))

    def test_vjp(self):
        x = np.array([-2.0, -0.3, 0.0, 0.7, 4.0])
        g = np.array([0.5, -1.0, 2.0, 1.5, -0.25])
        got = encode_features_vjp(x, g)
        # the expression the model's backward pass has always used
        old = g * (math.pi / 2.0) * (1.0 - np.tanh(x) ** 2)
        assert np.array_equal(got, old)
        h = 1e-6
        central = (encode_features(x + h) - encode_features(x - h)) / (2 * h)
        assert np.allclose(got, g * central, rtol=0, atol=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_bounded(self, xs):
        angles = encode_features(np.array(xs))
        assert np.all(np.abs(angles) < math.pi / 2 + 1e-12)


class TestBuildCircuit:
    def test_q4_depth1_structure(self):
        spec = CircuitSpec(num_qubits=4, q_depth=1)
        gates = build_from_angles(spec, np.zeros(4), np.zeros(4))
        assert len(gates) == 15  # 4 H + 4 enc Ry + 3 CX + 4 var Ry
        kinds = [g.kind for g in gates]
        assert kinds == ["h"] * 4 + ["ry"] * 4 + ["cx"] * 3 + ["ry"] * 4
        # brick pattern: even pairs then the odd pair
        cx = [(g.control, g.target) for g in gates if g.kind == "cx"]
        assert cx == [(0, 1), (2, 3), (1, 2)]

    def test_single_qubit(self):
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        gates = build_from_angles(spec, np.zeros(1), np.zeros(1))
        assert [g.kind for g in gates] == ["h", "ry", "ry"]

    def test_q4_depth6_count(self):
        spec = CircuitSpec(num_qubits=4, q_depth=6)
        gates = build_from_angles(spec, np.zeros(4), np.zeros(24))
        assert len(gates) == 50  # 8 + 6 * 7

    @pytest.mark.parametrize("q,d", [(1, 1), (2, 3), (3, 2), (4, 6), (5, 2)])
    def test_gate_census(self, q, d):
        spec = CircuitSpec(num_qubits=q, q_depth=d)
        gates = build_from_angles(spec, np.zeros(q), np.zeros(q * d))
        kinds = [g.kind for g in gates]
        assert kinds.count("h") == q
        assert kinds.count("ry") == q + d * q
        assert kinds.count("cx") == d * (q - 1)
        assert len(gates) == 2 * q + d * (q + (q - 1))

    def test_length_mismatch(self):
        spec = CircuitSpec(num_qubits=4, q_depth=1)
        with pytest.raises(ValueError):
            build_from_angles(spec, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            build_from_angles(spec, np.zeros(4), np.zeros(5))


class TestEvaluate:
    def test_all_zero_inputs(self):
        spec = CircuitSpec(num_qubits=4, q_depth=1)
        z = evaluate_angles(spec, np.zeros(4), np.zeros(4))
        assert np.max(np.abs(z)) <= 1e-12
        # cross-check against the dense oracle
        gates = build_from_angles(spec, np.zeros(4), np.zeros(4))
        expected = apply_dense(zero_state(4).amps, gates, 4)
        probs = np.abs(expected) ** 2
        for q in range(4):
            bits = (np.arange(16) >> q) & 1
            assert abs(np.sum(probs * (1 - 2 * bits))) <= 1e-12

    def test_single_qubit_closed_form_point(self):
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        z = evaluate_angles(spec, [0.2], [0.3])
        assert z[0] == pytest.approx(-math.sin(0.5), abs=1e-12)

    def test_single_qubit_extremum(self):
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        z = evaluate_angles(spec, np.zeros(1), [-math.pi / 2])
        assert z[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_closed_form_grid(self):
        spec = CircuitSpec(num_qubits=1, q_depth=1)
        grid = [(a, t) for a in np.linspace(-1.5, 1.5, 10)
                for t in np.linspace(-3, 3, 10)]
        rows = evaluate_rows(spec, np.array(grid))
        for (a, t), row in zip(grid, rows):
            z = evaluate_angles(spec, [a], [t])
            assert z[0] == pytest.approx(-math.sin(a + t), abs=1e-12)
            assert row[0] == pytest.approx(-math.sin(a + t), abs=1e-12)

    @given(seed=st.integers(0, 10 ** 6), q=st.integers(1, 4),
           d=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_output_bounds(self, seed, q, d):
        rng = np.random.default_rng(seed)
        spec = CircuitSpec(num_qubits=q, q_depth=d)
        z = evaluate_angles(spec, encode_features(rng.normal(size=q)),
                            rng.uniform(-np.pi, np.pi, q * d))
        assert np.all(np.abs(z) <= 1.0 + 1e-12)

    def test_exact_mode_deterministic(self):
        spec = CircuitSpec(num_qubits=3, q_depth=2)
        rng = np.random.default_rng(1)
        angles, params = rng.normal(size=3), rng.normal(size=6)
        z1 = evaluate_angles(spec, angles, params)
        z2 = evaluate_angles(spec, angles, params)
        assert np.array_equal(z1, z2)

    def test_shots_mode_deterministic_and_close(self):
        spec = CircuitSpec(num_qubits=2, q_depth=1)
        angles = encode_features([0.3, -0.4])
        params = np.array([0.5, 0.1])
        mode = Shots(shots=200_000, seed=9)
        z1 = evaluate_angles(spec, angles, params, mode)
        z2 = evaluate_angles(spec, angles, params, mode)
        assert np.array_equal(z1, z2)
        assert np.max(np.abs(z1 - evaluate_angles(spec, angles, params))) \
            <= 0.02


class TestEvaluateRows:
    def test_matches_single_register(self):
        spec = CircuitSpec(num_qubits=3, q_depth=2)
        rng = np.random.default_rng(2)
        rows = rng.uniform(-np.pi, np.pi, size=(50, 9))
        z = evaluate_rows(spec, rows)
        for row, zi in zip(rows, z):
            ref = evaluate_angles(spec, row[:3], row[3:])
            assert np.max(np.abs(zi - ref)) <= 1e-14

    def test_shot_rows_use_derived_seeds(self):
        spec = CircuitSpec(num_qubits=3, q_depth=1)
        rows = np.random.default_rng(4).uniform(-np.pi, np.pi, size=(6, 6))
        mode = Shots(shots=100, seed=12)
        z = evaluate_rows(spec, rows, mode, keys=(7,))
        for i, (row, zi) in enumerate(zip(rows, z)):
            m = Shots(100, derive_seed(12, 7, i))
            assert np.array_equal(zi, evaluate_angles(spec, row[:3], row[3:], m))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            evaluate_rows(CircuitSpec(num_qubits=2, q_depth=1), np.zeros((3, 3)))

    @pytest.mark.parametrize("n_streams, n_rows", [(2, 3), (1030, 1024)])
    def test_one_stream_per_row(self, n_streams, n_rows):
        # too few once failed in a reshape, too many (one block at Q = 3)
        # ran and dropped the rest; either is refused before evolve runs
        mode = Shots(100, 1, derive_streams(1, (), n_streams))
        with mock.patch("qcrack.circuit.evolve", side_effect=AssertionError):
            with pytest.raises(ValueError, match=f"{n_streams} shot streams "
                               f"for {n_rows} rows"):
                evaluate_rows(CircuitSpec(num_qubits=3, q_depth=1),
                              np.zeros((n_rows, 6)), mode)

    @pytest.mark.parametrize("mode", [None, Shots(shots=100, seed=1)],
                             ids=["exact", "shots"])
    def test_zero_rows_read_out_empty(self, mode):
        z = evaluate_rows(CircuitSpec(num_qubits=3, q_depth=2),
                          np.empty((0, 9)), mode)
        assert z.shape == (0, 3)


class TestShots:
    def test_validation(self):
        assert Shots(1, 0) == Shots(shots=1, seed=0)
        for shots, seed in ((0, 1), (True, 1), (2.5, 1), ("8", 1), (None, 1),
                            (8, -1), (8, True), (8, "x"), (8, None)):
            with pytest.raises(ValueError):
                Shots(shots, seed)

    def test_equality_ignores_streams(self):
        streams = derive_streams(3, (), 2)
        assert Shots(8, 3, streams) == Shots(8, 3)
        assert repr(Shots(8, 3, streams)) == repr(Shots(8, 3))

    def test_shots_bounded_by_numpy(self):
        assert Shots(2 ** 63 - 1, 0).shots == 2 ** 63 - 1
        with pytest.raises(ValueError, match="shots must be an integer"):
            Shots(2 ** 63, 0)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = CircuitSpec(num_qubits=4, q_depth=2)
        doc = json.loads(json.dumps(asdict(spec)))
        assert doc == {"num_qubits": 4, "q_depth": 2}
        assert CircuitSpec.from_dict(doc) == spec
        # files written before the circuit was fixed carry two more keys
        old = dict(doc, entanglement="parallel-brick",
                   input_scaling="tanh-halfpi")
        assert CircuitSpec.from_dict(old) == spec

    def test_layer_and_param_counts(self):
        spec = CircuitSpec(num_qubits=4, q_depth=3)
        assert spec.num_layers == 4
        assert spec.num_params == 12

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            CircuitSpec(num_qubits=0)
        with pytest.raises(ValueError):
            CircuitSpec(q_depth=0)
        with pytest.raises(CapacityError):
            CircuitSpec(num_qubits=21)
        for bad in (4.5, True, "4"):
            with pytest.raises(ValueError):
                CircuitSpec(num_qubits=bad)
        for doc in ({"entanglement": "all-to-all"},
                    {"input_scaling": "identity"},
                    {"num_qbits": 5}):
            with pytest.raises(ValueError):
                CircuitSpec.from_dict(doc)
        with pytest.raises(TypeError):
            CircuitSpec.from_dict([4, 1])
