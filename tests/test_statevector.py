import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dense_oracle import apply_dense
from conftest import random_gate_sequence
from qcrack.circuit import CircuitSpec, build_from_angles
from qcrack.data import derive_seed, derive_streams
from qcrack.errors import CapacityError, DataError
from qcrack.statevector import (BLOCK_AMPS, Gate, StateVector, _gate_plan,
                                apply_gate, apply_gates, brick_pairs,
                                brick_permutation, check_qubits,
                                estimate_z_from_counts, evolve, sample,
                                sampled_z_rows, z_expectation, z_rows,
                                z_signs, zero_state)


def plus_state():
    return apply_gate(zero_state(1), Gate("h", 0))


def plan_arrays(plan):
    """Every array a _gate_plan result holds, through its nested tuples
    and its list of steps."""
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, (tuple, list)):
        for item in plan:
            yield from plan_arrays(item)


class TestZeroState:
    def test_single_qubit(self):
        assert np.allclose(zero_state(1).amps, [1, 0])

    def test_two_qubits(self):
        assert np.allclose(zero_state(2).amps, [1, 0, 0, 0])

    def test_four_qubits(self):
        s = zero_state(4)
        assert s.amps.size == 16
        assert s.amps[0] == 1 and np.all(s.amps[1:] == 0)

    @pytest.mark.parametrize("n", [0, -1, 21])
    def test_capacity(self, n):
        with pytest.raises(CapacityError):
            zero_state(n)

    @pytest.mark.parametrize("n,ok", [
        (1, True), (20, True), (0, False), (21, False), (True, False),
        (2.0, False), ("2", False), (None, False),
    ])
    def test_check_qubits(self, n, ok):
        """One register-size rule for specs, registers and the kernel."""
        if ok:
            check_qubits(n)
            return
        for build in (check_qubits, StateVector,
                      lambda q: evolve(q, 1, np.zeros((1, 4)))):
            with pytest.raises(CapacityError):
                build(n)


class TestApplyGate:
    def test_cx_on_10(self):
        # |10>: control qubit (value 1) is qubit 1, target is qubit 0
        s = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        apply_gate(s, Gate("cx", target=0, control=1))
        assert np.array_equal(s.amps, np.array([0, 0, 0, 1], dtype=complex))

    def test_hadamard(self):
        s = plus_state()
        assert np.allclose(s.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_ry_half_pi(self):
        s = apply_gate(zero_state(1), Gate("ry", 0, theta=math.pi / 2))
        assert np.allclose(s.amps, [math.cos(math.pi / 4), math.sin(math.pi / 4)])

    def test_cx_leaves_plus_plus_invariant(self):
        s = zero_state(2)
        apply_gates(s, [Gate("h", 0), Gate("h", 1)])
        expected = apply_dense(s.amps, [Gate("cx", target=1, control=0)], 2)
        apply_gate(s, Gate("cx", target=1, control=0))
        assert np.allclose(s.amps, expected, atol=1e-12)
        assert np.allclose(s.amps, 0.5)

    @pytest.mark.parametrize("q", [2, -1, 1.0, True])
    def test_index_out_of_range(self, q):
        for gate in (Gate("x", q), Gate("cx", 0, q)):
            with pytest.raises(ValueError, match="qubit index"):
                apply_gate(zero_state(2), gate)

    def test_dense_oracle_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            gates = random_gate_sequence(rng, n, int(rng.integers(1, 30)))
            s = zero_state(n)
            expected = apply_dense(s.amps, gates, n)
            apply_gates(s, gates)
            assert np.max(np.abs(s.amps - expected)) <= 1e-12

    def test_norm_preserved_long_sequences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            s = zero_state(n)
            apply_gates(s, random_gate_sequence(rng, n, 100))
            assert abs(s.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("gate", [
        Gate("x", 1), Gate("h", 0), Gate("cx", target=0, control=2),
    ])
    def test_involutions(self, gate):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        s = StateVector(3, amps.copy())
        apply_gate(s, gate)
        apply_gate(s, gate)
        assert np.max(np.abs(s.amps - amps)) <= 1e-12

    @given(a=st.floats(-7, 7), b=st.floats(-7, 7))
    def test_ry_composition(self, a, b):
        s1 = apply_gates(plus_state(), [Gate("ry", 0, theta=a),
                                        Gate("ry", 0, theta=b)])
        s2 = apply_gate(plus_state(), Gate("ry", 0, theta=a + b))
        assert np.max(np.abs(s1.amps - s2.amps)) <= 1e-12

    def test_gate_matrices_unitary(self):
        for gate in [Gate("x", 0), Gate("h", 0), Gate("ry", 0, theta=0.7),
                     Gate("cx", 0, control=1), Gate("cry", 0, control=1, theta=1.2)]:
            u = gate.local_matrix()
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("q,sha256", [
        (1, "4cc720da80f2d96c44ddb1ab3febcbf1"
            "5197436298dd8ac10303af08dc7bc31d"),
        (3, "b0eb1de1b8a96977c89ee5fbf0d54613"
            "ec5de82adc7286c1ec55a2bc18e91861"),
        (6, "728db8a2bfd300e549c0573f9999471a"
            "3f323a9e6db77bcb5d388adb13911ba9"),
    ])
    def test_all_kinds_pinned(self, q, sha256):
        # the bytes of the register when each gate gathered its halves
        # through int64 index arrays; x and cry run in no kernel comparison
        rng = np.random.default_rng(100 + q)
        amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        gates = random_gate_sequence(rng, q, 20 * q)
        if q > 1:
            assert {g.kind for g in gates} == {"x", "h", "ry", "cx", "cry"}
            controls = [g.control - g.target for g in gates
                        if g.control is not None]
            assert min(controls) < 0 < max(controls)
        state = apply_gates(StateVector(q, amps), gates)
        assert hashlib.sha256(state.amps.tobytes()).hexdigest() == sha256

    @pytest.mark.parametrize("view", [slice(None, None, 2),
                                      slice(None, None, -1)])
    def test_strided_register_updated_in_place(self, view):
        rng = np.random.default_rng(8)
        base = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps = base[view][:16]
        gates = random_gate_sequence(rng, 4, 60)
        expected = apply_dense(amps, gates, 4)
        contiguous = apply_gates(StateVector(4, amps.copy()), gates).amps
        state = apply_gates(StateVector(4, amps), gates)
        assert state.amps is amps and np.shares_memory(amps, base)
        assert np.max(np.abs(amps - expected)) <= 1e-12
        assert np.array_equal(amps, contiguous)

    def test_warm_gates_keep_no_arrays(self):
        # 27 distinct (target, control) pairs at Q=14, all five kinds
        n = 14
        gates = [Gate(("x", "h", "ry")[t % 3], t, theta=0.3 * t)
                 for t in range(n)]
        gates += [Gate(("cx", "cry")[t % 2], t, control=(t + 5) % n,
                       theta=0.1 * t) for t in range(n - 1)]
        state = zero_state(n)
        apply_gates(state, gates)
        tracemalloc.start()
        try:
            apply_gates(state, gates)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # numpy traces array data in its own domain; the interpreter's
        # free lists, which no call controls, stay out of the count
        kept = snapshot.filter_traces([tracemalloc.DomainFilter(
            True, np.lib.tracemalloc_domain)]).traces
        assert sum(trace.size for trace in kept) == 0

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("cx", target=1, control=1)
        with pytest.raises(ValueError):
            Gate("zz", 0)
        with pytest.raises(ValueError):
            Gate("h", 0, control=1)


class TestZExpectation:
    def test_zero_state(self):
        assert z_expectation(zero_state(1), 0) == 1.0

    def test_plus_state(self):
        assert abs(z_expectation(plus_state(), 0)) <= 1e-12

    def test_ry_angle(self):
        s = apply_gate(zero_state(1), Gate("ry", 0, theta=0.3))
        # analytic: cos^2(a/2) - sin^2(a/2) = cos(a)
        assert z_expectation(s, 0) == pytest.approx(math.cos(0.3), abs=1e-12)

    @pytest.mark.parametrize("q", [2, -1, 1.0, True])
    def test_index_error(self, q):
        with pytest.raises(ValueError, match="qubit"):
            z_expectation(zero_state(2), q)


class TestSample:
    def test_deterministic_state(self):
        assert sample(zero_state(1), 1000, 99) == {"0": 1000}

    def test_hadamard_frequencies(self):
        counts = sample(plus_state(), 10 ** 6, seed=7)
        assert abs(counts["0"] / 1e6 - 0.5) <= 0.002

    def test_basis_state_11(self):
        s = StateVector(2, np.array([0, 0, 0, 1], dtype=complex))
        assert sample(s, 5, seed=1) == {"11": 5}

    def test_seed_reproducible(self):
        s = apply_gate(zero_state(3), Gate("h", 1))
        assert sample(s, 5000, 42) == sample(s, 5000, 42)

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            sample(zero_state(1), 0, 1)
        for shots in (True, 2.5):
            with pytest.raises(ValueError, match="shots must be an integer"):
                sample(zero_state(1), shots, 1)

    def test_shots_bounded_by_numpy(self):
        # numpy's multinomial takes at most 2**63 - 1 draws
        assert sample(zero_state(1), 2 ** 63 - 1, 1) == {"0": 2 ** 63 - 1}
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample(zero_state(1), 2 ** 63, 1)


class TestEstimateZFromCounts:
    def test_arithmetic(self):
        counts = {"0": 600, "1": 400}
        assert estimate_z_from_counts(counts, 0) == pytest.approx(0.2)

    def test_symmetry(self):
        counts = {"00": 250, "01": 250, "10": 250, "11": 250}
        assert estimate_z_from_counts(counts, 1) == 0.0

    def test_consistent_with_expectation(self):
        s = apply_gate(zero_state(1), Gate("ry", 0, theta=0.3))
        counts = sample(s, 10 ** 4, seed=13)
        est = estimate_z_from_counts(counts, 0)
        assert abs(est - math.cos(0.3)) <= 0.05

    def test_sampling_convergence_all_qubits(self):
        rng = np.random.default_rng(21)
        s = zero_state(3)
        apply_gates(s, random_gate_sequence(rng, 3, 20))
        counts = sample(s, 10 ** 6, seed=5)
        for q in range(3):
            est = estimate_z_from_counts(counts, q)
            assert abs(est - z_expectation(s, q)) <= 0.005

    def test_malformed_bitstring(self):
        with pytest.raises(DataError):
            estimate_z_from_counts({"2x": 5}, 0)

    @pytest.mark.parametrize("q", [2, -1, True, 0.0])
    def test_qubit_out_of_range(self, q):
        with pytest.raises(DataError, match="qubit.*bitstring '01'"):
            estimate_z_from_counts({"01": 3}, q)

    def test_empty_counts(self):
        with pytest.raises(DataError):
            estimate_z_from_counts({}, 0)

    def test_divides_by_the_counts_total(self):
        # the counts are all there is: their total is the shot count
        assert estimate_z_from_counts({"0": 3, "1": 1}, 0) == 0.5

    def test_zero_total(self):
        with pytest.raises(DataError, match="empty shot counts"):
            estimate_z_from_counts({"0": 0}, 0)

    @pytest.mark.parametrize("counts, bad", [
        ({"0": 2, "1": -1}, "'1'"),
        ({"0": 2.5}, "'0'"),
        ({"00": 3, "01": True}, "'01'"),
        ({"1": "4"}, "'1'"),
    ])
    def test_count_must_be_a_nonnegative_int(self, counts, bad):
        with pytest.raises(DataError, match=f"count of {bad} must be an "
                                            f"integer >= 0"):
            estimate_z_from_counts(counts, 0)

    def test_reads_sampled_counts(self):
        s = apply_gate(zero_state(2), Gate("ry", 1, theta=1.1))
        counts = sample(s, 999, seed=4)
        assert all(type(c) is int for c in counts.values())
        n1 = sum(c for b, c in counts.items() if b[0] == "1")
        assert estimate_z_from_counts(counts, 1) == (999 - 2 * n1) / 999


class TestKernel:
    """evolve against the gate-by-gate register and the dense oracle."""

    @given(q=st.integers(1, 6), depth=st.integers(1, 3), b=st.integers(1, 20),
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_apply_gate_and_oracle(self, q, depth, b, seed):
        spec = CircuitSpec(num_qubits=q, q_depth=depth)
        angles = np.random.default_rng(seed).uniform(
            -2 * math.pi, 2 * math.pi, size=(b, q * spec.num_layers))
        amps = evolve(q, depth, angles)
        z = z_rows(amps)
        assert amps.dtype == np.float64 and amps.shape == (b, 1 << q)
        for row, got, got_z in zip(angles, amps, z):
            gates = build_from_angles(spec, row[:q], row[q:])
            ref = apply_gates(zero_state(q), gates).amps
            assert np.array_equal(ref.imag, np.zeros(1 << q))
            assert np.array_equal(got, ref.real)
            dense = apply_dense(zero_state(q).amps, gates, q)
            oracle_z = [np.sum(np.abs(dense) ** 2 * (1 - 2 * ((np.arange(
                1 << q) >> k) & 1))) for k in range(q)]
            assert np.max(np.abs(got_z - oracle_z)) <= 1e-12

    @pytest.mark.parametrize("q", [9, 10])
    def test_matches_apply_gate_above_eight_qubits(self, q):
        # every low qubit's flipped multiply runs along the count axis here
        spec = CircuitSpec(num_qubits=q, q_depth=3)
        angles = np.random.default_rng(q).uniform(
            -2 * math.pi, 2 * math.pi, size=(2, q * spec.num_layers))
        for row, got in zip(angles, evolve(q, 3, angles)):
            gates = build_from_angles(spec, row[:q], row[q:])
            ref = apply_gates(zero_state(q), gates).amps.real
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @given(q=st.integers(1, 8), depth=st.integers(1, 3), b=st.integers(1, 40),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_independent_of_stack(self, q, depth, b, data):
        # a row's amplitudes are the same bits whatever rows share its stack
        angles = data.draw(arrays(np.float64, (b, q * (depth + 1)),
                                  elements=st.floats(-7, 7)))
        amps = evolve(q, depth, angles)
        for i in range(b):
            alone = evolve(q, depth, angles[i:i + 1])[0]
            assert np.array_equal(amps[i].view(np.int64),
                                  alone.view(np.int64))

    @pytest.mark.parametrize("q,depth", [(4, 1), (5, 3)])
    def test_full_block_rows_independent_of_stack(self, q, depth):
        # evaluate_rows' widest flat-form block: BLOCK_AMPS / 2^Q rows
        b = BLOCK_AMPS >> q
        angles = np.random.default_rng(q).uniform(-7, 7,
                                                  size=(b, q * (depth + 1)))
        angles[0, 0] = -0.0
        amps = evolve(q, depth, angles)
        for i in range(b):
            alone = evolve(q, depth, angles[i:i + 1])[0]
            assert amps[i].tobytes() == alone.tobytes(), i

    @pytest.mark.parametrize("q,depth,b,tangents", [
        (4, 1, 17, False), (4, 1, 1, True), (5, 3, 256, False),
        (1, 0, 1, True)])
    def test_flat_plan_keeps_the_bytes_it_states(self, q, depth, b,
                                                 tangents):
        # _gate_plan's docstring: 8*2^Q*(2T + (2n + Q)*G + n) bytes, and
        # 16*Q*2^Q more with tangents; the Python objects, each step's
        # views and tuple and the plan's own, take under 1 KiB a gate
        # and 2 KiB more
        n = q * (depth + 1)
        total, most = (b + n, b + n - q) if tangents else (b, b)
        stated = 8 * (1 << q) * (2 * total + (2 * n + q) * most + n
                                 + 2 * q * tangents)
        angles = np.zeros((b, n))
        evolve(q, depth, angles, tangents)  # builds z_signs and the brick
        _gate_plan.cache_clear()
        tracemalloc.start()
        try:
            rows = evolve(q, depth, angles, tangents)
            first = tracemalloc.get_traced_memory()[0] - rows.nbytes
            evolve(q, depth, angles, tangents)
            later = tracemalloc.get_traced_memory()[0] - rows.nbytes
        finally:
            tracemalloc.stop()
        owned = {}
        for a in plan_arrays(_gate_plan(q, depth, b, tangents)):
            while a.base is not None:
                a = a.base
            owned[id(a)] = a.nbytes
        assert sum(owned.values()) == stated
        assert stated <= first < stated + 1024 * (n + 2)
        assert later < first + 1024

    @pytest.mark.parametrize("q,depth", [(1, 1), (3, 2), (4, 1), (5, 3),
                                         (9, 2)])
    def test_tangent_rows(self, q, depth):
        # Ry(t + pi) = Ry(pi)Ry(t), so tangent row 1+j is the circuit with
        # angle j shifted by pi, and row 0 is the plain kernel's row
        angles = np.random.default_rng(q).uniform(
            -math.pi, math.pi, size=(1, q * (depth + 1)))
        rows = evolve(q, depth, angles, tangents=True)
        assert rows.shape == (1 + angles.size, 1 << q)
        assert np.array_equal(rows[:1], evolve(q, depth, angles))
        shifted = evolve(q, depth, angles + math.pi * np.eye(angles.size))
        assert np.max(np.abs(rows[1:] - shifted)) <= 1e-12

    @pytest.mark.parametrize("q,depth,b,sha256", [
        (4, 0, 1, "d5eb50c70e4629f4bb552ab496385325"
                  "6d187ccb3647da6a316450310ccf3a74"),
        (3, 2, 1, "d902a2be5e533954a6af78d3c8117872"
                  "fd3341db0d3e402cf262e9346d784b5c"),
        (8, 2, 1, "c099b98a53f77195f053226cbb73a33d"
                  "e7f660015f394971d381cea27bc399be"),
        (9, 2, 1, "e619fdeaad4053b0c559d6d54a7f6e13"
                  "8fba8004b6b2498e7be19516e78f879d"),
    ])
    def test_tangent_rows_pinned(self, q, depth, b, sha256):
        # the bytes of the loop that concatenated each wall's tangent rows
        angles = np.random.default_rng(3).uniform(-3, 3,
                                                  size=(b, q * (depth + 1)))
        rows = evolve(q, depth, angles, tangents=True)
        assert rows.shape == (b + angles.shape[1], 1 << q)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == sha256

    @pytest.mark.parametrize("q,depth,b,sha256", [
        (10, 3, 8, "f7928c686af9b046aafff7b6ad69d5e1"
                   "2a3759f225524f8834d0e232789f32ec"),
        (12, 2, 2, "fc5febbf152ffc1402227e398ca89b17"
                   "48096486c9b474fd055c9cd3e78cc6b0"),
    ])
    def test_rows_pinned(self, q, depth, b, sha256):
        # the bytes of the kernel before its low-qubit views were transposed
        angles = np.random.default_rng(3).uniform(-3, 3,
                                                  size=(b, q * (depth + 1)))
        rows = evolve(q, depth, angles)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == sha256

    def test_tangent_rows_need_one_row_past_one_wall(self):
        # later walls take one angle per ket row, so only B = 1 carries them
        for depth in (0, 1):
            for b in (0, 2, 3):
                with pytest.raises(ValueError, match="exactly one row"):
                    evolve(4, depth, np.zeros((b, 4 * (depth + 1))),
                           tangents=True)

    @pytest.mark.parametrize("depth", [-1, True, 1.0])
    def test_q_depth_must_be_a_count(self, depth):
        with pytest.raises(ValueError, match="q_depth"):
            evolve(4, depth, np.zeros((2, int(depth + 1) * 4)))

    def test_results_do_not_alias(self):
        rng = np.random.default_rng(5)
        first_angles, second_angles = rng.uniform(-3, 3, size=(2, 4, 8))
        first = evolve(4, 1, first_angles)
        kept = first.copy()
        second = evolve(4, 1, second_angles)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)

    def test_plan_cache_holds_small_plans_only(self):
        _gate_plan.cache_clear()
        shapes = [(4, 1, 17, False), (4, 1, 1, True), (10, 3, 8, False),
                  (10, 3, 9, False), (14, 1, 1, False)]
        for q, depth, b, tangents in shapes:
            evolve(q, depth, np.zeros((b, q * (depth + 1))), tangents)
        cached = shapes[:3]
        assert _gate_plan.cache_info().currsize == len(cached)
        for key in cached:
            hits = _gate_plan.cache_info().hits
            assert _gate_plan(*key)[1].size <= BLOCK_AMPS
            assert _gate_plan.cache_info().hits == hits + 1
        assert _gate_plan.cache_info().currsize == len(cached)

    def test_forward_call_keeps_no_tangent_table(self):
        for cache in (_gate_plan, brick_permutation):
            cache.cache_clear()
        evolve(12, 1, np.zeros((1, 24)))
        assert _gate_plan.cache_info().currsize == 1
        assert _gate_plan(12, 1, 1, False)[3:] == (None, None)

    def test_per_register_tables_are_bounded(self):
        # z_signs and brick_permutation keep two register sizes' tables,
        # the latest ones
        for cache in (z_signs, brick_permutation):
            cache.cache_clear()
        for q in range(1, 9):
            z_rows(evolve(q, 1, np.zeros((1, 2 * q))))
        for cache in (z_signs, brick_permutation):
            info = cache.cache_info()
            assert info.maxsize == info.currsize == 2
        for cache in (z_signs, brick_permutation):
            hits = cache.cache_info().hits
            cache(8), cache(7)
            assert cache.cache_info().hits == hits + 2

    @pytest.mark.parametrize("q", [13, 14])
    def test_tangent_peak_is_under_five_times_its_rows(self, q):
        # README's bound: under 5x the bytes of the 1+L*Q rows, tables and
        # plan built in the call (4.49x measured at q_depth 1)
        for cache in (_gate_plan, brick_permutation, z_signs):
            cache.cache_clear()
        angles = np.random.default_rng(q).uniform(-3, 3, size=(1, 2 * q))
        tracemalloc.start()
        try:
            rows = evolve(q, 1, angles, tangents=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * rows.nbytes

    def test_sampled_rows_match_sample(self):
        angles = np.random.default_rng(3).uniform(-3, 3, size=(5, 6))
        amps = evolve(3, 1, angles)
        z = sampled_z_rows(amps, 500, derive_streams(10, (2,), 5))
        for i, (row, got) in enumerate(zip(amps, z)):
            counts = sample(StateVector(3, row), 500, derive_seed(10, 2, i))
            assert np.array_equal(
                got, [estimate_z_from_counts(counts, k) for k in range(3)])

    def test_brick_permutation_is_the_cx_gates(self):
        for q in range(1, 7):
            state = StateVector(q, np.arange(1 << q))
            gates = [Gate("cx", t, control=c) for c, t in brick_pairs(q)]
            assert np.array_equal(brick_permutation(q),
                                  apply_gates(state, gates).amps.real)

    def test_validation(self):
        with pytest.raises(CapacityError):
            evolve(21, 1, np.zeros((1, 42)))
        with pytest.raises(ValueError):
            evolve(2, 1, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            evolve(2, 1, np.zeros(4))


class TestGateBuffer:
    """evolve runs its gate loop under a smaller ufunc buffer on wide
    registers and gives the caller's buffer size back however it ends."""

    @pytest.mark.parametrize("q,tangents", [(4, False), (4, True),
                                            (10, False), (10, True)])
    @pytest.mark.parametrize("caller", [None, 64, 1 << 16])
    def test_caller_size_restored(self, q, tangents, caller):
        before = np.getbufsize()
        if caller is not None:
            np.setbufsize(caller)
        try:
            want = np.getbufsize()
            evolve(q, 1, np.ones((1, 2 * q)), tangents)
            assert np.getbufsize() == want
        finally:
            np.setbufsize(before)

    @pytest.mark.parametrize("q,inside", [(4, None), (10, 256)])
    def test_caller_size_restored_after_an_error(self, q, inside):
        # the first brick's np.take raises inside the gate loop; the loop
        # sees the scoped size on the wide register only
        seen = []

        def take(*args, **kwargs):
            seen.append(np.getbufsize())
            raise RuntimeError("take failed")

        before = np.getbufsize()
        with mock.patch("numpy.take", take):
            with pytest.raises(RuntimeError, match="take failed"):
                evolve(q, 1, np.ones((2, 2 * q)))
        assert np.getbufsize() == before
        assert seen == [inside or before]

    def test_warm_forward_peak_is_its_result_and_16_kib(self):
        # a buffer of 8,192 elements made each broadcast multiply allocate
        # 64 KiB per operand: 209,280 B traced before the scope
        angles = np.random.default_rng(4).uniform(-3, 3, size=(8, 40))
        evolve(10, 3, angles)
        tracemalloc.start()
        try:
            rows = evolve(10, 3, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 16 * 1024


class TestSampledRows:
    """sampled_z_rows' block normalisation and its streams."""

    def test_block_normalisation_rounds_as_each_row(self):
        # sampled_z_rows divides the block by its row sums at once; the
        # probabilities each row's generator gets equal p / p.sum()
        seen = []

        class Recorder:  # in place of np.random.Generator
            def __init__(self, bit_generator):
                pass

            def multinomial(self, shots, p):
                seen.append(p.copy())
                return np.zeros(len(p), np.int64)

        for q in range(1, 13):
            for b in (1, 3, max(1, BLOCK_AMPS >> q), 64):
                angles = np.random.default_rng(q * b).uniform(
                    -3, 3, size=(b, 2 * q))
                amps = evolve(q, 1, angles)
                seen.clear()
                with mock.patch("numpy.random.Generator", Recorder):
                    sampled_z_rows(amps, 8, np.zeros((b, 4), np.uint64))
                assert len(seen) == b
                for row, p in zip(amps * amps, seen):
                    assert p.tobytes() == (row / row.sum()).tobytes()

    @pytest.mark.parametrize("shots", [0, 2.5, True, 2 ** 63])
    def test_shots_are_checked(self, shots):
        # 2.5 once drew 2 shots a row and divided by 2.5; 0 read out NaN
        amps = evolve(2, 1, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="shots must be an integer"):
            sampled_z_rows(amps, shots, derive_streams(1, (), 3))

    def test_one_stream_per_row(self):
        amps = evolve(2, 1, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            sampled_z_rows(amps, 8, np.zeros((2, 4), np.uint64))
        with pytest.raises(ValueError):
            sampled_z_rows(amps, 8, np.zeros((3, 3), np.uint64))

    def test_stream_count_mismatch_names_both_counts(self):
        # three streams of four rows once failed in numpy's reshape, as
        # "cannot reshape array of size 12 into shape (4,4)"
        amps = evolve(2, 1, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="^3 shot streams for 4 rows"):
            sampled_z_rows(amps, 8, derive_streams(1, (), 3))
        with pytest.raises(ValueError, match="for 4 rows"):
            sampled_z_rows(amps, 8, np.zeros(16, np.uint64))
