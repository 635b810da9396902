import importlib
import itertools
import json
import math

import numpy as np
import pytest

from qteleport.bitchain import BitChain
from qteleport.gates import apply_pauli_correction
from qteleport.statevector import (
    NormalizationError,
    StateVector,
    basis_state,
    probabilities_of_subset,
    random_state,
    tensor,
)
from qteleport.teleport import (
    ScheduleOp,
    circuit_schedule,
    correction_for_outcome,
    render_schedule,
    replay_schedule,
    teleport,
    trace_to_dict,
    trace_to_json,
)

# the package exports a function named ``teleport``, which shadows the module
teleport_module = importlib.import_module("qteleport.teleport")

SQRT_HALF = 1.0 / math.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def pauli_product_matrix(x_bits, z_bits):
    """Dense (X products)(Z products) built with plain kronecker algebra,
    independent of the gate-application code."""
    x_op = np.array([[1.0 + 0j]])
    z_op = np.array([[1.0 + 0j]])
    for xb, zb in zip(x_bits, z_bits):
        x_op = np.kron(x_op, X if xb else I2)
        z_op = np.kron(z_op, Z if zb else I2)
    return x_op @ z_op


def branch_state(bits, psi):
    """Predicted (uncorrected) receiver state for outcome ``bits``: the
    forward Pauli product keyed by the bits, applied to psi."""
    return apply_pauli_correction(psi, correction_for_outcome(bits))


def bell_state(n):
    """The entangled ancilla state a run of the pipeline prepared."""
    return teleport(basis_state(BitChain(n, 0)), 0).bell_state


class TestBellPreparation:
    def test_single_pair(self):
        np.testing.assert_allclose(
            bell_state(1).amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF], atol=1e-15
        )

    def test_two_pairs(self):
        expected = np.zeros(16)
        expected[[0b0000, 0b0101, 0b1010, 0b1111]] = 0.25 * 2  # 1/2 each
        np.testing.assert_allclose(bell_state(2).amplitudes, expected, atol=1e-15)

    def test_matched_halves_for_three_pairs(self):
        state = bell_state(3)
        expected = np.zeros(64)
        for j in range(8):
            expected[(j << 3) | j] = 1.0 / math.sqrt(8.0)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-14)

    def test_exact_zeros_are_unsigned(self):
        # the Hadamard layer writes each exact zero as +0.0, as the Pauli
        # correction does, so a JSON trace never prints -0.0 in the Bell state
        for n in (1, 2, 3, 4):
            words = bell_state(n).amplitudes.view(np.float64)
            assert (words == 0.0).sum() > 0
            assert not np.signbit(words[words == 0.0]).any()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            circuit_schedule(0)


class TestAliceLayers:
    def test_cnot_layer_single_qubit_case(self):
        a, b = 0.6, 0.8
        staged = teleport(StateVector(1, [a, b]), 0).post_cnot_state
        expected = np.zeros(8)
        expected[[0b000, 0b011]] = a * SQRT_HALF
        expected[[0b110, 0b101]] = b * SQRT_HALF
        np.testing.assert_allclose(staged.amplitudes, expected, atol=1e-15)

    def test_cnot_layer_identity_on_zero_payload(self):
        for n in (1, 2, 3):
            trace = teleport(basis_state(BitChain(n, 0)), 0)
            full = tensor(trace.input_state, trace.bell_state)
            np.testing.assert_array_equal(trace.post_cnot_state.amplitudes, full.amplitudes)

    def test_hadamard_layer_single_qubit_branches(self):
        a, b = 0.6, 0.8j
        pre = teleport(StateVector(1, [a, b]), 0).pre_measurement_state
        expected = np.zeros(8, dtype=complex)
        for outcome, pair in {0b00: (a, b), 0b01: (b, a), 0b10: (a, -b), 0b11: (-b, a)}.items():
            expected[(outcome << 1) | 0] = pair[0] / 2.0
            expected[(outcome << 1) | 1] = pair[1] / 2.0
        np.testing.assert_allclose(pre.amplitudes, expected, atol=1e-15)

    def test_hadamard_layer_uniform_for_basis_payload(self):
        pre = teleport(basis_state(BitChain(2, 0)), 0).pre_measurement_state
        # payload e_0 leaves the first two qubits in the uniform positive superposition
        marginals = probabilities_of_subset(pre, 2)
        for prob in marginals:
            assert prob == pytest.approx(0.25, abs=1e-12)
        assert np.all(pre.amplitudes[np.abs(pre.amplitudes) > 1e-12].real > 0)

    def test_register_size_validation(self):
        # a schedule for more qubits than the register holds is rejected
        with pytest.raises(ValueError):
            replay_schedule(circuit_schedule(2), random_state(1, 0))
        with pytest.raises(ValueError):
            replay_schedule(circuit_schedule(3), random_state(2, 0))


class TestBranchState:
    def test_zero_outcome_is_identity(self):
        psi = random_state(2, 3)
        result = branch_state(BitChain(4, 0), psi)
        np.testing.assert_array_equal(result.amplitudes, psi.amplitudes)

    def test_single_qubit_table(self):
        a, b = 0.6, 0.8j
        psi = StateVector(1, [a, b])
        expected = {
            "00": [a, b],     # does nothing
            "01": [b, a],     # X
            "10": [a, -b],    # Z
            "11": [-b, a],    # X then Z seen from the branch side
        }
        for text, amps in expected.items():
            result = branch_state(BitChain.from_string(text), psi)
            np.testing.assert_allclose(result.amplitudes, amps, atol=1e-15)

    def test_two_qubit_operator_pattern(self):
        psi = random_state(2, 9)
        for bits in itertools.product((0, 1), repeat=4):
            a_, b_, c_, d_ = bits
            outcome = BitChain.from_string("".join(map(str, bits)))
            matrix = pauli_product_matrix(x_bits=(c_, d_), z_bits=(a_, b_))
            np.testing.assert_allclose(
                branch_state(outcome, psi).amplitudes,
                matrix @ psi.amplitudes,
                atol=1e-14,
                err_msg=f"outcome {outcome}",
            )

    def test_correction_split(self):
        corr = correction_for_outcome(BitChain.from_string("1001"))
        assert corr.z_exponents == BitChain(2, 0b10)
        assert corr.x_exponents == BitChain(2, 0b01)
        with pytest.raises(ValueError):
            correction_for_outcome(BitChain(3, 0))


class TestTeleport:
    def test_basis_input_any_seed(self):
        for seed in range(5):
            trace = teleport(basis_state(BitChain(1, 0)), seed)
            assert trace.fidelity_to_input == pytest.approx(1.0, abs=1e-12)

    def test_uniform_two_qubit_input(self):
        psi = StateVector(2, [0.5, 0.5, 0.5, 0.5])
        trace = teleport(psi, 1)
        assert trace.fidelity_to_input == pytest.approx(1.0, abs=1e-10)
        assert trace.outcome.probability == pytest.approx(1 / 16, abs=1e-12)

    def test_many_seeds_three_qubits(self):
        psi = random_state(3, 77)
        for seed in range(200):
            trace = teleport(psi, seed)
            assert trace.fidelity_to_input == pytest.approx(1.0, abs=1e-10)

    def test_amplitudewise_exactness(self):
        for n in (1, 2, 3):
            for seed in range(10):
                psi = random_state(n, seed)
                trace = teleport(psi, seed)
                np.testing.assert_allclose(
                    trace.bob_post_correction.amplitudes, psi.amplitudes, atol=1e-10
                )

    def test_forced_outcomes_cover_all_branches(self):
        psi = random_state(2, 5)
        for value in range(16):
            bits = BitChain(4, value)
            trace = teleport(psi, force_outcome=bits)
            assert trace.outcome.bits == bits
            assert trace.outcome.probability == pytest.approx(1 / 16, abs=1e-12)
            predicted = branch_state(bits, psi)
            np.testing.assert_allclose(
                trace.bob_pre_correction.amplitudes, predicted.amplitudes, atol=1e-12
            )
            np.testing.assert_allclose(
                trace.bob_post_correction.amplitudes, psi.amplitudes, atol=1e-12
            )

    def test_uniform_outcome_law(self):
        for n in (1, 2, 3):
            psi = random_state(n, n)
            trace = teleport(psi, 0)
            probs = probabilities_of_subset(trace.pre_measurement_state, 2 * n)
            assert len(probs) == 4**n
            for prob in probs:
                assert prob == pytest.approx(4.0 ** (-n), abs=1e-10)

    def test_no_signaling_average(self):
        # averaging |branch|^2 over outcomes with their Born weights gives the
        # maximally mixed (uniform) probability vector
        for n in (1, 2):
            psi = random_state(n, 21 + n)
            accumulated = np.zeros(1 << n)
            for value in range(4**n):
                trace = teleport(psi, force_outcome=BitChain(2 * n, value))
                accumulated += trace.outcome.probability * np.abs(
                    trace.bob_pre_correction.amplitudes
                ) ** 2
            np.testing.assert_allclose(accumulated, 2.0 ** (-n), atol=1e-10)

    def test_requires_seed_or_forced_outcome(self):
        with pytest.raises(ValueError):
            teleport(random_state(1, 0))

    def test_rejects_unnormalized_input(self):
        with pytest.raises(NormalizationError):
            teleport(StateVector(1, [1.0, 0.5]), 0)

    def test_receiver_state_is_a_row_of_the_pre_measurement_state(self):
        # row r of the (4^n, 2^n) reshape, renormalized, is outcome r's receiver state
        for n in range(1, 6):
            psi = random_state(n, 30 + n)
            forced = [BitChain(2 * n, v) for v in (0, (1 << (2 * n)) - 1, 5 % (1 << (2 * n)))]
            traces = [teleport(psi, force_outcome=bits) for bits in forced]
            traces += [teleport(psi, seed) for seed in range(3)]
            for trace in traces:
                rows = trace.pre_measurement_state.amplitudes.reshape(4**n, 2**n)
                prob = trace.outcome.probability
                expected = rows[trace.outcome.bits.value] / math.sqrt(prob)
                assert trace.bob_pre_correction.n_qubits == n
                assert trace.bob_pre_correction.amplitudes.tobytes() == expected.tobytes()

    def test_forced_outcome_width_checked(self):
        with pytest.raises(ValueError):
            teleport(random_state(2, 0), force_outcome=BitChain(3, 0))

    def test_measurement_arguments_checked_before_any_gate(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("a kernel ran before the measurement arguments were checked")

        for name in ("apply_cnot", "hadamard_layer", "tensor"):
            monkeypatch.setattr(teleport_module, name, no_kernel)
        n = 3
        psi = random_state(n, 4)
        with pytest.raises(ValueError, match="seed"):
            teleport(psi)
        for width in (2 * n - 1, 2 * n + 1, n):
            with pytest.raises(ValueError, match="width"):
                teleport(psi, force_outcome=BitChain(width, 0))


class TestSchedule:
    def test_single_qubit_sequence(self):
        assert circuit_schedule(1) == [
            ScheduleOp("H", (2,)),
            ScheduleOp("CNOT", (2, 3)),
            ScheduleOp("CNOT", (1, 2)),
            ScheduleOp("H", (1,)),
            ScheduleOp("M", (1, 2)),
            ScheduleOp("CORRECT", (3, 3)),
        ]

    def test_operation_counts(self):
        for n in (1, 2, 3, 4):
            ops = circuit_schedule(n)
            kinds = [op.kind for op in ops]
            assert kinds.count("H") == 2 * n
            assert kinds.count("CNOT") == 2 * n
            assert kinds.count("M") == 1
            assert kinds.count("CORRECT") == 1

    def test_rendered_text_single_qubit(self):
        assert render_schedule(circuit_schedule(1)) == (
            "H q2\n"
            "CNOT q2 q3\n"
            "CNOT q1 q2\n"
            "H q1\n"
            "M q1..q2\n"
            "# correct q3..q3: inverse (X products)(Z products) keyed by the measured bits\n"
        )

    def test_render_is_deterministic(self):
        assert render_schedule(circuit_schedule(3)) == render_schedule(circuit_schedule(3))

    def test_replay_matches_pipeline(self):
        for n in (1, 2, 3):
            psi = random_state(n, 31 + n)
            trace = teleport(psi, 0)
            replayed = replay_schedule(circuit_schedule(n), psi)
            np.testing.assert_allclose(
                replayed.amplitudes, trace.pre_measurement_state.amplitudes, atol=1e-12
            )

    def test_replay_rejects_foreign_ops(self):
        with pytest.raises(ValueError):
            replay_schedule([ScheduleOp("SWAP", (1, 2))], random_state(1, 0))

    def test_teleport_runs_the_schedule(self, monkeypatch):
        calls = []
        hadamard_layer, apply_cnot = teleport_module.hadamard_layer, teleport_module.apply_cnot

        def recording_layer(state, qubits):
            calls.append(("H", tuple(qubits), state.n_qubits))
            return hadamard_layer(state, qubits)

        def recording_cnot(state, pairs):
            calls.append(("CNOT", tuple(pairs), state.n_qubits))
            return apply_cnot(state, pairs)

        monkeypatch.setattr(teleport_module, "hadamard_layer", recording_layer)
        monkeypatch.setattr(teleport_module, "apply_cnot", recording_cnot)
        for n in (1, 2, 3):
            calls.clear()
            teleport(random_state(n, n), 0)
            gate_ops = [op for op in circuit_schedule(n) if op.kind in ("H", "CNOT")]
            # the Bell pairs are prepared on the 2n-qubit ancilla register
            placed = [(op.kind, tuple(q - n for q in op.qubits), 2 * n) for op in gate_ops[: 2 * n]]
            placed += [(op.kind, op.qubits, 3 * n) for op in gate_ops[2 * n :]]
            # a run of H ops, or of CNOT pairs, on one register is one layer call
            expected = []
            for (kind, width), run in itertools.groupby(placed, key=lambda c: (c[0], c[2])):
                run = list(run)
                if kind == "H":
                    expected.append(("H", sum((qubits for _, qubits, _ in run), ()), width))
                else:
                    expected.append(("CNOT", tuple(qubits for _, qubits, _ in run), width))
            assert calls == expected
            assert [c[0] for c in calls].count("H") == 2
            assert [c[0] for c in calls].count("CNOT") == 2


class TestTraceSerialization:
    def test_document_shape(self):
        trace = teleport(random_state(2, 4), 11)
        payload = trace_to_dict(trace)
        assert payload["n"] == 2
        assert payload["outcome"] == str(trace.outcome.bits)
        assert set(payload["states"]) == {
            "input",
            "bell",
            "pre_measurement",
            "bob_pre_correction",
            "bob_post_correction",
        }
        assert payload["states"]["input"]["n_qubits"] == 2
        assert payload["states"]["pre_measurement"]["n_qubits"] == 6

    def test_byte_identical_for_equal_seeds(self):
        first = trace_to_json(teleport(random_state(2, 8), 99))
        second = trace_to_json(teleport(random_state(2, 8), 99))
        assert first == second

    def test_json_parses(self):
        trace = teleport(random_state(1, 2), 5)
        parsed = json.loads(trace_to_json(trace))
        assert parsed["fidelity"] == pytest.approx(1.0, abs=1e-10)
