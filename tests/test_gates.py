import itertools
import math

import numpy as np
import pytest

from qteleport.bitchain import BitChain
from qteleport.gates import (
    Gate2x2,
    PauliCorrection,
    apply_cnot,
    apply_gate,
    apply_pauli_correction,
    apply_pauli_correction_inverse,
    hadamard,
    hadamard_closed_form,
    hadamard_layer,
    identity,
    pauli_x,
    pauli_z,
    schedule_line,
)
from qteleport.statevector import StateVector, basis_state, random_state

SQRT_HALF = 1.0 / math.sqrt(2.0)


def ket(text):
    return basis_state(BitChain.from_string(text))


class TestGateMatrices:
    def test_hadamard_entries(self):
        # unitarity forces the 1/sqrt(2) prefactor on both columns
        np.testing.assert_allclose(np.abs(hadamard().matrix), SQRT_HALF, atol=1e-15)

    def test_hadamard_action(self):
        np.testing.assert_allclose(
            apply_gate(ket("1"), hadamard(), 1).amplitudes, [SQRT_HALF, -SQRT_HALF], atol=1e-15
        )
        np.testing.assert_allclose(
            apply_gate(ket("0"), hadamard(), 1).amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15
        )

    def test_x_flips(self):
        np.testing.assert_array_equal(apply_gate(ket("0"), pauli_x(), 1).amplitudes, [0, 1])
        np.testing.assert_array_equal(apply_gate(ket("1"), pauli_x(), 1).amplitudes, [1, 0])

    def test_z_negates_one(self):
        np.testing.assert_array_equal(apply_gate(ket("1"), pauli_z(), 1).amplitudes, [0, -1])
        np.testing.assert_array_equal(apply_gate(ket("0"), pauli_z(), 1).amplitudes, [1, 0])

    def test_identity_is_inert(self):
        psi = random_state(1, 3)
        np.testing.assert_array_equal(apply_gate(psi, identity(), 1).amplitudes, psi.amplitudes)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Gate2x2([[1, 0], [0, 2]])
        with pytest.raises(ValueError):
            Gate2x2([[1, 0, 0], [0, 1, 0]])

    def test_matrix_is_frozen(self):
        with pytest.raises(ValueError):
            hadamard().matrix[0, 0] = 9.0


class TestApplyGate:
    def test_targets_one_factor(self):
        plus_on_first = apply_gate(ket("00"), hadamard(), 1)
        np.testing.assert_allclose(plus_on_first.amplitudes, [SQRT_HALF, 0, SQRT_HALF, 0], atol=1e-15)
        flipped_second = apply_gate(ket("00"), pauli_x(), 2)
        np.testing.assert_array_equal(flipped_second.amplitudes, [0, 1, 0, 0])

    def test_z_on_superposition(self):
        state = apply_gate(ket("00"), hadamard(), 1)
        signed = apply_gate(state, pauli_z(), 1)
        np.testing.assert_allclose(signed.amplitudes, [SQRT_HALF, 0, -SQRT_HALF, 0], atol=1e-15)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(ket("00"), hadamard(), 0)
        with pytest.raises(ValueError):
            apply_gate(ket("00"), hadamard(), 3)

    def test_norm_preserved_on_random_states(self):
        for seed in range(8):
            state = random_state(4, seed)
            for gate in (hadamard(), pauli_x(), pauli_z()):
                for target in range(1, 5):
                    state = apply_gate(state, gate, target)
            assert state.norm() == pytest.approx(1.0, abs=1e-10)


class TestCnot:
    def test_control_set(self):
        np.testing.assert_array_equal(apply_cnot(ket("10"), 1, 2).amplitudes, ket("11").amplitudes)

    def test_control_clear(self):
        np.testing.assert_array_equal(apply_cnot(ket("00"), 1, 2).amplitudes, ket("00").amplitudes)

    def test_entangles_payload_with_pair(self):
        # CNOT(1->2) on (a|0>+b|1>)(|00>+|11>)/sqrt(2): the b-terms flip qubit 2
        a, b = 0.6, 0.8
        amps = np.zeros(8)
        amps[[0b000, 0b011]] = a * SQRT_HALF
        amps[[0b100, 0b111]] = b * SQRT_HALF
        result = apply_cnot(StateVector(3, amps), 1, 2)
        expected = np.zeros(8)
        expected[[0b000, 0b011]] = a * SQRT_HALF
        expected[[0b110, 0b101]] = b * SQRT_HALF
        np.testing.assert_allclose(result.amplitudes, expected, atol=1e-15)

    def test_validates_indices(self):
        with pytest.raises(ValueError):
            apply_cnot(ket("00"), 1, 1)
        with pytest.raises(ValueError):
            apply_cnot(ket("00"), 0, 2)
        with pytest.raises(ValueError):
            apply_cnot(ket("00"), 1, 3)


class TestHadamardLayer:
    # signs of H(x)H|xy>, transcribed per input label: +, (-1)^y, (-1)^x, (-1)^(x+y)
    TWO_QUBIT_SIGNS = {
        "00": [1, 1, 1, 1],
        "01": [1, -1, 1, -1],
        "10": [1, 1, -1, -1],
        "11": [1, -1, -1, 1],
    }

    @pytest.mark.parametrize("label", sorted(TWO_QUBIT_SIGNS))
    def test_two_qubit_signs(self, label):
        result = hadamard_layer(ket(label), [1, 2])
        expected = np.array(self.TWO_QUBIT_SIGNS[label]) / 2.0
        np.testing.assert_allclose(result.amplitudes, expected, atol=1e-15)

    def test_involution(self):
        for seed in range(5):
            state = random_state(3, seed)
            twice = hadamard_layer(hadamard_layer(state, range(1, 4)), range(1, 4))
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_uniform_superposition_from_zero(self):
        for n in (1, 2, 3, 4):
            result = hadamard_layer(basis_state(BitChain(n, 0)), range(1, n + 1))
            np.testing.assert_allclose(result.amplitudes, 2.0 ** (-n / 2), atol=1e-14)


class TestHadamardClosedForm:
    def test_zero_label_is_uniform_positive(self):
        for n in (1, 2, 5):
            state = hadamard_closed_form(BitChain(n, 0))
            np.testing.assert_allclose(state.amplitudes, 2.0 ** (-n / 2), atol=1e-15)

    def test_label_11_signs(self):
        state = hadamard_closed_form(BitChain(2, 0b11))
        np.testing.assert_allclose(state.amplitudes, np.array([1, -1, -1, 1]) / 2.0, atol=1e-15)

    def test_matches_gate_layer_exhaustively(self):
        for n in range(1, 7):
            for value in range(1 << n):
                label = BitChain(n, value)
                via_gates = hadamard_layer(basis_state(label), range(1, n + 1))
                closed = hadamard_closed_form(label)
                np.testing.assert_allclose(
                    closed.amplitudes, via_gates.amplitudes, atol=1e-12,
                    err_msg=f"n={n} label={label}",
                )


class TestPauliCorrection:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            PauliCorrection(2, BitChain(1, 0), BitChain(2, 0))

    def test_identity_exponents_do_nothing(self):
        psi = random_state(2, 4)
        corr = PauliCorrection(2, BitChain(2, 0), BitChain(2, 0))
        np.testing.assert_array_equal(
            apply_pauli_correction(psi, corr, 1).amplitudes, psi.amplitudes
        )

    def test_single_x(self):
        # x=1, z=0 on a|1> + b|0> swaps the components
        a, b = 0.6, 0.8j
        state = StateVector(1, [b, a])
        corr = PauliCorrection(1, BitChain(1, 1), BitChain(1, 0))
        np.testing.assert_allclose(
            apply_pauli_correction(state, corr, 1).amplitudes, [a, b], atol=1e-15
        )

    def test_forward_order_z_acts_first(self):
        # with both exponents set the forward product sends |0> to +|1>
        corr = PauliCorrection(1, BitChain(1, 1), BitChain(1, 1))
        np.testing.assert_array_equal(apply_pauli_correction(ket("0"), corr, 1).amplitudes, [0, 1])
        # and |1> to -|0>
        np.testing.assert_array_equal(apply_pauli_correction(ket("1"), corr, 1).amplitudes, [-1, 0])

    def test_inverse_order_x_acts_first(self):
        corr = PauliCorrection(1, BitChain(1, 1), BitChain(1, 1))
        np.testing.assert_array_equal(
            apply_pauli_correction_inverse(ket("1"), corr, 1).amplitudes, [1, 0]
        )

    def test_round_trip_is_exact_identity(self):
        for seed in range(6):
            psi = random_state(3, seed)
            for xv, zv in itertools.product(range(8), repeat=2):
                corr = PauliCorrection(3, BitChain(3, xv), BitChain(3, zv))
                back = apply_pauli_correction_inverse(
                    apply_pauli_correction(psi, corr, 1), corr, 1
                )
                np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-12)

    def test_anticommutation_sign(self):
        # Z then X differs from X then Z by a global -1 exactly when both act
        psi = random_state(1, 2)
        zx = apply_gate(apply_gate(psi, pauli_z(), 1), pauli_x(), 1)
        xz = apply_gate(apply_gate(psi, pauli_x(), 1), pauli_z(), 1)
        np.testing.assert_allclose(zx.amplitudes, -xz.amplitudes, atol=1e-15)

    def test_offset_base(self):
        # correction on qubits 2..3 leaves qubit 1 alone
        psi = random_state(3, 8)
        corr = PauliCorrection(2, BitChain(2, 0b10), BitChain(2, 0b01))
        expected = apply_gate(apply_gate(psi, pauli_z(), 3), pauli_x(), 2)
        np.testing.assert_allclose(
            apply_pauli_correction(psi, corr, 2).amplitudes, expected.amplitudes, atol=1e-14
        )

    def test_matches_per_qubit_gate_loop(self):
        # reference: one apply_gate per set exponent bit, Z factors first
        # going forward and X factors first going back
        def gate_loop(state, corr, base, order):
            for gate, chain in order:
                for m in range(1, corr.n + 1):
                    if chain(corr).bit(m):
                        state = apply_gate(state, gate, base + m - 1)
            return state

        z_part = (pauli_z(), lambda c: c.z_exponents)
        x_part = (pauli_x(), lambda c: c.x_exponents)
        psi = random_state(5, 12)
        for xv, zv in itertools.product(range(8), repeat=2):
            corr = PauliCorrection(3, BitChain(3, xv), BitChain(3, zv))
            np.testing.assert_array_equal(
                apply_pauli_correction(psi, corr, 2).amplitudes,
                gate_loop(psi, corr, 2, (z_part, x_part)).amplitudes,
            )
            np.testing.assert_array_equal(
                apply_pauli_correction_inverse(psi, corr, 2).amplitudes,
                gate_loop(psi, corr, 2, (x_part, z_part)).amplitudes,
            )

    def test_block_range_validation(self):
        psi = random_state(2, 0)
        corr = PauliCorrection(2, BitChain(2, 0), BitChain(2, 0))
        with pytest.raises(ValueError):
            apply_pauli_correction(psi, corr, 2)
        with pytest.raises(ValueError):
            apply_pauli_correction_inverse(psi, corr, 0)


class TestScheduleLine:
    def test_grammar(self):
        assert schedule_line("H", (3,)) == "H q3"
        assert schedule_line("X", (7,)) == "X q7"
        assert schedule_line("Z", (2,)) == "Z q2"
        assert schedule_line("CNOT", (1, 4)) == "CNOT q1 q4"
        assert schedule_line("M", (1, 6)) == "M q1..q6"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            schedule_line("T", (1,))
