import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qteleport.gates as gates_module
from qteleport.bitchain import BitChain
from qteleport.gates import (
    PauliCorrection,
    apply_cnot,
    apply_pauli_correction,
    apply_pauli_correction_inverse,
    hadamard_layer,
)
from qteleport.statevector import StateVector, basis_state, random_state
from qteleport.teleport import ScheduleOp, render_schedule
from qteleport.verify import hadamard_closed_form

SQRT_HALF = 1.0 / math.sqrt(2.0)

H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


# Hadamard layers on raw normal draws (random_state's norm is a BLAS dot,
# which would move the inputs themselves), one sha256 line per layer
HADAMARD_DIGESTS = """
import hashlib
import numpy as np
from qteleport.gates import hadamard_layer
from qteleport.statevector import StateVector
for n in (1, 3, 8, 16):
    amps = np.random.default_rng(n).standard_normal(1 << (n + 1)).view(np.complex128)
    psi = StateVector._owned(n, amps)
    for qubits in (list(range(1, n + 1)), [n]):
        digest = hashlib.sha256(hadamard_layer(psi, qubits).amplitudes.tobytes())
        print(n, qubits, digest.hexdigest())
"""


def ket(text):
    return basis_state(BitChain.from_string(text))


def on_qubit(state, matrix, target):
    """Reference: a 2x2 matrix on one qubit (1-based), identity elsewhere."""
    n = state.n_qubits
    t = np.moveaxis(state.amplitudes.reshape((2,) * n), target - 1, 0)
    t = np.moveaxis(np.tensordot(matrix, t, axes=([1], [0])), 0, target - 1)
    return StateVector(n, t.reshape(-1))


def butterfly_on_qubit(state, target):
    """Reference: H on one qubit (1-based) as the real butterfly
    ((a + b)/sqrt(2), (a - b)/sqrt(2)) over the whole float64 view at once,
    into fresh arrays."""
    n = state.n_qubits
    halves = state.amplitudes.view(np.float64).reshape(1 << (target - 1), 2, -1)
    a, b = halves[:, 0], halves[:, 1]
    result = np.stack([(a + b) * SQRT_HALF, (a - b) * SQRT_HALF], axis=1)
    return StateVector(n, result.reshape(-1).view(np.complex128))


def gathered_cnot(state, control, target):
    """Reference: CNOT as one index gather over the whole register."""
    n = state.n_qubits
    idx = np.arange(1 << n)
    source = np.where(idx & (1 << (n - control)), idx ^ (1 << (n - target)), idx)
    return state.amplitudes[source]


def working(state):
    """A working copy of ``state``, as the runner holds its register."""
    return StateVector._owned(state.n_qubits, state.amplitudes.copy(), frozen=False)


def forbid_allocation(monkeypatch):
    """Make the kernels' allocations raise: the copy of a frozen input and
    the Hadamard layer's block buffer."""

    def no_allocation(*args, **kwargs):
        raise AssertionError("the kernel allocated before it validated its qubits")

    for name in ("copy", "empty"):
        monkeypatch.setattr(np, name, no_allocation)


def pauli(x_bit, z_bit):
    """One-qubit correction with the given X and Z exponents."""
    return PauliCorrection(1, BitChain(1, x_bit), BitChain(1, z_bit))


class TestGateMatrices:
    def test_hadamard_action(self):
        np.testing.assert_allclose(
            hadamard_layer(ket("1"), [1]).amplitudes, [SQRT_HALF, -SQRT_HALF], atol=1e-15
        )
        np.testing.assert_allclose(
            hadamard_layer(ket("0"), [1]).amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15
        )

    def test_x_flips(self):
        # the test-local reference and the X-only correction agree
        for label, flipped in (("0", [0, 1]), ("1", [1, 0])):
            np.testing.assert_array_equal(on_qubit(ket(label), X, 1).amplitudes, flipped)
            np.testing.assert_array_equal(
                apply_pauli_correction(ket(label), pauli(1, 0)).amplitudes, flipped
            )

    def test_z_negates_one(self):
        for label, signed in (("0", [1, 0]), ("1", [0, -1])):
            np.testing.assert_array_equal(on_qubit(ket(label), Z, 1).amplitudes, signed)
            np.testing.assert_array_equal(
                apply_pauli_correction(ket(label), pauli(0, 1)).amplitudes, signed
            )

    def test_identity_is_inert(self):
        # an empty Hadamard or CNOT layer leaves the state as it was
        psi = random_state(1, 3)
        assert hadamard_layer(psi, []) is psi
        assert apply_cnot(psi, []) is psi


class TestGateOnOneQubit:
    """One gate on one qubit of a larger register: H as a one-qubit
    Hadamard layer, X and Z through the test-local reference or as a Pauli
    product with one exponent bit set."""

    def test_targets_one_factor(self):
        plus_on_first = hadamard_layer(ket("00"), [1])
        np.testing.assert_allclose(plus_on_first.amplitudes, [SQRT_HALF, 0, SQRT_HALF, 0], atol=1e-15)
        flipped_second = on_qubit(ket("00"), X, 2)
        np.testing.assert_array_equal(flipped_second.amplitudes, [0, 1, 0, 0])

    def test_z_on_superposition(self):
        state = hadamard_layer(ket("00"), [1])
        z_on_first = PauliCorrection(2, BitChain(2, 0b00), BitChain(2, 0b10))
        signed = apply_pauli_correction(state, z_on_first)
        np.testing.assert_allclose(signed.amplitudes, [SQRT_HALF, 0, -SQRT_HALF, 0], atol=1e-15)

    def test_target_out_of_range(self, monkeypatch):
        # every target is checked before the layer copies its input or
        # allocates its buffer
        state = random_state(3, 1)
        forbid_allocation(monkeypatch)
        for qubits in ([0], [4], [1, 4], [1, 4, 2]):
            with pytest.raises(ValueError):
                hadamard_layer(state, qubits)

    def test_norm_preserved_on_random_states(self):
        for seed in range(8):
            state = random_state(4, seed)
            for target in range(1, 5):
                state = hadamard_layer(state, [target])
                state = on_qubit(state, X @ Z, target)
            assert state.norm() == pytest.approx(1.0, abs=1e-10)


class TestCnot:
    def test_control_set(self):
        np.testing.assert_array_equal(apply_cnot(ket("10"), [(1, 2)]).amplitudes, ket("11").amplitudes)

    def test_control_clear(self):
        np.testing.assert_array_equal(apply_cnot(ket("00"), [(1, 2)]).amplitudes, ket("00").amplitudes)

    def test_entangles_payload_with_pair(self):
        # CNOT(1->2) on (a|0>+b|1>)(|00>+|11>)/sqrt(2): the b-terms flip qubit 2
        a, b = 0.6, 0.8
        amps = np.zeros(8)
        amps[[0b000, 0b011]] = a * SQRT_HALF
        amps[[0b100, 0b111]] = b * SQRT_HALF
        result = apply_cnot(StateVector(3, amps), [(1, 2)])
        expected = np.zeros(8)
        expected[[0b000, 0b011]] = a * SQRT_HALF
        expected[[0b110, 0b101]] = b * SQRT_HALF
        np.testing.assert_allclose(result.amplitudes, expected, atol=1e-15)

    def test_matches_index_gather_bit_for_bit(self):
        # n = 16 is the register the Hadamard tests use to cross blocks
        cases = [(n, list(itertools.permutations(range(1, n + 1), 2))) for n in range(2, 6)]
        cases.append((16, [(1, 16), (16, 1), (8, 9), (9, 2)]))
        for n, pairs in cases:
            state = random_state(n, 40 + n)
            for control, target in pairs:
                expected = gathered_cnot(state, control, target).tobytes()
                for given in (state, working(state)):
                    result = apply_cnot(given, [(control, target)])
                    assert result.amplitudes.tobytes() == expected, f"n={n} pair={(control, target)}"

    def test_output_is_a_fresh_frozen_buffer(self):
        state = random_state(3, 5)
        result = apply_cnot(state, [(3, 1)])
        assert not np.shares_memory(result.amplitudes, state.amplitudes)
        assert not result.amplitudes.flags.writeable
        assert state.amplitudes.tobytes() == random_state(3, 5).amplitudes.tobytes()

    def test_a_working_input_is_overwritten_in_place(self):
        state = random_state(3, 5)
        work = working(state)
        result = apply_cnot(work, [(3, 1)])
        assert result.amplitudes is work.amplitudes
        assert result.amplitudes.flags.writeable
        assert result.amplitudes.tobytes() == apply_cnot(state, [(3, 1)]).amplitudes.tobytes()

    def test_layer_matches_sequential_gathers_bit_for_bit(self):
        # disjoint pairs commute, so one layer equals the gates one at a time
        rng = np.random.default_rng(7)
        for n in range(2, 7):
            for trial in range(6):
                state = random_state(n, 10 * n + trial)
                qubits = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
                pairs = list(zip(qubits[0::2], qubits[1::2]))[: rng.integers(1, n // 2 + 1)]
                expected = state.amplitudes
                for control, target in pairs:
                    expected = gathered_cnot(StateVector(n, expected), control, target)
                for given in (state, working(state)):
                    assert apply_cnot(given, pairs).amplitudes.tobytes() == expected.tobytes()

    def test_cached_plan_fits_other_states_and_registers(self):
        # the slice plan is built once per (n, pairs); the same pairs on a
        # second state, and on registers of other sizes, still match the gathers
        pairs = [(1, 2), (4, 3)]
        for n in (4, 5, 6, 4):
            for seed in (1, 2):
                state = random_state(n, 100 * n + seed)
                expected = state.amplitudes
                for control, target in pairs:
                    expected = gathered_cnot(StateVector(n, expected), control, target)
                assert apply_cnot(state, pairs).amplitudes.tobytes() == expected.tobytes()

    def test_bad_layer_raises_after_a_good_one_is_cached(self):
        state = random_state(3, 4)
        apply_cnot(state, [(1, 2)])
        apply_cnot(state, [(1, 3)])
        for pairs in ([(1, 2), (2, 3)], [(1, 1)], [(1, 4)], [(0, 2)]):
            for _ in range(2):
                with pytest.raises(ValueError):
                    apply_cnot(state, pairs)
        # a cached layer on 3 qubits does not fit a 2-qubit register
        with pytest.raises(ValueError):
            apply_cnot(random_state(2, 4), [(1, 3)])

    def test_validates_indices(self):
        with pytest.raises(ValueError):
            apply_cnot(ket("00"), [(1, 1)])
        with pytest.raises(ValueError):
            apply_cnot(ket("00"), [(0, 2)])
        with pytest.raises(ValueError):
            apply_cnot(ket("00"), [(1, 3)])

    def test_overlapping_pairs_rejected_before_allocation(self, monkeypatch):
        state = random_state(4, 2)
        forbid_allocation(monkeypatch)
        shared_control = [(1, 2), (1, 3)]
        shared_target = [(1, 3), (2, 3)]
        target_is_a_control = [(1, 2), (2, 3)]
        out_of_range_second = [(1, 2), (3, 5)]
        for pairs in (shared_control, shared_target, target_is_a_control, out_of_range_second):
            with pytest.raises(ValueError):
                apply_cnot(state, pairs)


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

    def test_matches_per_qubit_reference_bit_for_bit(self):
        # one H at a time through the whole-register butterfly, in the
        # layer's order, bit for bit; the single-qubit layers include q = n,
        # where each pair is one amplitude's re and im beside its partner's.
        # At n = 16 the register is 2^17 floats, several of the kernel's
        # blocks, which q = 1 cuts by columns and q = 9 and q = 16 by rows.
        # The tensordot reference rounds differently in the last bit, so it
        # is held to 1e-15.
        cases = [
            (n, [[q] for q in range(1, n + 1)] + [list(range(1, n + 1)), list(range(n, 0, -1))])
            for n in range(1, 9)
        ]
        cases.append((16, [[1], [16], [9], list(range(1, 17))]))
        for n, layers in cases:
            psi = random_state(n, 40 + n)
            for qubits in layers:
                expected, via_tensordot = psi, psi
                for q in qubits:
                    expected = butterfly_on_qubit(expected, q)
                    via_tensordot = on_qubit(via_tensordot, H, q)
                for given in (psi, working(psi)):
                    result = hadamard_layer(given, qubits).amplitudes
                    assert result.tobytes() == expected.amplitudes.tobytes(), f"n={n} qubits={qubits}"
                    np.testing.assert_allclose(result, via_tensordot.amplitudes, rtol=0, atol=1e-15)

    def test_bytes_do_not_depend_on_the_blas_kernel(self):
        # OpenBLAS picks its kernel by CPU unless OPENBLAS_CORETYPE forces
        # one; the layer makes no BLAS call, so the bytes cannot move.  The
        # variable is set on the child only (other BLAS builds ignore it).
        src = str(Path(gates_module.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for coretype in (None, "Prescott"):
            child_env = env if coretype is None else {**env, "OPENBLAS_CORETYPE": coretype}
            run = subprocess.run(
                [sys.executable, "-c", HADAMARD_DIGESTS],
                env=child_env, capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0].count("\n") == 8
        assert outputs[0] == outputs[1]

    def test_output_is_a_fresh_frozen_buffer(self):
        for qubits in ([1], [2], [3, 1], [1, 2, 3]):
            state = random_state(3, 8)
            result = hadamard_layer(state, qubits)
            assert not np.shares_memory(result.amplitudes, state.amplitudes)
            assert not result.amplitudes.flags.writeable
            assert state.amplitudes.tobytes() == random_state(3, 8).amplitudes.tobytes()

    def test_out_never_writes_a_frozen_input(self):
        # a frozen input is copied once and read; its array stays read-only
        # and its bytes unchanged, after one H and after several
        for qubits in ([2], [1, 2], [3, 1, 2]):
            state = random_state(3, 8)
            result = hadamard_layer(state, qubits)
            assert result.amplitudes is not state.amplitudes
            assert not state.amplitudes.flags.writeable
            assert state.amplitudes.tobytes() == random_state(3, 8).amplitudes.tobytes()

    def test_a_working_input_is_overwritten_in_place(self):
        # every H writes the input's own array; the bytes are the fresh layer's
        for qubits in ([1], [3], [3, 1], [1, 2, 3], [2, 3, 1, 4]):
            psi = random_state(4, 8)
            work = working(psi)
            result = hadamard_layer(work, qubits)
            assert result.amplitudes is work.amplitudes
            assert result.amplitudes.flags.writeable
            assert result.amplitudes.tobytes() == hadamard_layer(psi, qubits).amplitudes.tobytes()


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
            apply_pauli_correction(psi, corr).amplitudes, psi.amplitudes
        )

    def test_single_x(self):
        # x=1, z=0 on a|1> + b|0> swaps the components
        a, b = 0.6, 0.8j
        state = StateVector(1, [b, a])
        corr = PauliCorrection(1, BitChain(1, 1), BitChain(1, 0))
        np.testing.assert_allclose(
            apply_pauli_correction(state, corr).amplitudes, [a, b], atol=1e-15
        )

    def test_forward_order_z_acts_first(self):
        # with both exponents set the forward product sends |0> to +|1>
        corr = PauliCorrection(1, BitChain(1, 1), BitChain(1, 1))
        np.testing.assert_array_equal(apply_pauli_correction(ket("0"), corr).amplitudes, [0, 1])
        # and |1> to -|0>
        np.testing.assert_array_equal(apply_pauli_correction(ket("1"), corr).amplitudes, [-1, 0])

    def test_inverse_order_x_acts_first(self):
        corr = PauliCorrection(1, BitChain(1, 1), BitChain(1, 1))
        np.testing.assert_array_equal(
            apply_pauli_correction_inverse(ket("1"), corr).amplitudes, [1, 0]
        )

    def test_round_trip_is_exact_identity(self):
        for seed in range(6):
            psi = random_state(3, seed)
            for xv, zv in itertools.product(range(8), repeat=2):
                corr = PauliCorrection(3, BitChain(3, xv), BitChain(3, zv))
                back = apply_pauli_correction_inverse(apply_pauli_correction(psi, corr), corr)
                np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-12)

    def test_anticommutation_sign(self):
        # Z then X differs from X then Z by a global -1 exactly when both act
        # (the forward product applies Z first, then X)
        psi = random_state(1, 2)
        zx = apply_pauli_correction(psi, pauli(1, 1))
        xz = on_qubit(on_qubit(psi, X, 1), Z, 1)
        np.testing.assert_allclose(zx.amplitudes, -xz.amplitudes, atol=1e-15)

    def test_trailing_exponents_leave_qubit_one_alone(self):
        # exponents set only on qubits 2..3 leave qubit 1 alone
        psi = random_state(3, 8)
        corr = PauliCorrection(3, BitChain(3, 0b010), BitChain(3, 0b001))
        expected = on_qubit(on_qubit(psi, Z, 3), X, 2)
        np.testing.assert_allclose(
            apply_pauli_correction(psi, corr).amplitudes, expected.amplitudes, atol=1e-14
        )

    def test_matches_per_qubit_gate_loop(self):
        # reference: one X or Z matrix per set exponent bit, Z factors first
        # going forward and X factors first going back
        def gate_loop(state, corr, order):
            for matrix, chain in order:
                for m in range(1, corr.n + 1):
                    if chain(corr).bit(m):
                        state = on_qubit(state, matrix, m)
            return state

        z_part = (Z, lambda c: c.z_exponents)
        x_part = (X, lambda c: c.x_exponents)
        psi = random_state(3, 12)
        for xv, zv in itertools.product(range(8), repeat=2):
            corr = PauliCorrection(3, BitChain(3, xv), BitChain(3, zv))
            np.testing.assert_array_equal(
                apply_pauli_correction(psi, corr).amplitudes,
                gate_loop(psi, corr, (z_part, x_part)).amplitudes,
            )
            np.testing.assert_array_equal(
                apply_pauli_correction_inverse(psi, corr).amplitudes,
                gate_loop(psi, corr, (x_part, z_part)).amplitudes,
            )

    def test_correction_width_must_match_the_state(self):
        # a correction acts on the whole state: its width must be the state's
        psi = random_state(2, 0)
        for width in (1, 3):
            corr = PauliCorrection(width, BitChain(width, 0), BitChain(width, 0))
            with pytest.raises(ValueError):
                apply_pauli_correction(psi, corr)
            with pytest.raises(ValueError):
                apply_pauli_correction_inverse(psi, corr)


class TestRenderSchedule:
    def test_grammar(self):
        ops = [ScheduleOp("H", (3,)), ScheduleOp("CNOT", (1, 4)), ScheduleOp("M", (1, 6))]
        assert render_schedule(ops) == "H q3\nCNOT q1 q4\nM q1..q6\n"

    def test_unknown_kind(self):
        for op in (ScheduleOp("T", (1,)), ScheduleOp("X", (7,)), ScheduleOp("H", (1, 2))):
            with pytest.raises(ValueError):
                render_schedule([op])
