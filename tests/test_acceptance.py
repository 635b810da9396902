"""Acceptance suite: every release criterion, at its pinned tolerance.

Each test prints one PASS line once its assertions hold (visible with
``pytest -s tests/test_acceptance.py``); a failure surfaces as a normal
pytest failure for that criterion.
"""

import json
import subprocess
import sys

import numpy as np

from qteleport.bitchain import BitChain, append_bit, iverson_delta
from qteleport.gates import hadamard_closed_form, hadamard_layer
from qteleport.statevector import (
    StateVector,
    basis_state,
    probabilities_of_subset,
    random_state,
)
from qteleport.teleport import teleport, trace_to_json
from qteleport.verify import (
    TWO_QUBIT_OUTCOME_TABLE,
    outcome_branches,
    pre_measurement_closed_form,
    reassemble_from_branches,
    two_qubit_table_state,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def _passed(num, text):
    print(f"[criterion {num}] PASS — {text}")


def _basis_alpha(n, index):
    a = np.zeros(1 << n, dtype=complex)
    a[index] = 1.0
    return a


def _pre_measurement_via_gates(alpha, n):
    return teleport(StateVector(n, alpha), 0).pre_measurement_state


def test_criterion_1_exact_teleportation():
    # per-amplitude equality of the corrected state with the input, 1e-10
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        for seed in range(100):
            psi = random_state(n, 1000 * n + seed)
            trace = teleport(psi, seed)
            deviation = float(np.max(np.abs(trace.bob_post_correction.amplitudes - psi.amplitudes)))
            worst = max(worst, deviation)
            assert deviation <= 1e-10, f"n={n} seed={seed} deviation={deviation}"
    _passed(1, f"500 seeded runs over n=1..5, worst amplitude deviation {worst:.2e} <= 1e-10")


def test_criterion_2_two_pair_bell_fixture():
    expected = np.zeros(16)
    expected[[0b0000, 0b0101, 0b1010, 0b1111]] = 0.5
    bell = teleport(basis_state(BitChain(2, 0)), 0).bell_state
    np.testing.assert_allclose(bell.amplitudes, expected, atol=1e-12)
    _passed(2, "gate-built two-pair resource state matches the quarter-amplitude fixture at 1e-12")


def test_criterion_3_sixteen_row_fixture():
    rng = np.random.default_rng(3)
    alphas = [_basis_alpha(2, v) for v in range(4)]
    alphas += [random_state(2, rng).amplitudes for _ in range(20)]
    for alpha in alphas:
        via_gates = _pre_measurement_via_gates(alpha, 2)
        from_table = two_qubit_table_state(alpha)
        np.testing.assert_allclose(from_table.amplitudes, via_gates.amplitudes, atol=1e-12)
        # row-by-row: each outcome's receiver block carries the transcribed
        # signed permutation of the input amplitudes
        for text, row in TWO_QUBIT_OUTCOME_TABLE.items():
            block = via_gates.amplitudes[int(text, 2) * 4 : int(text, 2) * 4 + 4]
            expected = np.array([sign * alpha[src] for sign, src in row]) / 4.0
            np.testing.assert_allclose(block, expected, atol=1e-12)
    _passed(3, "all 16 transcribed rows hold for 4 basis and 20 random inputs at 1e-12")


def test_criterion_4_hadamard_transform_lemma():
    cases = 0
    for n in range(1, 7):
        for value in range(1 << n):
            label = BitChain(n, value)
            closed = hadamard_closed_form(label)
            layered = hadamard_layer(basis_state(label), range(1, n + 1))
            np.testing.assert_allclose(closed.amplitudes, layered.amplitudes, atol=1e-12)
            cases += 1
    _passed(4, f"closed form equals the gate layer on all {cases} basis labels, n<=6, at 1e-12")


def test_criterion_5_sign_function_properties():
    checked = 0
    for width in range(1, 9):
        for i_value in range(1 << width):
            for k_value in range(1 << width):
                i = BitChain(width, i_value)
                k = BitChain(width, k_value)
                base = iverson_delta(i, k)
                # appending (1,1) flips the sign; (1,0), (0,1), (0,0) keep it
                assert iverson_delta(append_bit(i, 1), append_bit(k, 1)) == base ^ 1
                assert iverson_delta(append_bit(i, 1), append_bit(k, 0)) == base
                assert iverson_delta(append_bit(i, 0), append_bit(k, 1)) == base
                assert iverson_delta(append_bit(i, 0), append_bit(k, 0)) == base
                checked += 1
    _passed(5, f"four append-bit sign properties hold on all {checked} pairs of widths <= 8")


def test_criterion_6_branch_reassembly_identity():
    for n in (1, 2, 3):
        rng = np.random.default_rng(60 + n)
        alphas = [_basis_alpha(n, v) for v in range(1 << n)]
        alphas += [random_state(n, rng).amplitudes for _ in range(100)]
        for alpha in alphas:
            rebuilt = reassemble_from_branches(outcome_branches(alpha, n), n)
            np.testing.assert_allclose(
                rebuilt.amplitudes,
                pre_measurement_closed_form(alpha, n).amplitudes,
                atol=1e-12,
            )
    _passed(6, "branch reassembly equals the pre-measurement closed form for n<=3 at 1e-12")


def test_criterion_7_uniform_outcome_law():
    for n in (1, 2, 3):
        psi = random_state(n, 70 + n)
        pre = _pre_measurement_via_gates(psi.amplitudes, n)
        probabilities = probabilities_of_subset(pre, list(range(1, 2 * n + 1)))
        assert len(probabilities) == 4**n
        for bits, probability in probabilities.items():
            assert abs(probability - 4.0 ** (-n)) <= 1e-10, f"n={n} outcome={bits}"
    _passed(7, "every sender outcome has exact Born probability 4^-n for n<=3 at 1e-10")


def test_criterion_8_single_qubit_correction_table():
    # the four forced branches demand exactly: nothing, X, Z, then X-then-Z
    a, b = 0.6, 0.8j
    psi = StateVector(1, [a, b])
    corrections = {
        "00": I2,
        "01": X,
        "10": Z,
        "11": Z @ X,  # X first, then Z
    }
    branch_fixtures = {
        "00": [a, b],
        "01": [b, a],
        "10": [a, -b],
        "11": [-b, a],
    }
    for text, matrix in corrections.items():
        trace = teleport(psi, force_outcome=BitChain.from_string(text))
        np.testing.assert_allclose(
            trace.bob_pre_correction.amplitudes, branch_fixtures[text], atol=1e-12
        )
        # the designated operation recovers the input...
        recovered = matrix @ trace.bob_pre_correction.amplitudes
        np.testing.assert_allclose(recovered, psi.amplitudes, atol=1e-12)
        np.testing.assert_allclose(trace.bob_post_correction.amplitudes, psi.amplitudes, atol=1e-12)
        # ...and no other table entry does
        for other_text, other_matrix in corrections.items():
            if other_text == text:
                continue
            candidate = other_matrix @ trace.bob_pre_correction.amplitudes
            assert np.max(np.abs(candidate - psi.amplitudes)) > 0.5
    _passed(8, "forced branches need exactly {nothing, X, Z, X-then-Z}, verified branch by branch")


def test_criterion_9_deterministic_traces():
    first = trace_to_json(teleport(random_state(2, 12), 2024))
    second = trace_to_json(teleport(random_state(2, 12), 2024))
    assert first == second

    argv = [sys.executable, "-m", "qteleport", "teleport", "--n", "2", "--state", "random", "--seed", "9"]
    runs = [subprocess.run(argv, capture_output=True, timeout=120) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    json.loads(runs[0].stdout)  # well-formed
    _passed(9, "identical seeds give byte-identical JSON traces (library and CLI)")
