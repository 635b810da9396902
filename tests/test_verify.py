import dataclasses
import importlib
import inspect
import json
import math

import numpy as np
import pytest

from qteleport.bitchain import BitChain
from qteleport.statevector import StateVector, random_state
from qteleport.teleport import circuit_schedule, replay_schedule, teleport
from qteleport.gates import hadamard_layer
from qteleport.verify import (
    PASS_TOLERANCE,
    TWO_QUBIT_OUTCOME_TABLE,
    StageCheck,
    VerificationReport,
    bell_closed_form,
    hadamard_closed_form,
    outcome_branches,
    post_cnot_closed_form,
    pre_measurement_closed_form,
    reassemble_from_branches,
    report_to_json,
    report_to_text,
    two_qubit_table_state,
    verify_protocol,
)

verify_module = importlib.import_module("qteleport.verify")

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_alpha(n, seed):
    return random_state(n, seed).amplitudes


def gate_trace(alpha, n):
    """A pipeline run on the payload; its stage states are the gate route."""
    return teleport(StateVector(n, alpha), 0)


def gate_post_cnot(alpha, n):
    """The gate route's state after the sender's CNOT layer: the schedule
    replayed up to the end of that layer, as verify_protocol checks it."""
    return replay_schedule(circuit_schedule(n)[: 3 * n], StateVector(n, alpha))


def basis_alpha(n, index):
    a = np.zeros(1 << n, dtype=complex)
    a[index] = 1.0
    return a


def same_bits(state, reference):
    return state.amplitudes.tobytes() == reference.tobytes()


def loop_bell(n):
    """Reference: the Bell oracle written as a loop over the matched labels."""
    amps = np.zeros(1 << (2 * n), dtype=np.complex128)
    for j in range(1 << n):
        amps[(j << n) | j] = 1.0 / math.sqrt(2.0**n)
    return amps


def loop_post_cnot(a, n):
    amps = np.zeros(1 << (3 * n), dtype=np.complex128)
    scale = 1.0 / math.sqrt(2.0**n)
    for i in range(1 << n):
        for j in range(1 << n):
            amps[(i << (2 * n)) | ((j ^ i) << n) | j] = a[i] * scale
    return amps


def loop_pre_measurement(a, n):
    amps = np.zeros(1 << (3 * n), dtype=np.complex128)
    scale = 1.0 / (2.0**n)
    dim = 1 << n
    for i in range(dim):
        for k in range(dim):
            sign = -1.0 if (i & k).bit_count() & 1 else 1.0
            contribution = sign * a[i] * scale
            for j in range(dim):
                amps[(k << (2 * n)) | ((j ^ i) << n) | j] += contribution
    return amps


def loop_branch(a, n, out):
    z, x = out >> n, out & ((1 << n) - 1)
    amps = np.empty(1 << n, dtype=np.complex128)
    for b in range(1 << n):
        sign = -1.0 if ((b ^ x) & z).bit_count() & 1 else 1.0
        amps[b] = sign * a[b ^ x] * (1.0 / (2.0**n))
    return amps


class TestClosedForms:
    def test_bell_single_pair(self):
        np.testing.assert_allclose(
            bell_closed_form(1).amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF], atol=1e-15
        )

    def test_bell_two_pairs(self):
        expected = np.zeros(16)
        expected[[0b0000, 0b0101, 0b1010, 0b1111]] = 0.5
        np.testing.assert_allclose(bell_closed_form(2).amplitudes, expected, atol=1e-15)

    def test_bell_matches_gate_route(self):
        for n in (1, 2, 3, 4):
            np.testing.assert_allclose(
                bell_closed_form(n).amplitudes,
                gate_trace(basis_alpha(n, 0), n).bell_state.amplitudes,
                atol=1e-12,
            )

    def test_bell_norm(self):
        for n in (1, 2, 3, 4, 5):
            assert bell_closed_form(n).norm() == pytest.approx(1.0, abs=1e-12)

    def test_post_cnot_for_zero_payload(self):
        state = post_cnot_closed_form([1.0, 0.0], 1)
        expected = np.zeros(8)
        expected[[0b000, 0b011]] = SQRT_HALF
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_post_cnot_xor_addressing(self):
        # payload label 11 puts the j=10 term at middle-group label 01
        alpha = basis_alpha(2, 0b11)
        state = post_cnot_closed_form(alpha, 2)
        index = (0b11 << 4) | (0b01 << 2) | 0b10
        assert state.amplitudes[index] == pytest.approx(0.5)

    def test_post_cnot_matches_gate_route(self):
        for n in (1, 2, 3):
            for seed in range(10):
                alpha = random_alpha(n, seed)
                staged = gate_post_cnot(alpha, n)
                np.testing.assert_allclose(
                    staged.amplitudes, post_cnot_closed_form(alpha, n).amplitudes, atol=1e-12
                )

    def test_pre_measurement_single_qubit_branches(self):
        a, b = 0.6, 0.8j
        state = pre_measurement_closed_form([a, b], 1)
        expected = np.zeros(8, dtype=complex)
        for outcome, pair in {0b00: (a, b), 0b01: (b, a), 0b10: (a, -b), 0b11: (-b, a)}.items():
            expected[(outcome << 1) | 0] = pair[0] / 2.0
            expected[(outcome << 1) | 1] = pair[1] / 2.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_pre_measurement_is_normalized(self):
        for n in (1, 2, 3):
            state = pre_measurement_closed_form(random_alpha(n, n), n)
            assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_stage_chaining(self):
        # the sender's Hadamards applied to the post-CNOT closed form land on
        # the pre-measurement closed form
        for n in (1, 2, 3):
            alpha = random_alpha(n, 40 + n)
            chained = hadamard_layer(post_cnot_closed_form(alpha, n), range(1, n + 1))
            np.testing.assert_allclose(
                chained.amplitudes,
                pre_measurement_closed_form(alpha, n).amplitudes,
                atol=1e-12,
            )

    @pytest.mark.parametrize(
        "oracle",
        [
            bell_closed_form,
            post_cnot_closed_form,
            pre_measurement_closed_form,
            outcome_branches,
            reassemble_from_branches,
            two_qubit_table_state,
            hadamard_closed_form,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_oracle_shares_no_code_with_the_simulator(self, oracle):
        # follows the verify helpers an oracle calls
        simulator = {"qteleport.gates", "qteleport.teleport"}
        seen, pending = set(), [oracle]
        while pending:
            fn = pending.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for name, value in inspect.getclosurevars(fn).globals.items():
                assert getattr(value, "__module__", None) not in simulator, (
                    f"{fn.__name__} uses {name} from the simulator"
                )
                if inspect.isfunction(value) and value.__module__ == verify_module.__name__:
                    pending.append(value)

    def test_match_loop_references_bit_for_bit(self):
        for n in (1, 2, 3):
            assert bell_closed_form(n).amplitudes.tobytes() == loop_bell(n).tobytes()
            alphas = [basis_alpha(n, v) for v in range(1 << n)]
            alphas += [-basis_alpha(n, v) for v in range(1 << n)]
            alphas += [random_alpha(n, 70 + s) for s in range(4)]
            if n == 1:
                alphas += [np.array([0.6, 0.8j]), np.array([-0.6, -0.8j])]
            for a in alphas:
                assert same_bits(post_cnot_closed_form(a, n), loop_post_cnot(a, n))
                assert same_bits(pre_measurement_closed_form(a, n), loop_pre_measurement(a, n))
                branches = outcome_branches(a, n)
                assert branches.shape == (1 << (2 * n), 1 << n)
                for out, row in enumerate(branches):
                    assert row.tobytes() == loop_branch(a, n, out).tobytes()

    def test_and_parity_helper(self):
        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 1 << 62, size=(2, 200))
        expected = [bin(int(x) & int(y)).count("1") & 1 for x, y in zip(a, b)]
        assert verify_module._and_parity(a, b).tolist() == expected

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            post_cnot_closed_form([1.0, 1.0], 1)  # unnormalized
        with pytest.raises(ValueError):
            pre_measurement_closed_form([1.0, 0.0, 0.0], 1)  # wrong length
        with pytest.raises(ValueError):
            outcome_branches([np.nan, 0.0], 1)


class TestOutcomeBranches:
    def test_zero_outcome_branch_is_scaled_input(self):
        for n in (1, 2):
            alpha = random_alpha(n, 6 + n)
            branches = outcome_branches(alpha, n)
            np.testing.assert_allclose(branches[0], alpha / 2.0**n, atol=1e-15)

    def test_single_qubit_conditional_states(self):
        a, b = 0.6, 0.8j
        branches = outcome_branches([a, b], 1)
        expected = {
            "00": [a, b],
            "01": [b, a],
            "10": [a, -b],
            "11": [-b, a],
        }
        for text, amps in expected.items():
            np.testing.assert_allclose(
                branches[BitChain.from_string(text).value],
                np.array(amps) / 2.0,
                atol=1e-15,
            )

    def test_branch_squared_norms(self):
        for n in (1, 2, 3):
            branches = outcome_branches(random_alpha(n, 13 + n), n)
            assert len(branches) == 4**n
            for branch in branches:
                assert np.linalg.norm(branch) ** 2 == pytest.approx(4.0 ** (-n), abs=1e-12)

    def test_reassembly_identity(self):
        for n in (1, 2, 3):
            alphas = [basis_alpha(n, v) for v in range(1 << n)]
            alphas += [random_alpha(n, 100 * n + s) for s in range(10)]
            for alpha in alphas:
                rebuilt = reassemble_from_branches(outcome_branches(alpha, n), n)
                np.testing.assert_allclose(
                    rebuilt.amplitudes,
                    pre_measurement_closed_form(alpha, n).amplitudes,
                    atol=1e-12,
                )

    def test_reassembly_rejects_a_wrongly_shaped_array(self):
        branches = outcome_branches(random_alpha(2, 5), 2)
        for bad in (branches[:-1], branches.T, branches.reshape(-1), branches.reshape(4, 4, 4)):
            with pytest.raises(ValueError, match="branch array"):
                reassemble_from_branches(bad, 2)
        with pytest.raises(ValueError, match="branch array"):
            reassemble_from_branches(branches, 1)  # the rows of another n

    def test_gate_pipeline_matches_oracles_stage_by_stage(self):
        # closed-form chain against the simulator for 100 random inputs
        for n in (1, 2, 3):
            for seed in range(100):
                alpha = random_alpha(n, seed)
                trace = gate_trace(alpha, n)
                np.testing.assert_allclose(
                    trace.bell_state.amplitudes, bell_closed_form(n).amplitudes, atol=1e-12
                )
                np.testing.assert_allclose(
                    gate_post_cnot(alpha, n).amplitudes,
                    post_cnot_closed_form(alpha, n).amplitudes,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    trace.pre_measurement_state.amplitudes,
                    pre_measurement_closed_form(alpha, n).amplitudes,
                    atol=1e-12,
                )


class TestSixteenRowTable:
    def test_table_is_complete(self):
        assert len(TWO_QUBIT_OUTCOME_TABLE) == 16
        assert all(len(row) == 4 for row in TWO_QUBIT_OUTCOME_TABLE.values())
        # each row permutes all four sources
        for row in TWO_QUBIT_OUTCOME_TABLE.values():
            assert sorted(source for _, source in row) == [0, 1, 2, 3]

    def test_table_state_matches_oracle(self):
        for seed in range(20):
            alpha = random_alpha(2, seed)
            np.testing.assert_allclose(
                two_qubit_table_state(alpha).amplitudes,
                pre_measurement_closed_form(alpha, 2).amplitudes,
                atol=1e-13,
            )

    def test_table_state_matches_gate_route(self):
        for index in range(4):
            alpha = basis_alpha(2, index)
            pre = gate_trace(alpha, 2).pre_measurement_state
            np.testing.assert_allclose(
                two_qubit_table_state(alpha).amplitudes, pre.amplitudes, atol=1e-13
            )


class TestVerifyProtocol:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_passes_exhaustively(self, n):
        report = verify_protocol(n, seed=0)
        assert report.passed
        assert report.branches_checked == (4**n) * ((1 << n) + 20)
        assert report.max_branch_deviation < 1e-12
        assert all(s.max_deviation < 1e-12 for s in report.stages_checked)

    def test_sixteen_row_stage_present_only_for_two_qubits(self):
        names_2 = {s.name for s in verify_protocol(2, seed=0).stages_checked}
        names_1 = {s.name for s in verify_protocol(1, seed=0).stages_checked}
        assert "sixteen_row_fixture" in names_2
        assert "sixteen_row_fixture" not in names_1

    def test_sampled_mode(self):
        # 4 basis and 5 random inputs, 32 outcomes each
        for n in (4, 5):
            report = verify_protocol(n, seed=3)
            assert report.passed
            assert report.branches_checked == 32 * (4 + 5) == 288

    def test_report_serializes(self):
        report = verify_protocol(1, seed=0)
        parsed = json.loads(report_to_json(report))
        assert parsed["n"] == 1
        assert parsed["passed"] is True
        assert {s["name"] for s in parsed["stages_checked"]} >= {
            "bell_preparation",
            "hadamard_transform",
            "cnot_layer",
            "hadamard_layer",
            "branch_reassembly",
        }

    @pytest.mark.parametrize(
        "field, stage",
        [
            ("bell_state", "bell_preparation"),
            ("post_cnot_state", "cnot_layer"),
            ("pre_measurement_state", "hadamard_layer"),
        ],
    )
    def test_checks_the_states_the_pipeline_produced(self, monkeypatch, field, stage):
        # a sign error in one stage state the pipeline produced fails exactly that stage
        def negated(state):
            return StateVector(state.n_qubits, -state.amplitudes)

        def corrupted_teleport(psi, **kwargs):
            trace = teleport(psi, **kwargs)
            return dataclasses.replace(trace, **{field: negated(getattr(trace, field))})

        if field == "post_cnot_state":
            # the trace keeps no post-CNOT state; verify replays the schedule
            # through the CNOT layer instead
            monkeypatch.setattr(
                verify_module, "replay_schedule", lambda ops, psi: negated(replay_schedule(ops, psi))
            )
        else:
            monkeypatch.setattr(verify_module, "teleport", corrupted_teleport)
        report = verify_protocol(1, seed=0)
        assert not report.passed
        failed = {s.name for s in report.stages_checked if s.max_deviation >= 1e-10}
        assert failed == {stage}

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            verify_protocol(0)

    def test_deviation_at_the_pass_tolerance_renders_fail(self):
        # the text verdicts and ``passed`` use the same strict bound
        stage = StageCheck("hadamard_transform", 4, PASS_TOLERANCE)
        report = VerificationReport(1, (stage,), 4, PASS_TOLERANCE, passed=False)
        lines = report_to_text(report).splitlines()
        assert lines[1].startswith("  FAIL  hadamard_transform")
        assert lines[2].startswith("  FAIL  outcome_branches")
        assert lines[-1] == "overall: FAIL"
        below = VerificationReport(1, (StageCheck("hadamard_transform", 4, 0.0),), 4, 0.0, True)
        assert report_to_text(below).splitlines()[-1] == "overall: PASS"
