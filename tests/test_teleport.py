import gc
import importlib
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import qteleport.cli as cli
from qteleport.bitchain import BitChain
from qteleport.gates import apply_cnot, apply_pauli_correction
from qteleport.statevector import (
    CapacityError,
    NormalizationError,
    StateVector,
    basis_state,
    probabilities_of_subset,
    random_state,
    state_to_dict,
    tensor,
)
from qteleport.teleport import (
    circuit_schedule,
    correction_for_outcome,
    render_schedule,
    replay_schedule,
    teleport,
    trace_json_chunks,
    trace_to_json,
)

# the package exports a function named ``teleport``, which shadows the module
teleport_module = importlib.import_module("qteleport.teleport")
statevector_module = importlib.import_module("qteleport.statevector")

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
        staged = replay_schedule(circuit_schedule(1)[:3], StateVector(1, [a, b]))
        expected = np.zeros(8)
        expected[[0b000, 0b011]] = a * SQRT_HALF
        expected[[0b110, 0b101]] = b * SQRT_HALF
        np.testing.assert_allclose(staged.amplitudes, expected, atol=1e-15)

    def test_cnot_layer_identity_on_zero_payload(self):
        for n in (1, 2, 3):
            psi = basis_state(BitChain(n, 0))
            layers = circuit_schedule(n)
            before = replay_schedule(layers[:2], psi)
            after = replay_schedule(layers[:3], psi)
            np.testing.assert_array_equal(after.amplitudes, before.amplitudes)
            full = tensor(psi, teleport(psi, 0).bell_state)
            np.testing.assert_array_equal(after.amplitudes, full.amplitudes)

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

    @pytest.mark.parametrize(
        "kernel, context",
        [("apply_cnot", "post-CNOT state"), ("hadamard_layer", "pre-measurement state")],
    )
    def test_sender_stage_drift_raises(self, monkeypatch, kernel, context):
        # a layer that writes its register a little too large is caught at its stage
        real = getattr(teleport_module, kernel)

        def drifting(state, targets):
            bell_stage = not state.amplitudes.flags.writeable  # it runs on frozen states
            result = real(state, targets)
            if bell_stage:
                return result
            result.amplitudes[:] *= 1.001
            return StateVector._owned(result.n_qubits, result.amplitudes, frozen=False)

        monkeypatch.setattr(teleport_module, kernel, drifting)
        with pytest.raises(NormalizationError, match=f"^{context} has norm drift"):
            teleport(random_state(2, 1), 0)

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

        for name in ("apply_cnot", "hadamard_layer", "_working_tensor"):
            monkeypatch.setattr(teleport_module, name, no_kernel)
        n = 3
        psi = random_state(n, 4)
        with pytest.raises(ValueError, match="seed"):
            teleport(psi)
        for seed in (-1, 1.5):  # numpy rejects both when it builds the generator
            with pytest.raises((ValueError, TypeError)):
                teleport(psi, seed)
        for width in (2 * n - 1, 2 * n + 1, n):
            with pytest.raises(ValueError, match="width"):
                teleport(psi, force_outcome=BitChain(width, 0))


class TestMemory:
    def test_a_run_peaks_near_one_register_and_publishes_frozen_states(self):
        # At n = 6 a 3n-qubit register is 16 * 2^18 B = 4 MiB, far above the
        # ufunc buffers and temporaries that blur the count at n <= 4.  The
        # sender stage runs in place in one register.  A sampled measurement
        # squares the amplitudes a block of rows at a time; a forced outcome
        # reads one row.  A second register, or a whole |amplitude|^2
        # temporary (half a register), would break the bound.  A call on the
        # payload of a held trace reuses its gate run and allocates no
        # register at all.
        register = 16 << 18
        n = 6
        teleport(random_state(n, 0), 0)  # warm up: CNOT slice plans, lazy imports

        def traced(run, bound):
            tracemalloc.start()
            try:
                trace = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * register, f"peak of {peak / register:.2f} registers"
            states = [
                trace.input_state,
                trace.bell_state,
                trace.pre_measurement_state,
                trace.bob_pre_correction,
                trace.bob_post_correction,
            ]
            assert not any(state.amplitudes.flags.writeable for state in states)
            for a, b in itertools.combinations(states, 2):
                assert not np.shares_memory(a.amplitudes, b.amplitudes)
            return trace

        for seed in (1, 2, 3):
            psi = random_state(n, seed)
            forced = BitChain(2 * n, seed)
            seeded = traced(lambda: teleport(psi, seed), 1.15)
            warm = traced(lambda: teleport(psi, force_outcome=forced), 0.05)
            assert warm.pre_measurement_state is seeded.pre_measurement_state
            # a payload object of its own makes the forced run cold
            copy = StateVector(n, psi.amplitudes)
            cold = traced(lambda: teleport(copy, force_outcome=forced), 1.15)
            assert cold.pre_measurement_state is not seeded.pre_measurement_state


class TestGateRunMemo:
    def test_forced_outcomes_on_one_payload_run_the_gate_layers_once(self, monkeypatch):
        # as verify sweeps them: each call runs while the last trace is held
        calls = []
        hadamard_layer = teleport_module.hadamard_layer

        def counting_layer(state, qubits):
            calls.append(state.n_qubits)
            return hadamard_layer(state, qubits)

        monkeypatch.setattr(teleport_module, "hadamard_layer", counting_layer)
        n = 4
        psi = random_state(n, 7)
        for out in range(0, 1 << (2 * n), 8):
            trace = teleport(psi, force_outcome=BitChain(2 * n, out))
            assert trace.outcome.bits.value == out
        # the Bell pairs' H layer on 2n qubits, the sender's on 3n, once each
        assert calls == [2 * n, 3 * n]

    def test_shared_runs_are_byte_identical_to_cold_runs(self):
        for n in (1, 3, 5):
            psi = random_state(n, 50 + n)
            outcomes = [BitChain(2 * n, v % (1 << (2 * n))) for v in range(0, 32 * 37, 37)]
            warm = [teleport(psi, force_outcome=bits) for bits in outcomes]
            assert len({id(trace.pre_measurement_state) for trace in warm}) == 1
            for trace, bits in zip(warm, outcomes):
                cold = teleport(StateVector(n, psi.amplitudes), force_outcome=bits)
                assert cold.pre_measurement_state is not trace.pre_measurement_state
                assert (cold.outcome, cold.fidelity_to_input) == (
                    trace.outcome, trace.fidelity_to_input
                )
                for field in ("bell_state", "pre_measurement_state", "bob_pre_correction",
                              "bob_post_correction"):
                    got, expected = getattr(trace, field), getattr(cold, field)
                    assert got.amplitudes.tobytes() == expected.amplitudes.tobytes(), field

    def test_the_memo_keeps_no_state_alive(self):
        psi = random_state(3, 9)
        trace = teleport(psi, force_outcome=BitChain(6, 5))
        held = [weakref.ref(trace.pre_measurement_state), weakref.ref(trace.bell_state)]
        del trace
        gc.collect()
        assert [ref() for ref in held] == [None, None]
        payload = weakref.ref(psi)
        del psi
        gc.collect()
        assert payload() is None

    def test_a_lowered_capacity_raises_on_a_shared_run(self, monkeypatch):
        # the held trace would let the second call reuse its gate run
        n = 2
        psi = random_state(n, 3)
        trace = teleport(psi, force_outcome=BitChain(2 * n, 1))
        monkeypatch.setenv(statevector_module.CAPACITY_ENV_VAR, str(3 * n - 1))
        with pytest.raises(CapacityError):
            teleport(psi, force_outcome=BitChain(2 * n, 2))
        del trace


class TestSchedule:
    def test_single_qubit_sequence(self):
        assert circuit_schedule(1) == [
            ("H", ((2,),)),
            ("CNOT", ((2, 3),)),
            ("CNOT", ((1, 2),)),
            ("H", ((1,),)),
            ("M", ((1, 2),)),
            ("CORRECT", ((3, 3),)),
        ]

    def test_operation_counts(self):
        for n in (1, 2, 3, 4):
            layers = circuit_schedule(n)
            assert [kind for kind, _ in layers] == ["H", "CNOT", "CNOT", "H", "M", "CORRECT"]
            assert [len(gates) for _, gates in layers] == [n, n, n, n, 1, 1]

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
        # replay and teleport run the gates by one route, so they agree to the
        # byte, up to the default capacity
        for n in range(1, 8):
            psi = random_state(n, 31 + n)
            trace = teleport(psi, 0)
            replayed = replay_schedule(circuit_schedule(n), psi)
            assert replayed.amplitudes.tobytes() == trace.pre_measurement_state.amplitudes.tobytes()

    def test_replay_through_the_cnot_layer_is_the_post_cnot_state(self):
        # the state teleport checks as post-CNOT, formed here from the trace's
        # Bell state by the fresh-buffer kernels
        for n in range(1, 8):
            psi = random_state(n, 70 + n)
            trace = teleport(psi, 0)
            pairs = [(m, n + m) for m in range(1, n + 1)]
            post_cnot = apply_cnot(tensor(psi, trace.bell_state), pairs)
            replayed = replay_schedule(circuit_schedule(n)[:3], psi)
            assert replayed.amplitudes.tobytes() == post_cnot.amplitudes.tobytes()

    def test_replay_rejects_foreign_ops(self):
        with pytest.raises(ValueError):
            replay_schedule([("SWAP", ((1, 2),))], random_state(1, 0))

    def test_replay_rejects_other_lists_before_any_kernel(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("a kernel ran on a rejected list")

        for name in ("apply_cnot", "hadamard_layer", "_working_tensor"):
            monkeypatch.setattr(teleport_module, name, no_kernel)
        for n in range(1, 5):
            psi = random_state(n, 90 + n)
            layers = circuit_schedule(n)
            swapped = layers[:2] + [layers[3], layers[2]]
            rejected = [swapped, swapped + layers[4:], layers[:3] + layers[4:]]
            rejected += [layers[:4] + layers[5:], layers + layers[-1:], layers[::-1]]
            for cut in range(1, 5):  # a gate layer short of a gate, or with one doubled
                kind, gates = layers[cut - 1]
                rejected += [layers[: cut - 1] + [(kind, g)] for g in (gates[:-1], gates + gates[-1:])]
            for other in (n - 1, n + 1):  # a table built for another n
                if other >= 1:
                    rejected += [circuit_schedule(other)[:cut] for cut in range(1, 7)]
            for bad in rejected:
                with pytest.raises(ValueError, match="leading slice"):
                    replay_schedule(bad, psi)

    def test_replay_of_whole_layer_prefixes(self):
        # no layer, the Bell layers, through the sender's CNOT layer, and the
        # whole table with or without its measurement and correction entries
        for n in range(1, 8):
            psi = random_state(n, 50 + n)
            trace = teleport(psi, 0)
            layers = circuit_schedule(n)
            expected = {
                0: tensor(psi, basis_state(BitChain(2 * n, 0))),
                2: tensor(psi, trace.bell_state),
                4: trace.pre_measurement_state,
                5: trace.pre_measurement_state,
                6: trace.pre_measurement_state,
            }
            for cut, state in expected.items():
                replayed = replay_schedule(layers[:cut], psi)
                assert replayed.amplitudes.tobytes() == state.amplitudes.tobytes(), cut
                assert not replayed.amplitudes.flags.writeable

    def test_replay_rejects_an_unnormalized_payload(self):
        # the payload is checked before any gate runs, as in teleport
        psi = StateVector(2, [1.0, 0.5, 0.0, 0.0])
        with pytest.raises(NormalizationError, match="^input state has norm drift"):
            replay_schedule(circuit_schedule(2), psi)

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
            # one call per gate layer; the Bell pairs are prepared on the
            # 2n-qubit ancilla register, whose qubit q is circuit qubit n + q
            expected = []
            for i, (kind, gates) in enumerate(circuit_schedule(n)[:4]):
                shift, width = (n, 2 * n) if i < 2 else (0, 3 * n)
                placed = tuple(tuple(q - shift for q in gate) for gate in gates)
                expected.append((kind, sum(placed, ()) if kind == "H" else placed, width))
            assert calls == expected


def reference_trace_json(trace):
    """The trace document as one dict through one ``json.dumps``, the way it
    was built before it was written in slices."""
    return json.dumps(
        {
            "n": trace.n,
            "outcome": str(trace.outcome.bits),
            "probability": trace.outcome.probability,
            "fidelity": trace.fidelity_to_input,
            "states": {
                "input": state_to_dict(trace.input_state),
                "bell": state_to_dict(trace.bell_state),
                "pre_measurement": state_to_dict(trace.pre_measurement_state),
                "bob_pre_correction": state_to_dict(trace.bob_pre_correction),
                "bob_post_correction": state_to_dict(trace.bob_post_correction),
            },
        }
    )


def trace_rows(trace):
    """Amplitude rows of each state the trace document holds."""
    states = (
        trace.input_state,
        trace.bell_state,
        trace.pre_measurement_state,
        trace.bob_pre_correction,
        trace.bob_post_correction,
    )
    return [len(state.amplitudes) for state in states]


class TestTraceSerialization:
    def test_document_shape(self):
        trace = teleport(random_state(2, 4), 11)
        payload = json.loads(trace_to_json(trace))
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

    def test_bytes_equal_one_json_dumps_of_the_whole_document(self):
        slice_rows = statevector_module._SLICE_ROWS
        rows = []
        for n in range(1, 7):
            trace = teleport(random_state(n, 30 + n), n)
            assert trace_to_json(trace) == reference_trace_json(trace), f"n = {n}"
            rows += trace_rows(trace)
        # states shorter than a slice, exactly one slice, and several slices
        assert min(rows) < slice_rows
        assert slice_rows in rows
        assert max(rows) >= 8 * slice_rows

    @pytest.mark.parametrize("slice_rows", [1, 2, 3, 5])
    def test_bytes_do_not_depend_on_the_slice_length(self, monkeypatch, slice_rows):
        # with short slices every state of an n = 2 trace (4 to 64 rows)
        # ends on, and off, a slice boundary
        trace = teleport(random_state(2, 6), 6)
        monkeypatch.setattr(statevector_module, "_SLICE_ROWS", slice_rows)
        chunks = list(trace_json_chunks(trace))
        assert "".join(chunks) == reference_trace_json(trace)
        # a row prints in under 60 characters, a header or state wrapper in 80
        assert max(map(len, chunks)) < 60 * slice_rows + 80

    def test_negative_zero_keeps_its_sign(self):
        psi = StateVector(1, np.array([complex(-0.0, 1.0), complex(1.0, -0.0)]) * SQRT_HALF)
        trace = teleport(psi, 3)
        document = trace_to_json(trace)
        assert document == reference_trace_json(trace)
        assert json.loads(document)["states"]["input"]["amplitudes"][0][0] == 0.0
        assert '"amplitudes": [[-0.0, 0.7071067811865475]' in document

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cli_out_file_is_the_document_and_a_newline(self, tmp_path, n):
        path = tmp_path / "trace.json"
        argv = ["teleport", "--n", str(n), "--format", "json", "--seed", str(n)]
        assert cli.main([*argv, "--out", str(path)]) == cli.EX_OK
        trace = teleport(random_state(n, np.random.default_rng(n)), n)
        assert path.read_text(encoding="utf-8") == reference_trace_json(trace) + "\n"

    def test_byte_identical_for_equal_seeds(self):
        first = trace_to_json(teleport(random_state(2, 8), 99))
        second = trace_to_json(teleport(random_state(2, 8), 99))
        assert first == second

    def test_json_parses(self):
        trace = teleport(random_state(1, 2), 5)
        parsed = json.loads(trace_to_json(trace))
        assert parsed["fidelity"] == pytest.approx(1.0, abs=1e-10)
