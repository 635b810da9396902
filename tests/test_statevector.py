import importlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qteleport.bitchain import BitChain
from qteleport.gates import hadamard_layer
from qteleport.statevector import (
    CapacityError,
    NormalizationError,
    StateVector,
    basis_state,
    fidelity,
    max_qubits,
    measure_subset,
    probabilities_of_subset,
    project_onto_outcome,
    random_state,
    state_from_dict,
    state_json_chunks,
    state_to_dict,
    tensor,
)
from qteleport.teleport import teleport

statevector_module = importlib.import_module("qteleport.statevector")

SQRT_HALF = 1.0 / math.sqrt(2.0)


def bell_pair():
    return StateVector(2, [SQRT_HALF, 0.0, 0.0, SQRT_HALF])


def n1_pre_measurement(a, b):
    """The 3-qubit state right before the sender's measurement for input
    a|0> + b|1>: outcome 00 holds (a,b), 01 (b,a), 10 (a,-b), 11 (-b,a)."""
    amps = np.zeros(8, dtype=np.complex128)
    for outcome, pair in {0b00: (a, b), 0b01: (b, a), 0b10: (a, -b), 0b11: (-b, a)}.items():
        amps[(outcome << 1) | 0] = pair[0] / 2.0
        amps[(outcome << 1) | 1] = pair[1] / 2.0
    return StateVector(3, amps)


def masked_projection(state, qubits, bits):
    """Reference: select the outcome's amplitudes with a boolean index mask;
    returns the Born probability and the selected amplitudes, renormalized
    (None if the outcome has no mass)."""
    n = state.n_qubits
    idx = np.arange(1 << n)
    mask = np.ones(1 << n, dtype=bool)
    for pos, q in enumerate(qubits):
        mask &= ((idx >> (n - q)) & 1) == bits.bit(pos + 1)
    prob = float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    if prob < 1e-12:
        return prob, None
    return prob, state.amplitudes[mask] / math.sqrt(prob)


class TestConstruction:
    def test_basis_states(self):
        np.testing.assert_array_equal(basis_state(BitChain(2, 0)).amplitudes, [1, 0, 0, 0])
        np.testing.assert_array_equal(basis_state(BitChain(2, 0b11)).amplitudes, [0, 0, 0, 1])
        np.testing.assert_array_equal(basis_state(BitChain(2, 0b10)).amplitudes, [0, 0, 1, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, [1.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector(1, [np.nan, 0.0])
        with pytest.raises(ValueError):
            StateVector(1, [1.0, np.inf * 1j])
        # either part, also beside a finite amplitude whose square overflows
        for amps in (
            [complex(0.0, np.nan), 0.5],
            [np.inf, 0.5],
            [1e200, complex(np.nan, 0.0)],
            [1e200, complex(0.0, -np.inf)],
        ):
            with pytest.raises(ValueError, match="finite"):
                StateVector(1, amps)

    def test_accepts_a_finite_amplitude_whose_square_overflows(self):
        # accepted without a warning; the norm is inf, as numpy's is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = [StateVector(1, [1e200, 0.0]), StateVector._owned(1, np.array([0.0, 1e200j]))]
        for state in states:
            with np.errstate(over="ignore"):
                assert state.norm() == math.inf == float(np.linalg.norm(state.amplitudes))

    def test_amplitudes_are_frozen(self):
        state = basis_state(BitChain(1, 0))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5.0
        with pytest.raises(AttributeError):
            state.n_qubits = 3

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "4")
        assert max_qubits() == 4
        with pytest.raises(CapacityError):
            StateVector(5, np.zeros(32))

    def test_owned_wraps_the_array_without_a_copy(self):
        amps = np.array([0.6, 0.8j])
        state = StateVector._owned(1, amps)
        assert state.amplitudes is amps
        assert not amps.flags.writeable
        assert state.n_qubits == 1

    @pytest.mark.parametrize(
        "amps",
        [
            np.zeros(3, dtype=np.complex128),
            np.zeros((2, 2), dtype=np.complex128),
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex64),
            np.array([np.nan, 0.0, 0.0, 1.0], dtype=np.complex128),
            np.array([1.0, np.inf * 1j, 0.0, 0.0], dtype=np.complex128),
            np.array([complex(0.0, np.nan), 0.0, 0.0, 1.0]),
            np.array([np.inf, 0.0, 0.0, 1.0], dtype=np.complex128),
            np.array([1e200, complex(np.nan, 0.0), 0.0, 0.0]),
            np.array([1e200, 0.0, 0.0, complex(0.0, -np.inf)]),
        ],
        ids=[
            "wrong-length",
            "wrong-shape",
            "float64",
            "complex64",
            "nan",
            "inf",
            "nan-imag",
            "inf-real",
            "nan-beside-overflow",
            "inf-beside-overflow",
        ],
    )
    def test_owned_rejects_bad_arrays(self, amps):
        with pytest.raises(ValueError):
            StateVector._owned(2, amps)

    def test_owned_enforces_the_capacity(self, monkeypatch):
        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "2")
        with pytest.raises(CapacityError):
            StateVector._owned(3, np.zeros(8, dtype=np.complex128))
        with pytest.raises(ValueError):
            StateVector._owned(0, np.ones(1, dtype=np.complex128))

    def test_capacity_checked_before_allocating(self, monkeypatch):
        class NoDraws(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                raise AssertionError("drew normals before the capacity check")

        def no_zeros(*args, **kwargs):
            raise AssertionError("allocated before the capacity check")

        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "3")
        with pytest.raises(CapacityError):
            random_state(4, NoDraws(np.random.PCG64(0)))
        monkeypatch.setattr(np, "zeros", no_zeros)
        with pytest.raises(CapacityError):
            basis_state(BitChain(4, 0))

    def test_capacity_message_names_the_limit_it_checked(self, monkeypatch):
        # a limit that changes between reads: the message must name the one checked
        high, low = basis_state(BitChain(3, 0)), basis_state(BitChain(2, 0))
        for build in (lambda: StateVector(5, np.zeros(32)), lambda: tensor(high, low)):
            limits = iter([4, 100])
            monkeypatch.setattr(statevector_module, "max_qubits", lambda: next(limits))
            with pytest.raises(CapacityError, match="capacity of 4$"):
                build()

    def test_capacity_env_validation(self, monkeypatch):
        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "many")
        with pytest.raises(ValueError):
            max_qubits()
        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "0")
        with pytest.raises(ValueError):
            max_qubits()


class TestTensor:
    def test_zero_tensor_zero(self):
        zero = basis_state(BitChain(1, 0))
        np.testing.assert_array_equal(tensor(zero, zero).amplitudes, [1, 0, 0, 0])

    def test_payload_with_bell_pair(self):
        # (a|0> + b|1>) (x) bell = [a(|000>+|011>) + b(|100>+|111>)]/sqrt(2)
        a, b = 0.6, 0.8
        psi = StateVector(1, [a, b])
        product = tensor(psi, bell_pair())
        expected = np.zeros(8)
        expected[[0b000, 0b011]] = a * SQRT_HALF
        expected[[0b100, 0b111]] = b * SQRT_HALF
        np.testing.assert_allclose(product.amplitudes, expected, atol=1e-15)

    @settings(max_examples=25)
    @given(
        arrays(np.complex128, 4, elements=st.complex_numbers(max_magnitude=2, allow_subnormal=False)),
        arrays(np.complex128, 2, elements=st.complex_numbers(max_magnitude=2, allow_subnormal=False)),
    )
    def test_norm_multiplicative(self, left, right):
        sa = StateVector(2, left)
        sb = StateVector(1, right)
        assert tensor(sa, sb).norm() == pytest.approx(sa.norm() * sb.norm(), abs=1e-12)

    def test_working_product_is_the_published_product_bit_for_bit(self):
        # the runner's register starts as the working product; tensor publishes it
        a, b = random_state(2, 3), random_state(3, 4)
        work = statevector_module._working_tensor(a, b)
        published = tensor(a, b)
        assert work.amplitudes.flags.writeable
        assert not published.amplitudes.flags.writeable
        assert work.amplitudes.tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()
        assert published.amplitudes.tobytes() == work.amplitudes.tobytes()

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "4")
        a = StateVector(3, np.eye(8)[0])
        b = StateVector(2, np.eye(4)[0])
        with pytest.raises(CapacityError):
            tensor(a, b)


class TestInnerProductAndFidelity:
    def test_orthogonal_labels(self):
        assert fidelity(basis_state(BitChain(2, 0)), basis_state(BitChain(2, 3))) == 0

    def test_hadamard_overlap(self):
        # |<0|+>|^2 = 1/2
        zero = basis_state(BitChain(1, 0))
        assert fidelity(zero, hadamard_layer(zero, [1])) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(random_state(1, 0), random_state(2, 0))

    def test_fidelity_self_and_orthogonal(self):
        psi = random_state(2, 11)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(basis_state(BitChain(1, 0)), basis_state(BitChain(1, 1))) == 0

    @given(st.floats(0, 2 * math.pi, allow_nan=False))
    def test_fidelity_ignores_global_phase(self, theta):
        psi = random_state(2, 3)
        rotated = StateVector(2, psi.amplitudes * np.exp(1j * theta))
        assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-10)


class TestProbabilities:
    def test_basis_state_is_certain(self):
        probs = probabilities_of_subset(basis_state(BitChain(3, 0)), 3)
        assert probs[0] == pytest.approx(1.0)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_bell_pair_marginals(self):
        probs = probabilities_of_subset(bell_pair(), 2)
        assert probs[0b00] == pytest.approx(0.5, abs=1e-12)
        assert probs[0b11] == pytest.approx(0.5, abs=1e-12)
        assert probs[0b01] == 0
        assert probs[0b10] == 0

    def test_sums_to_one_on_random_states(self):
        for seed in range(5):
            state = random_state(4, seed)
            for k in (1, 2, 3, 4):
                total = sum(probabilities_of_subset(state, k))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_validates_subset(self):
        # the span holds 1..n qubits: k = 0 and k = n + 1 are rejected
        state = bell_pair()
        for k in (0, 3):
            with pytest.raises(ValueError):
                probabilities_of_subset(state, k)
            with pytest.raises(ValueError):
                measure_subset(state, k, 0)

    def test_marginal_is_the_row_sums_of_the_reshaped_state(self):
        state = random_state(5, 8)
        for k in range(1, 6):
            rows = np.abs(state.amplitudes.reshape(1 << k, -1)) ** 2
            probs = probabilities_of_subset(state, k)
            assert probs.dtype == np.float64
            assert probs.tobytes() == rows.sum(axis=1).tobytes()

    def test_collapse_needs_an_unmeasured_qubit(self):
        state = random_state(3, 2)
        assert len(probabilities_of_subset(state, 3)) == 8
        for k in (3, 4):
            with pytest.raises(ValueError):
                project_onto_outcome(state, BitChain(k, 0))
        with pytest.raises(ValueError):
            measure_subset(state, 3, 0)


class TestMeasurement:
    def test_bell_pair_outcomes(self):
        # measuring qubit 1 of a Bell pair leaves qubit 2 in the same basis state
        seen = set()
        for seed in range(40):
            outcome, remainder = measure_subset(bell_pair(), 1, seed)
            assert outcome.probability == pytest.approx(0.5, abs=1e-12)
            expected = np.zeros(2)
            expected[outcome.bits.value] = 1.0
            assert remainder.n_qubits == 1
            np.testing.assert_allclose(remainder.amplitudes, expected, atol=1e-12)
            seen.add(outcome.bits.value)
        assert seen == {0, 1}  # both branches get sampled

    def test_measuring_basis_state_returns_its_label(self):
        state = basis_state(BitChain(3, 0b101))
        outcome, remainder = measure_subset(state, 2, 9)
        assert outcome.bits == BitChain(2, 0b10)
        assert outcome.probability == 1.0
        np.testing.assert_array_equal(remainder.amplitudes, basis_state(BitChain(1, 1)).amplitudes)

    def test_pre_measurement_branch_collapse(self):
        # outcome 01 has probability 1/4 and leaves the receiver in b|0> + a|1>
        a, b = 0.6, 0.8j
        outcome, remainder = project_onto_outcome(n1_pre_measurement(a, b), BitChain(2, 0b01))
        assert outcome.probability == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(remainder.amplitudes, [b, a], atol=1e-12)

    def test_sampling_is_deterministic_per_seed(self):
        state = random_state(3, 5)
        first = measure_subset(state, 2, 123)
        second = measure_subset(state, 2, 123)
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1].amplitudes, second[1].amplitudes)

    def test_sampling_matches_cumulative_inversion_loop(self):
        # reference: walk the outcomes in ascending order until the running
        # sum of probabilities passes the draw
        for seed in range(50):
            state = random_state(4, seed)
            draw = np.random.default_rng(seed).random()
            cumulative = 0.0
            for value, prob in enumerate(probabilities_of_subset(state, 2)):
                cumulative += prob
                if draw < cumulative:
                    break
            assert measure_subset(state, 2, seed)[0].bits == BitChain(2, value)

    def test_draw_beyond_total_mass_takes_last_live_outcome(self):
        # total mass 0.51: a draw above it falls past every cumulative sum
        state = StateVector(3, [math.sqrt(0.5), 0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
        seed = next(s for s in range(100) if np.random.default_rng(s).random() > 0.51)
        outcome, _ = measure_subset(state, 2, seed)
        assert outcome.bits == BitChain(2, 0b10)

    def test_projection_matches_mask_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        states = [random_state(n, 60 + n) for n in range(2, 8)]
        # pipeline states for payloads of 1..7 qubits; the literal payloads
        # leave exact zeros, so zero signs are compared too
        states += [teleport(random_state(n, 70 + n), 0).pre_measurement_state for n in range(1, 8)]
        states += [teleport(StateVector(1, [0.6, 0.8j]), 0).pre_measurement_state]
        states += [teleport(StateVector(2, [0, 0.6, 0, 0.8]), 0).pre_measurement_state]
        for state in states:
            n = state.n_qubits
            for _ in range(8 if n <= 12 else 2):
                k = int(rng.integers(1, n))
                qubits = list(range(1, k + 1))
                bits = BitChain(k, int(rng.integers(1 << k)))
                prob, expected = masked_projection(state, qubits, bits)
                if expected is None:
                    continue
                outcome, remainder = project_onto_outcome(state, bits)
                assert outcome.probability == min(prob, 1.0)
                assert remainder.n_qubits == n - k
                assert remainder.amplitudes.tobytes() == expected.tobytes()
                assert not np.shares_memory(remainder.amplitudes, state.amplitudes)

    def test_zero_mass_projection_rejected(self):
        state = basis_state(BitChain(3, 0b000))
        with pytest.raises(NormalizationError):
            project_onto_outcome(state, BitChain(2, 0b11))

    def test_unnormalized_state_detected(self):
        tiny = StateVector(1, [1e-9, 0.0])
        with pytest.raises(NormalizationError):
            probabilities_of_subset(tiny, 1)


class TestNormChecks:
    def test_norm_equals_numpy_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            draws = rng.standard_normal((2, 1 << n)) * rng.uniform(0.1, 10.0)
            for state in (
                random_state(n, n),
                StateVector(n, draws[0] + 1j * draws[1]),
                StateVector._owned(n, draws[0] - 1j * draws[1]),
            ):
                assert state.norm().hex() == float(np.linalg.norm(state.amplitudes)).hex()

    def test_require_normalized_passes(self):
        random_state(2, 1).require_normalized()

    def test_require_normalized_raises_with_context(self):
        drifted = StateVector(1, [1.0, 1e-3])
        with pytest.raises(NormalizationError, match=r"^post-stage has norm drift .* \(> 1e-08\)$"):
            drifted.require_normalized(context="post-stage")


def json_round_trip(state):
    return state_from_dict(json.loads(json.dumps(state_to_dict(state))))


class TestSerialization:
    def test_dict_shape(self):
        payload = state_to_dict(bell_pair())
        assert payload["n_qubits"] == 2
        assert payload["amplitudes"][0] == [SQRT_HALF, 0.0]

    def test_amplitude_pairs_are_the_floats_of_each_amplitude(self):
        amps = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), 1 / 3 - 1e-300j, -0.5 + 0.25j])
        state = StateVector(2, amps)
        pairs = state_to_dict(state)["amplitudes"]
        expected = [[float(a.real), float(a.imag)] for a in state.amplitudes]
        assert all(type(x) is float for pair in pairs for x in pair)
        assert json.dumps(pairs) == json.dumps(expected)

    @pytest.mark.parametrize("n", [1, 12, 13, 15])
    def test_json_chunks_are_one_json_dumps_of_the_dict(self, n):
        # 2, exactly _SLICE_ROWS, two and eight slices of rows at R = 4096
        amps = random_state(n, n).amplitudes.copy()
        amps[-1] = complex(-0.0, amps[-1].imag)
        state = StateVector(n, amps)
        chunks = list(state_json_chunks(state))
        assert "".join(chunks) == json.dumps(state_to_dict(state))
        assert "-0.0" in chunks[-2]
        # a row prints in under 60 characters
        assert max(map(len, chunks)) < 60 * statevector_module._SLICE_ROWS

    def test_json_round_trip_is_exact(self):
        state = random_state(4, 99)
        back = json_round_trip(state)
        assert back.n_qubits == 4
        np.testing.assert_array_equal(back.amplitudes, state.amplitudes)

    def test_awkward_floats_round_trip(self):
        amps = np.array([1 / 3, -1e-17, 0.1 + 0.2j, math.sqrt(2) / 2], dtype=np.complex128)
        state = StateVector(2, amps / np.linalg.norm(amps))
        back = json_round_trip(state)
        np.testing.assert_array_equal(back.amplitudes, state.amplitudes)

    def test_rejects_malformed_documents(self):
        for text in (
            '{"amplitudes": [[1.0, 0.0]]}',
            '{"n_qubits": "two", "amplitudes": [[1, 0], [0, 0]]}',
            '{"n_qubits": true, "amplitudes": [[1, 0], [0, 0]]}',
            '{"n_qubits": 1, "amplitudes": [[true, 0], [0, 0]]}',
            '{"n_qubits": 1, "amplitudes": [[1, 0], [0, false]]}',
        ):
            with pytest.raises(ValueError):
                state_from_dict(json.loads(text))


class TestRandomState:
    def test_normalized_and_reproducible(self):
        first = random_state(3, 42)
        second = random_state(3, 42)
        assert first.norm() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(first.amplitudes, second.amplitudes)

    def test_different_seeds_differ(self):
        assert not np.allclose(random_state(3, 1).amplitudes, random_state(3, 2).amplitudes)
