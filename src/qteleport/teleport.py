"""End-to-end teleportation of an n-qubit state.

Register layout, big-endian: qubits 1..n hold the payload, n+1..2n the
sender's ancillas, 2n+1..3n the receiver's.  The circuit is one table,
:func:`circuit_schedule`: the Bell pairs' H and CNOT layers on the
ancillas, the sender's CNOT layer (qubit m controls qubit n+m) and Hadamard
layer (qubits 1..n), then the measurement of the first 2n qubits and the
receiver's correction.  One runner executes the table's leading gate layers
for :func:`teleport` and :func:`replay_schedule`, one kernel call per
layer: the Bell layers on the 2n-qubit ancilla register, the sender's in
place in one working register that starts as the payload tensor Bell state.
The trace's states are published frozen; the post-CNOT state is not kept.

Reshaped to (4^n, 2^n), the pre-measurement state's row r is the
receiver's unnormalized state for outcome r, so the measurement hands the
receiver that row, renormalized.
Of the 2n measured bits, the first n select Z exponents and the last n
select X exponents; the receiver applies the exact inverse of that Pauli
product to their n-qubit state, so the corrected state equals the payload
amplitude by amplitude, not just up to phase.

The measurement arguments (a forced outcome of width 2n, or a seed, from
which the generator is built) are checked before any gate runs.  The runner
checks the payload's norm, and every stage re-checks normalization (drift
beyond 1e-8 raises) so a buggy gate surfaces immediately instead of being
hidden by renormalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bitchain import BitChain
from .gates import (
    PauliCorrection,
    apply_cnot,
    apply_pauli_correction_inverse,
    hadamard_layer,
)
from .statevector import (
    MeasurementOutcome,
    StateVector,
    basis_state,
    fidelity,
    measure_subset,
    project_onto_outcome,
    state_json_chunks,
    _working_tensor,
)

@dataclass(frozen=True)
class TeleportTrace:
    """Full record of one protocol run; every field is serialized.

    The post-CNOT state is not kept: the run overwrites its register in the
    Hadamard layer.  ``replay_schedule(circuit_schedule(n)[:3], psi)``
    runs the first three layers by the same route and reproduces it bit for
    bit.
    """

    n: int
    input_state: StateVector
    bell_state: StateVector
    pre_measurement_state: StateVector
    outcome: MeasurementOutcome
    bob_pre_correction: StateVector
    bob_post_correction: StateVector
    fidelity_to_input: float


def correction_for_outcome(outcome: BitChain) -> PauliCorrection:
    """Split 2n measured bits into exponents: first half Z, second half X."""
    if outcome.width % 2 != 0:
        raise ValueError(f"outcome width {outcome.width} is not 2n for any n")
    n = outcome.width // 2
    z_bits = BitChain(n, outcome.value >> n)
    x_bits = BitChain(n, outcome.value & ((1 << n) - 1))
    return PauliCorrection(n=n, x_exponents=x_bits, z_exponents=z_bits)


def teleport(
    psi: StateVector,
    seed: int | None = None,
    *,
    force_outcome: BitChain | None = None,
) -> TeleportTrace:
    """Run the full protocol on ``psi``.

    With ``seed`` the sender's measurement is sampled reproducibly; with
    ``force_outcome`` that outcome is imposed instead (its reported
    probability is still the true Born value), which lets callers sweep all
    4^n branches.
    """
    n = psi.n_qubits
    if force_outcome is None:
        if seed is None:
            raise ValueError("teleport needs a seed unless force_outcome is given")
        rng = np.random.default_rng(seed)
    elif force_outcome.width != 2 * n:
        raise ValueError(f"forced outcome width {force_outcome.width} != {2 * n} measured qubits")
    bell, pre_measurement = _run_schedule(psi, circuit_schedule(n)[:4])
    if force_outcome is not None:
        outcome, bob_pre = project_onto_outcome(pre_measurement, force_outcome)
    else:
        outcome, bob_pre = measure_subset(pre_measurement, 2 * n, rng)

    bob_post = apply_pauli_correction_inverse(bob_pre, correction_for_outcome(outcome.bits))
    bob_post.require_normalized(context="corrected receiver state")
    return TeleportTrace(
        n=n,
        input_state=psi,
        bell_state=bell,
        pre_measurement_state=pre_measurement,
        outcome=outcome,
        bob_pre_correction=bob_pre,
        bob_post_correction=bob_post,
        fidelity_to_input=fidelity(psi, bob_post),
    )


def circuit_schedule(n: int) -> list[tuple[str, tuple[tuple[int, ...], ...]]]:
    """The protocol on 3n qubits as six ``(kind, gates)`` entries in causal
    order: the Bell pairs' "H" layer ``(n+m,)`` and "CNOT" layer
    ``(n+m, 2n+m)`` on the ancillas, the sender's "CNOT" layer ``(m, n+m)``
    and "H" layer ``(m,)`` for m = 1..n, then the "M" span ``(1, 2n)`` of
    measured qubits and the "CORRECT" span ``(2n+1, 3n)`` of the receiver
    block awaiting the measured-bit-keyed Pauli product."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    payload = range(1, n + 1)
    return [
        ("H", tuple((n + m,) for m in payload)),
        ("CNOT", tuple((n + m, 2 * n + m) for m in payload)),
        ("CNOT", tuple((m, n + m) for m in payload)),
        ("H", tuple((m,) for m in payload)),
        ("M", ((1, 2 * n),)),
        ("CORRECT", ((2 * n + 1, 3 * n),)),
    ]


def render_schedule(layers: list) -> str:
    """Text form of ``(kind, gates)`` entries, one gate per line: ``H q3``,
    ``CNOT q1 q4``, ``M q1..q6``; the correction span becomes a trailing
    comment naming the operator family."""
    lines = []
    for kind, gates in layers:
        for qubits in gates:
            match kind, qubits:
                case "H", (q,):
                    lines.append(f"H q{q}")
                case "CNOT", (control, target):
                    lines.append(f"CNOT q{control} q{target}")
                case "M", (first, last):
                    lines.append(f"M q{first}..q{last}")
                case "CORRECT", (first, last):
                    lines.append(
                        f"# correct q{first}..q{last}: inverse (X products)(Z products) "
                        "keyed by the measured bits"
                    )
                case _:
                    raise ValueError(f"cannot render {kind!r} on {qubits}")
    return "\n".join(lines) + "\n"


def replay_schedule(layers: list, psi: StateVector) -> StateVector:
    """Run ``layers``, a leading slice of ``circuit_schedule(n)``, on ``psi``
    plus zeroed ancillas by :func:`teleport`'s route: ``[:4]`` or more gives
    the run's pre-measurement state bit for bit, ``[:3]`` its post-CNOT
    state.  Any other list raises :class:`ValueError` before a gate runs."""
    n = psi.n_qubits
    if layers != circuit_schedule(n)[: len(layers)]:
        raise ValueError(f"{len(layers)} entries are not a leading slice of circuit_schedule({n})")
    return _run_schedule(psi, layers[:4])[1]


def trace_json_chunks(trace: TeleportTrace) -> Iterator[str]:
    """The run's JSON document, in chunks that join to the whole: a header,
    then each state in chunks from :func:`state_json_chunks`, so no chunk
    holds more than one slice of a state's amplitudes.

    Every number goes through :func:`json.dumps`, so the joined chunks are
    the bytes ``json.dumps`` gives for the whole document as one dict."""
    header = {
        "n": trace.n,
        "outcome": str(trace.outcome.bits),
        "probability": trace.outcome.probability,
        "fidelity": trace.fidelity_to_input,
    }
    yield json.dumps(header)[:-1] + ', "states": {'
    states = {
        "input": trace.input_state,
        "bell": trace.bell_state,
        "pre_measurement": trace.pre_measurement_state,
        "bob_pre_correction": trace.bob_pre_correction,
        "bob_post_correction": trace.bob_post_correction,
    }
    for i, (name, state) in enumerate(states.items()):
        yield f'{", " if i else ""}"{name}": '
        yield from state_json_chunks(state)
    yield "}}"


def trace_to_json(trace: TeleportTrace) -> str:
    """The run's JSON document as one string; see :func:`trace_json_chunks`."""
    return "".join(trace_json_chunks(trace))


def _run_schedule(psi: StateVector, layers: list) -> tuple[StateVector, StateVector]:
    """Run a leading slice of :func:`circuit_schedule`'s four gate layers on
    ``psi`` plus 2n zeroed ancillas; return the ancilla state and the final
    state, published.  The Bell layers run on the ancilla register (its qubit
    q is circuit qubit n + q), the rest in place."""
    n = psi.n_qubits
    psi.require_normalized(context="input state")
    bell = basis_state(BitChain(2 * n, 0))
    for kind, gates in layers[:2]:
        bell = _run_layer(bell, kind, [tuple(q - n for q in gate) for gate in gates])
    bell.require_normalized(context="entangled ancilla state")
    state = _working_tensor(psi, bell)
    for (kind, gates), context in zip(layers[2:], ("post-CNOT state", "pre-measurement state")):
        state = _run_layer(state, kind, gates)
        state.require_normalized(context=context)
    return bell, state._publish()


def _run_layer(state: StateVector, kind: str, gates) -> StateVector:
    """One layer, one kernel call: in place on a working state, not on a frozen one."""
    return hadamard_layer(state, [q for (q,) in gates]) if kind == "H" else apply_cnot(state, gates)
