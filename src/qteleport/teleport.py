"""End-to-end teleportation of an n-qubit state.

Register layout, big-endian: qubits 1..n hold the payload, n+1..2n the
sender's ancillas, 2n+1..3n the receiver's.  A run executes
:func:`circuit_schedule`: it entangles the 2n ancillas into a generalized
Bell state, applies the sender's CNOT layer (qubit m controls qubit n+m) and
Hadamard layer (qubits 1..n), and measures the first 2n qubits.  Each
layer of commuting gates is one kernel call.  Reshaped to (4^n, 2^n), the
pre-measurement state's row r is the receiver's unnormalized state for
outcome r, so the measurement hands the receiver that row, renormalized.
Of the 2n measured bits, the first n select Z exponents and the last n
select X exponents; the receiver applies the exact inverse of that Pauli
product to their n-qubit state, so the corrected state equals the payload
amplitude by amplitude, not just up to phase.

The measurement arguments (a seed, or a forced outcome of width 2n) are
checked before any gate runs.  Every stage re-checks normalization (drift
beyond 1e-8 raises) so a buggy gate surfaces immediately instead of being
hidden by renormalization.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable

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
    state_to_dict,
    tensor,
)


@dataclass(frozen=True)
class TeleportTrace:
    """Full record of one protocol run; only ``post_cnot_state`` is not serialized."""

    n: int
    input_state: StateVector
    bell_state: StateVector
    post_cnot_state: StateVector
    pre_measurement_state: StateVector
    outcome: MeasurementOutcome
    bob_pre_correction: StateVector
    bob_post_correction: StateVector
    fidelity_to_input: float


@dataclass(frozen=True)
class ScheduleOp:
    """One circuit operation.

    ``kind`` is "H" (qubits = (target,)), "CNOT" ((control, target)),
    "M" ((first, last) measured span) or "CORRECT" ((first, last) span of
    the receiver block awaiting the measured-bit-keyed Pauli product).
    """

    kind: str
    qubits: tuple[int, ...]


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
    psi.require_normalized(context="input state")
    if force_outcome is None and seed is None:
        raise ValueError("teleport needs a seed unless force_outcome is given")
    if force_outcome is not None and force_outcome.width != 2 * n:
        raise ValueError(f"forced outcome width {force_outcome.width} != {2 * n} measured qubits")
    ops = circuit_schedule(n)
    # The first 2n ops touch only the ancillas: the Bell pairs exist before
    # the payload joins, so they run on the 2n-qubit ancilla register.
    bell = _run_ops(basis_state(BitChain(2 * n, 0)), ops[: 2 * n], shift=n)
    bell.require_normalized(context="entangled ancilla state")
    post_cnot = _run_ops(tensor(psi, bell), ops[2 * n : 3 * n])
    post_cnot.require_normalized(context="post-CNOT state")
    pre_measurement = _run_ops(post_cnot, ops[3 * n : 4 * n])
    pre_measurement.require_normalized(context="pre-measurement state")

    first, last = ops[4 * n].qubits
    if force_outcome is not None:
        outcome, bob_pre = project_onto_outcome(pre_measurement, force_outcome)
    else:
        outcome, bob_pre = measure_subset(pre_measurement, last - first + 1, seed)

    bob_post = apply_pauli_correction_inverse(bob_pre, correction_for_outcome(outcome.bits))
    bob_post.require_normalized(context="corrected receiver state")
    return TeleportTrace(
        n=n,
        input_state=psi,
        bell_state=bell,
        post_cnot_state=post_cnot,
        pre_measurement_state=pre_measurement,
        outcome=outcome,
        bob_pre_correction=bob_pre,
        bob_post_correction=bob_post,
        fidelity_to_input=fidelity(psi, bob_post),
    )


def circuit_schedule(n: int) -> list[ScheduleOp]:
    """Gate schedule of the protocol on 3n qubits, in causal order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ops: list[ScheduleOp] = []
    ops += [ScheduleOp("H", (n + m,)) for m in range(1, n + 1)]
    ops += [ScheduleOp("CNOT", (n + m, 2 * n + m)) for m in range(1, n + 1)]
    ops += [ScheduleOp("CNOT", (m, n + m)) for m in range(1, n + 1)]
    ops += [ScheduleOp("H", (m,)) for m in range(1, n + 1)]
    ops.append(ScheduleOp("M", (1, 2 * n)))
    ops.append(ScheduleOp("CORRECT", (2 * n + 1, 3 * n)))
    return ops


def render_schedule(ops: list[ScheduleOp]) -> str:
    """Text form, one operation per line: ``H q3``, ``CNOT q1 q4``,
    ``M q1..q6``; the correction marker becomes a trailing comment naming
    the operator family."""
    lines = []
    for op in ops:
        match op.kind, op.qubits:
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
                raise ValueError(f"cannot render schedule op {op.kind!r} on {op.qubits}")
    return "\n".join(lines) + "\n"


def replay_schedule(ops: list[ScheduleOp], psi: StateVector) -> StateVector:
    """Re-run the gate part of a schedule on ``psi`` plus zeroed ancillas,
    stopping at the measurement marker; reproduces the pre-measurement state."""
    gates = itertools.takewhile(lambda op: op.kind != "M", ops)
    return _run_ops(tensor(psi, basis_state(BitChain(2 * psi.n_qubits, 0))), gates)


def trace_to_dict(trace: TeleportTrace) -> dict:
    """JSON-ready record of a run; states use the state-vector format."""
    return {
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


def trace_to_json(trace: TeleportTrace) -> str:
    return json.dumps(trace_to_dict(trace))


def _run_ops(state: StateVector, ops: Iterable[ScheduleOp], shift: int = 0) -> StateVector:
    """Apply H and CNOT schedule ops in order, numbering qubits ``shift``
    lower than the schedule does; the one place the protocol's gates run.
    Each layer is one kernel call: a run of consecutive H ops is one
    Hadamard layer, and a run of CNOT ops is one CNOT layer until a pair
    touches a qubit the layer already uses, which starts the next."""
    for kind, run in itertools.groupby(ops, key=lambda op: op.kind):
        if kind == "H":
            state = hadamard_layer(state, [q - shift for op in run for q in op.qubits])
        elif kind == "CNOT":
            layer: list[tuple[int, ...]] = []
            for op in run:
                pair = tuple(q - shift for q in op.qubits)
                if any(q in used for used in layer for q in pair):
                    state = apply_cnot(state, layer)
                    layer = []
                layer.append(pair)
            state = apply_cnot(state, layer)
        else:
            raise ValueError(f"cannot run schedule op {kind!r}")
    return state
