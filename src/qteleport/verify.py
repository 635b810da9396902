"""Closed-form oracles for each protocol stage and the protocol checker.

The oracles here are built by direct index arithmetic — no gate matrices —
so they share no code path with the simulator and a shared bug cannot mask
itself.  ``verify_protocol`` drives both routes over basis and random inputs
(exhaustively for n <= EXHAUSTIVE_MAX_N) and reports per-stage maximum
amplitude deviations, as JSON or as text; equality is literal, including
signs, with no global-phase alignment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitchain import BitChain
from .statevector import StateVector, basis_state, random_state
from .gates import hadamard_layer
from .teleport import circuit_schedule, replay_schedule, teleport

PASS_TOLERANCE = 1e-10
EXHAUSTIVE_MAX_N = 3
# the largest n the verify command accepts; above EXHAUSTIVE_MAX_N it samples
VERIFY_MAX_N = 5

# Transcribed two-qubit pre-measurement table: for each 4-bit outcome, the
# receiver-block coefficient of basis label b is sign * alpha[source], listed
# for b = 00, 01, 10, 11.  Kept literal, as (sign, source) pairs, so it checks
# the generating code instead of sharing it.
TWO_QUBIT_OUTCOME_TABLE: dict[str, tuple[tuple[int, int], ...]] = {
    "0000": ((+1, 0), (+1, 1), (+1, 2), (+1, 3)),
    "0001": ((+1, 1), (+1, 0), (+1, 3), (+1, 2)),
    "0010": ((+1, 2), (+1, 3), (+1, 0), (+1, 1)),
    "0011": ((+1, 3), (+1, 2), (+1, 1), (+1, 0)),
    "0100": ((+1, 0), (-1, 1), (+1, 2), (-1, 3)),
    "0101": ((-1, 1), (+1, 0), (-1, 3), (+1, 2)),
    "0110": ((+1, 2), (-1, 3), (+1, 0), (-1, 1)),
    "0111": ((-1, 3), (+1, 2), (-1, 1), (+1, 0)),
    "1000": ((+1, 0), (+1, 1), (-1, 2), (-1, 3)),
    "1001": ((+1, 1), (+1, 0), (-1, 3), (-1, 2)),
    "1010": ((-1, 2), (-1, 3), (+1, 0), (+1, 1)),
    "1011": ((-1, 3), (-1, 2), (+1, 1), (+1, 0)),
    "1100": ((+1, 0), (-1, 1), (-1, 2), (+1, 3)),
    "1101": ((-1, 1), (+1, 0), (+1, 3), (-1, 2)),
    "1110": ((-1, 2), (+1, 3), (+1, 0), (-1, 1)),
    "1111": ((+1, 3), (-1, 2), (-1, 1), (+1, 0)),
}


def bell_closed_form(n: int) -> StateVector:
    """Matched-halves superposition on 2n qubits: amplitude 2^(-n/2) on every
    label whose first and second halves agree, 0 elsewhere."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    amps = np.zeros(1 << (2 * n), dtype=np.complex128)
    j = np.arange(1 << n)
    amps[(j << n) | j] = 1.0 / math.sqrt(2.0**n)
    return StateVector(2 * n, amps)


def hadamard_closed_form(i: BitChain) -> StateVector:
    """The Hadamard transform of basis state ``|i>``, built without matrices.

    Every label k receives amplitude (-1)^delta(i, k) / sqrt(2^n) where
    delta is the AND-parity of the two labels.
    """
    n = i.width
    scale = 1.0 / math.sqrt(2.0**n)
    return StateVector(n, np.where(_and_parity(i.value, np.arange(1 << n)), -scale, scale))


def post_cnot_closed_form(alpha: Sequence[complex] | np.ndarray, n: int) -> StateVector:
    """3n-qubit state after the sender's CNOT layer: amplitude
    alpha[i] / sqrt(2^n) at index (i, j XOR i, j) for every i, j."""
    a = _as_alpha(alpha, n)
    amps = np.zeros(1 << (3 * n), dtype=np.complex128)
    scale = 1.0 / math.sqrt(2.0**n)
    i, j = np.ogrid[: 1 << n, : 1 << n]
    amps[(i << (2 * n)) | ((j ^ i) << n) | j] = a[i] * scale
    return StateVector(3 * n, amps)


def pre_measurement_closed_form(alpha: Sequence[complex] | np.ndarray, n: int) -> StateVector:
    """3n-qubit state after the sender's Hadamard layer.

    Index (k, j XOR i, j) holds (-1)^parity(i AND k) * alpha[i] / 2^n.  Each
    index (k, m, j) gets exactly one contribution, from i = m XOR j.
    """
    a = _as_alpha(alpha, n)
    amps = np.zeros(1 << (3 * n), dtype=np.complex128)
    scale = 1.0 / (2.0**n)
    i, k, j = np.ogrid[: 1 << n, : 1 << n, : 1 << n]
    sign = np.where(_and_parity(i, k), -1.0, 1.0)
    contribution = sign * a[i] * scale
    # adding into zeros stores an exact zero as +0.0, whatever its sign
    amps[(k << (2 * n)) | ((j ^ i) << n) | j] += contribution
    return StateVector(3 * n, amps)


def outcome_branches(alpha: Sequence[complex] | np.ndarray, n: int) -> np.ndarray:
    """Outcome-indexed decomposition of the pre-measurement state, as a
    (4^n, 2^n) array whose row a is the receiver branch for outcome value a.

    For outcome bits a (first half z, second half x) the receiver branch is
    branch[b] = (-1)^parity((b XOR x) AND z) * alpha[b XOR x] / 2^n — the
    forward Pauli product times the input, scaled by the common prefactor.
    Branches therefore have squared norm 4^(-n), not 1.
    """
    a = _as_alpha(alpha, n)
    scale = 1.0 / (2.0**n)
    dim = 1 << n
    out, b = np.ogrid[: 1 << (2 * n), :dim]
    source = b ^ (out & (dim - 1))
    sign = np.where(_and_parity(source, out >> n), -1.0, 1.0)
    return sign * a[source] * scale


def reassemble_from_branches(branches: np.ndarray, n: int) -> StateVector:
    """Stack |outcome> tensor branch over all outcomes back into the full
    3n-qubit state; equality with the pre-measurement closed form is the
    identity the whole module exists to check.

    ``branches`` is the (4^n, 2^n) array of :func:`outcome_branches`, row a
    for outcome value a, so the stack is its rows in order.
    """
    rows = np.asarray(branches)
    if rows.shape != (1 << (2 * n), 1 << n):
        raise ValueError(
            f"expected a ({1 << (2 * n)}, {1 << n}) branch array for n={n}, got shape {rows.shape}"
        )
    return StateVector(3 * n, rows.reshape(-1))


def two_qubit_table_state(alpha: Sequence[complex] | np.ndarray) -> StateVector:
    """Assemble the 6-qubit pre-measurement state from the literal
    sixteen-row table (two teleported qubits only)."""
    a = _as_alpha(alpha, 2)
    amps = np.zeros(1 << 6, dtype=np.complex128)
    for outcome_text, row in TWO_QUBIT_OUTCOME_TABLE.items():
        out = int(outcome_text, 2)
        for b, (sign, source) in enumerate(row):
            amps[(out << 2) | b] = sign * a[source] / 4.0
    return StateVector(6, amps)


@dataclass(frozen=True)
class StageCheck:
    """Aggregate result of one comparison family."""

    name: str
    cases: int
    max_deviation: float


@dataclass(frozen=True)
class VerificationReport:
    n: int
    stages_checked: tuple[StageCheck, ...]
    branches_checked: int
    max_branch_deviation: float
    passed: bool


def verify_protocol(n: int, seed: int = 0) -> VerificationReport:
    """Cross-check the gate pipeline against every closed form.

    For n <= EXHAUSTIVE_MAX_N: every basis input, 20 random inputs and all
    4^n forced outcomes.  Above it: 4 sampled basis inputs, 5 random inputs
    and 32 sampled outcomes.  Failures are reported, never raised.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    exhaustive = n <= EXHAUSTIVE_MAX_N
    dim = 1 << n

    transform_dev = 0.0
    for v in range(dim):
        label = BitChain(n, v)
        transform_dev = max(
            transform_dev,
            _dev(hadamard_layer(basis_state(label), range(1, n + 1)), hadamard_closed_form(label)),
        )

    if exhaustive:
        basis_values = list(range(dim))
    else:
        basis_values = sorted(rng.choice(dim, size=min(4, dim), replace=False).tolist())
    alphas = [_unit_alpha(dim, v) for v in basis_values]
    alphas += [random_state(n, rng).amplitudes for _ in range(20 if exhaustive else 5)]
    if exhaustive:
        outcome_values = list(range(1 << (2 * n)))
    else:
        outcome_values = sorted(
            rng.choice(1 << (2 * n), size=min(32, 1 << (2 * n)), replace=False).tolist()
        )

    bell_oracle = bell_closed_form(n)
    through_cnot_layer = circuit_schedule(n)[: 3 * n]
    bell_dev = cnot_dev = layer_dev = reassembly_dev = fixture_dev = 0.0
    uniform_probability = 4.0 ** (-n)
    branches_checked = 0
    branch_dev = 0.0
    for a in alphas:
        psi = StateVector(n, a)
        branches = outcome_branches(a, n)
        for out in outcome_values:
            bits = BitChain(2 * n, out)
            trace = teleport(psi, force_outcome=bits)
            predicted = branches[out] * (2.0**n)  # normalized branch
            branch_dev = max(
                branch_dev,
                float(np.max(np.abs(trace.bob_pre_correction.amplitudes - predicted))),
                float(np.max(np.abs(trace.bob_post_correction.amplitudes - a))),
                abs(trace.outcome.probability - uniform_probability),
            )
            branches_checked += 1
        # The stages before measurement do not depend on the forced outcome,
        # so the last run's states are the ones the pipeline produced for psi.
        # The trace keeps no post-CNOT state; the same runner replays the
        # schedule up to the end of the CNOT layer instead.
        bell_dev = max(bell_dev, _dev(trace.bell_state, bell_oracle))
        post_cnot = replay_schedule(through_cnot_layer, psi)
        cnot_dev = max(cnot_dev, _dev(post_cnot, post_cnot_closed_form(a, n)))
        pre_gate = trace.pre_measurement_state
        pre_oracle = pre_measurement_closed_form(a, n)
        layer_dev = max(layer_dev, _dev(pre_gate, pre_oracle))
        reassembled = reassemble_from_branches(branches, n)
        reassembly_dev = max(reassembly_dev, _dev(reassembled, pre_oracle))
        if n == 2:
            table = two_qubit_table_state(a)
            fixture_dev = max(fixture_dev, _dev(table, pre_oracle), _dev(table, pre_gate))

    stages = [
        StageCheck("bell_preparation", 1, bell_dev),
        StageCheck("hadamard_transform", dim, transform_dev),
        StageCheck("cnot_layer", len(alphas), cnot_dev),
        StageCheck("hadamard_layer", len(alphas), layer_dev),
        StageCheck("branch_reassembly", len(alphas), reassembly_dev),
    ]
    if n == 2:
        stages.append(StageCheck("sixteen_row_fixture", len(TWO_QUBIT_OUTCOME_TABLE), fixture_dev))

    passed = branch_dev < PASS_TOLERANCE and all(
        s.max_deviation < PASS_TOLERANCE for s in stages
    )
    return VerificationReport(
        n=n,
        stages_checked=tuple(stages),
        branches_checked=branches_checked,
        max_branch_deviation=branch_dev,
        passed=passed,
    )


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "n": report.n,
        "stages_checked": [
            {"name": s.name, "cases": s.cases, "max_deviation": s.max_deviation}
            for s in report.stages_checked
        ],
        "branches_checked": report.branches_checked,
        "max_branch_deviation": report.max_branch_deviation,
        "passed": report.passed,
    }


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report))


def report_to_text(report: VerificationReport) -> str:
    mode = "exhaustive" if report.n <= EXHAUSTIVE_MAX_N else "sampled"
    lines = [f"protocol verification: n={report.n} ({mode})"]
    for stage in report.stages_checked:
        verdict = "PASS" if stage.max_deviation < PASS_TOLERANCE else "FAIL"
        if stage.name == "sixteen_row_fixture":
            done = stage.cases if verdict == "PASS" else 0
            detail = f"fixture rows {done}/{stage.cases}"
        else:
            detail = f"{stage.cases} case(s)"
        lines.append(
            f"  {verdict}  {stage.name:<20} {detail:<22} max deviation {stage.max_deviation:.3e}"
        )
    branch_verdict = "PASS" if report.max_branch_deviation < PASS_TOLERANCE else "FAIL"
    branch_detail = f"{report.branches_checked} checked"
    lines.append(
        f"  {branch_verdict}  {'outcome_branches':<20} {branch_detail:<22} "
        f"max deviation {report.max_branch_deviation:.3e}"
    )
    lines.append("overall: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def _dev(a: StateVector, b: StateVector) -> float:
    """Maximum absolute amplitude difference; no global-phase alignment."""
    return float(np.max(np.abs(a.amplitudes - b.amplitudes)))


def _and_parity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parity of the 1-bits of ``a AND b``, elementwise over non-negative ints."""
    v = a & b
    shift = 1
    while shift < 64:
        v = v ^ (v >> shift)
        shift <<= 1
    return v & 1


def _unit_alpha(dim: int, index: int) -> np.ndarray:
    a = np.zeros(dim, dtype=np.complex128)
    a[index] = 1.0
    return a


def _as_alpha(alpha: Sequence[complex] | np.ndarray, n: int) -> np.ndarray:
    a = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if a.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} input amplitudes for n={n}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("input amplitudes must be finite")
    drift = abs(float(np.linalg.norm(a)) - 1.0)
    if drift > 1e-8:
        raise ValueError(f"input amplitudes are not normalized (drift {drift:.3e})")
    return a
