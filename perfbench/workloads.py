"""The benchmark's workloads: the CLI arguments of one op and the check of its output.

Each op is one call of ``qteleport.cli.main(argv)``.  The checks are
stricter than the CLI's own exit code, which gates only on phase-blind
fidelity: the JSON trace is compared to the input amplitude by amplitude,
with no global-phase alignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

TOLERANCE = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    args: tuple[str, ...]
    check: Callable[[str, int], str | None]  # (output text, n) -> problem or None
    why: str

    def argv(self, seed: int, out: str) -> list[str]:
        return [*self.args, "--seed", str(seed), "--out", out]

    @property
    def working_set_bytes(self) -> int:
        """Amplitude bytes of the 3n-qubit register, computed as 2^(3n) * 16."""
        return 16 << (3 * self.n)


def _check_outcome(n: int, outcome: str, probability: float, fidelity: float) -> str | None:
    if len(outcome) != 2 * n or set(outcome) - {"0", "1"}:
        return f"outcome {outcome!r} is not {2 * n} bits"
    if abs(probability - 4.0**-n) > TOLERANCE:
        return f"probability {probability!r} is not 4^-{n}"
    if abs(fidelity - 1.0) > TOLERANCE:
        return f"fidelity {fidelity!r} is not 1"
    return None


def check_teleport_text(text: str, n: int) -> str | None:
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    if int(fields["n"]) != n:
        return f"n is {fields['n']}, expected {n}"
    return _check_outcome(
        n, fields["outcome"], float(fields["probability"]), float(fields["fidelity"])
    )


def check_teleport_json(text: str, n: int) -> str | None:
    trace = json.loads(text)
    if trace["n"] != n:
        return f"n is {trace['n']}, expected {n}"
    problem = _check_outcome(n, trace["outcome"], trace["probability"], trace["fidelity"])
    if problem:
        return problem
    source = trace["states"]["input"]["amplitudes"]
    received = trace["states"]["bob_post_correction"]["amplitudes"]
    if len(source) != 1 << n or len(received) != len(source):
        return f"expected {1 << n} amplitudes, got {len(source)} and {len(received)}"
    deviation = max(abs(complex(*a) - complex(*b)) for a, b in zip(source, received))
    if deviation > TOLERANCE:
        return f"corrected receiver state deviates from the input by {deviation!r}"
    return None


def verify_check(branches: int) -> Callable[[str, int], str | None]:
    def check(text: str, n: int) -> str | None:
        report = json.loads(text)
        if report["n"] != n:
            return f"n is {report['n']}, expected {n}"
        if report["passed"] is not True:
            return "verification report did not pass"
        if report["branches_checked"] != branches:
            return f"{report['branches_checked']} branches checked, expected {branches}"
        return None

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "teleport_n7_text",
            7,
            ("teleport", "--n", "7", "--state", "random", "--format", "text"),
            check_teleport_text,
            "21-qubit register at the default cap: bulk CNOT, Hadamard and measurement kernels, no serialization",
        ),
        Workload(
            "trace_json_n6",
            6,
            ("teleport", "--n", "6", "--format", "json"),
            check_teleport_json,
            "12.8 MB JSON trace per op: float formatting and file write dominate, kernels are small",
        ),
        Workload(
            "verify_n5",
            5,
            ("verify", "--n", "5", "--format", "json"),
            verify_check(288),
            "sampled verify: the only workload where the closed-form oracles carry real weight; 288 forced-outcome teleports per op carry the per-call overhead",
        ),
    )
}


def check_output(workload: Workload, data: bytes) -> str | None:
    """The workload's check, with unreadable output reported as a problem."""
    try:
        return workload.check(data.decode("utf-8"), workload.n)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
