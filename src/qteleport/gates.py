"""The Hadamard layer, the CNOT layer, and measured-bit Pauli products.

Each layer kernel applies a set of commuting gates in one call: a CNOT
layer is a list of (control, target) pairs on distinct qubits, applied as
one permutation of the amplitudes, whose slice plan is built once per
register size and pair list and then reused; a Hadamard layer is one real
butterfly per qubit, (a, b) -> ((a + b)/sqrt(2), (a - b)/sqrt(2)) on the
float64 view of the amplitudes, run block by block.  It makes no BLAS call,
so its bytes do not depend on the BLAS build.  The Pauli products that
correct the receiver's state are one signed permutation of the amplitudes.

Each layer kernel has one in-place body.  Given a working state (a writable
array, which only the runner makes), it overwrites that array and returns a
working state over it; given a frozen state, it copies the array once, runs
the same body on the copy and returns a fresh frozen state, so a frozen
input is never written.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bitchain import BitChain
from .statevector import StateVector

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# float64 values per Hadamard block half: 2^15 of them are 256 KiB, the
# one buffer that holds a block's differences while its sums go in place
_BLOCK_FLOATS = 1 << 15


def apply_cnot(state: StateVector, pairs: Iterable[tuple[int, int]]) -> StateVector:
    """Apply a layer of commuting CNOTs, each ``(control, target)`` pair 1-based.

    No qubit may appear twice across the pairs, so the gates commute and
    the layer is one permutation of the amplitudes.  An empty layer
    returns ``state`` itself.  The layer runs in place, on a working
    state's own array or on a copy of a frozen one (see the module note).
    """
    n = state.n_qubits
    pairs = tuple((control, target) for control, target in pairs)
    plan = _cnot_plan(n, pairs)
    if not pairs:
        return state
    amps, fresh = _writable(state)
    register = amps.reshape((2,) * n)
    # each pattern of control bits permutes its own slice, so one pattern's
    # write never clobbers another's read; within a slice, numpy buffers a
    # read that overlaps its write
    for write, read in plan:
        register[write] = register[read]
    return StateVector._owned(n, amps, frozen=fresh)


@functools.lru_cache(maxsize=64)
def _cnot_plan(n: int, pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[tuple, tuple], ...]:
    """Validate a CNOT layer on n qubits and return its ``(write, read)`` index
    pairs, one slice copy per pattern of control bits but the all-zero one,
    which is the identity.

    Where a control is 1 its target axis is read reversed, which swaps the
    target-0 and -1 halves.  A bad layer raises every time; only valid
    layers are cached.
    """
    seen: set[int] = set()
    for control, target in pairs:
        for q in (control, target):
            if not 1 <= q <= n:
                raise ValueError(f"qubit {q} outside 1..{n}")
            if q in seen:
                raise ValueError(f"qubit {q} appears twice in the CNOT layer")
            seen.add(q)
    plan = []
    for bits in itertools.islice(itertools.product((0, 1), repeat=len(pairs)), 1, None):
        write, read = [slice(None)] * n, [slice(None)] * n
        for (control, target), bit in zip(pairs, bits):
            write[control - 1] = read[control - 1] = bit
            if bit:
                read[target - 1] = slice(None, None, -1)
        plan.append((tuple(write), tuple(read)))
    return tuple(plan)


def hadamard_layer(state: StateVector, qubits: Iterable[int]) -> StateVector:
    """Apply a Hadamard to each listed qubit (1-based; they commute on distinct qubits).

    An empty layer returns ``state`` itself.  The layer runs in place, on a
    working state's own array or on a copy of a frozen one (see the module
    note).  Each H on qubit q maps a float64 value a where q is 0 and its
    partner b where q is 1 to ((a + b)/sqrt(2), (a - b)/sqrt(2)); H is real,
    so real and imaginary parts transform alike.  The pairs go in blocks of
    at most ``_BLOCK_FLOATS`` per half, whose differences go through one
    small buffer.
    """
    n = state.n_qubits
    qubits = list(qubits)
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"target qubit {q} outside 1..{n}")
    if not qubits:
        return state
    amps, fresh = _writable(state)
    buffer = np.empty(_BLOCK_FLOATS)
    for q in qubits:
        halves = amps.view(np.float64).reshape(1 << (q - 1), 2, -1)
        width = halves.shape[2]
        cols = min(width, _BLOCK_FLOATS)
        step = _BLOCK_FLOATS // cols
        for r in range(0, len(halves), step):
            for c in range(0, width, cols):
                a = halves[r : r + step, 0, c : c + cols]
                b = halves[r : r + step, 1, c : c + cols]
                diff = buffer[: a.size].reshape(a.shape)
                np.subtract(a, b, out=diff)
                a += b
                a *= _SQRT_HALF
                np.multiply(diff, _SQRT_HALF, out=b)
    return StateVector._owned(n, amps, frozen=fresh)


def _writable(state: StateVector) -> tuple[np.ndarray, bool]:
    """The array a layer kernel writes in place, and whether it is a fresh
    copy: a working state's own array, or a copy of a frozen state's."""
    amps = state.amplitudes
    if amps.flags.writeable:
        return amps, False
    return np.copy(amps), True


@dataclass(frozen=True)
class PauliCorrection:
    """Exponent bits for products of X and Z over an n-qubit register.

    Bit m of each chain is the exponent on the gate acting on qubit m
    (M^0 = I, M^1 = M).
    """

    n: int
    x_exponents: BitChain
    z_exponents: BitChain

    def __post_init__(self) -> None:
        if self.x_exponents.width != self.n or self.z_exponents.width != self.n:
            raise ValueError(
                f"exponent widths ({self.x_exponents.width}, {self.z_exponents.width}) "
                f"must equal n={self.n}"
            )


def apply_pauli_correction(state: StateVector, corr: PauliCorrection) -> StateVector:
    """Apply (X products)(Z products) to an n-qubit state, n = ``corr.n``.

    The Z-exponent factors act first, then the X factors; qubit m carries
    the m-th exponent bit of each chain.  Label b receives
    (-1)^parity((b XOR x) AND z) times the amplitude at b XOR x.
    """
    return _signed_permutation(state, corr, sign_on_source=True)


def apply_pauli_correction_inverse(state: StateVector, corr: PauliCorrection) -> StateVector:
    """Exact inverse of :func:`apply_pauli_correction`: X factors first, then Z.

    Composing the forward operator with this one is the identity including
    sign, not merely up to a global phase.  Label b receives
    (-1)^parity(b AND z) times the amplitude at b XOR x.
    """
    return _signed_permutation(state, corr, sign_on_source=False)


def _signed_permutation(
    state: StateVector, corr: PauliCorrection, *, sign_on_source: bool
) -> StateVector:
    """Both Pauli products: a sign-flipped permutation of the state's labels."""
    if corr.n != state.n_qubits:
        raise ValueError(
            f"correction on {corr.n} qubits does not fit a {state.n_qubits}-qubit state"
        )
    z = corr.z_exponents.value
    source = np.arange(1 << corr.n) ^ corr.x_exponents.value
    signed = source if sign_on_source else range(1 << corr.n)
    negate = np.array([(int(v) & z).bit_count() & 1 for v in signed], dtype=bool)
    moved = state.amplitudes[source]
    # adding 0.0 turns -0.0 into 0.0, so exact zeros print unsigned
    return StateVector._owned(state.n_qubits, np.where(negate, -moved, moved) + 0.0)
