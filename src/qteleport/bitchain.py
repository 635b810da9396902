"""Fixed-width bit chains and the AND-parity sign function.

A chain labels a computational basis state: bit 1 is the most significant,
so a chain's integer value reads big-endian, and the explicit width keeps
leading zeros representable.  ``iverson_delta`` is the parity of the AND of
two chains; ``(-1)`` raised to it is the sign attached to basis label ``k``
when the Hadamard transform acts on basis label ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitChain:
    """``width`` bits encoding ``value``; bit 1 is the most significant."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    @classmethod
    def from_string(cls, text: str) -> BitChain:
        """Parse an ASCII chain such as ``"0101"``."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(len(text), int(text, 2))

    def bit(self, position: int) -> int:
        """Bit at 1-based ``position``, counted from the most significant."""
        if not 1 <= position <= self.width:
            raise ValueError(f"bit position {position} outside 1..{self.width}")
        return (self.value >> (self.width - position)) & 1

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")


def iverson_delta(i: BitChain, k: BitChain) -> int:
    """Parity of the 1-bits of ``i AND k`` (0 or 1)."""
    if i.width != k.width:
        raise ValueError(f"iverson_delta needs equal widths, got {i.width} and {k.width}")
    return (i.value & k.value).bit_count() & 1


def append_bit(a: BitChain, bit: int) -> BitChain:
    """Extend a chain by one bit on its least-significant end."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return BitChain(a.width + 1, (a.value << 1) | bit)
