import pytest
from hypothesis import given
from hypothesis import strategies as st

from qteleport.bitchain import BitChain, append_bit, iverson_delta


def chains(max_width=16):
    return st.integers(1, max_width).flatmap(
        lambda w: st.builds(BitChain, st.just(w), st.integers(0, (1 << w) - 1))
    )


def all_chains(width):
    return [BitChain(width, v) for v in range(1 << width)]


class TestBitChain:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            BitChain(0, 0)

    def test_rejects_value_overflow(self):
        with pytest.raises(ValueError):
            BitChain(2, 4)
        with pytest.raises(ValueError):
            BitChain(3, -1)

    def test_string_round_trip(self):
        chain = BitChain(4, 5)
        assert str(chain) == "0101"
        assert BitChain.from_string("0101") == chain

    def test_from_string_rejects_junk(self):
        with pytest.raises(ValueError):
            BitChain.from_string("01x1")
        with pytest.raises(ValueError):
            BitChain.from_string("")

    def test_bit_positions(self):
        chain = BitChain(4, 0b1010)
        assert [chain.bit(p) for p in (1, 2, 3, 4)] == [1, 0, 1, 0]
        with pytest.raises(ValueError):
            chain.bit(0)
        with pytest.raises(ValueError):
            chain.bit(5)

    @given(chains())
    def test_bits_round_trip(self, chain):
        # reading every position back, most significant first, rebuilds the value
        value = 0
        for position in range(1, chain.width + 1):
            value = (value << 1) | chain.bit(position)
        assert BitChain(chain.width, value) == chain


class TestBitwiseOps:
    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            iverson_delta(BitChain(2, 1), BitChain(3, 1))


class TestParityAndDelta:
    def test_delta_sign_of_01_entry(self):
        # at input label 11, the 01 component carries sign (-1)^1
        assert iverson_delta(BitChain(2, 0b11), BitChain(2, 0b01)) == 1

    def test_delta_zero_left_arg(self):
        for width in range(1, 7):
            zero = BitChain(width, 0)
            assert all(iverson_delta(zero, k) == 0 for k in all_chains(width))

    def test_delta_11_11(self):
        # 11 AND 11 = 11 has two 1-bits
        assert iverson_delta(BitChain(2, 0b11), BitChain(2, 0b11)) == 0

    def test_delta_is_and_parity(self):
        for width in range(1, 5):
            for i in all_chains(width):
                for k in all_chains(width):
                    assert iverson_delta(i, k) == bin(i.value & k.value).count("1") % 2

    @pytest.mark.parametrize(
        "i_bit,k_bit,flips",
        [(1, 1, True), (1, 0, False), (0, 1, False), (0, 0, False)],
        ids=["both-ones", "one-zero", "zero-one", "both-zeros"],
    )
    def test_append_properties_exhaustive(self, i_bit, k_bit, flips):
        # appending a bit pair flips the sign only when both appended bits are 1
        for width in range(1, 9):
            for i in all_chains(width):
                for k in all_chains(width):
                    before = iverson_delta(i, k)
                    after = iverson_delta(append_bit(i, i_bit), append_bit(k, k_bit))
                    assert after == (before ^ 1 if flips else before)

    def test_symmetry_exhaustive(self):
        for width in range(1, 9):
            for i in all_chains(width):
                for k in all_chains(width):
                    assert iverson_delta(i, k) == iverson_delta(k, i)

    @given(st.data())
    def test_bilinearity_over_xor(self, data):
        width = data.draw(st.integers(1, 16))
        value = st.integers(0, (1 << width) - 1)
        i = BitChain(width, data.draw(value))
        j = BitChain(width, data.draw(value))
        k = BitChain(width, data.draw(value))
        i_xor_j = BitChain(width, i.value ^ j.value)
        assert iverson_delta(i_xor_j, k) == iverson_delta(i, k) ^ iverson_delta(j, k)

    def test_append_bit_validates(self):
        with pytest.raises(ValueError):
            append_bit(BitChain(1, 0), 2)
