"""Interleaved ECC wrapper: layout, decoding, MBU dispersion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import (
    DecodeOutcome,
    ErrorClass,
    InterleavedCodec,
    ParityCodec,
    SecDedCodec,
)
from repro.errors import FaultInjectionError
from repro.faults.mbu import MbuDistribution


@pytest.fixture(scope="module")
def codec():
    return InterleavedCodec(SecDedCodec(64), ways=4)


def test_geometry(codec):
    assert codec.codeword_bits == 72 * 4
    assert codec.data_bits == 256


def test_interleave_roundtrip(codec):
    rng = random.Random(3)
    words = [rng.getrandbits(72) for _ in range(4)]
    assert codec.deinterleave(codec.interleave(words)) == words


def test_interleave_layout_adjacent_bits_differ_in_way(codec):
    # codeword 0 = all ones, others zero: physical bits 0, 4, 8, ...
    physical = codec.interleave([(1 << 72) - 1, 0, 0, 0])
    for bit in range(16):
        expected = 1 if bit % 4 == 0 else 0
        assert (physical >> bit) & 1 == expected


def test_encode_decode_group_clean(codec):
    rng = random.Random(9)
    words = [rng.getrandbits(64) for _ in range(4)]
    results = codec.decode_group(codec.encode_group(words))
    for word, result in zip(words, results):
        assert result.outcome is DecodeOutcome.CLEAN
        assert result.data == word


def test_wrong_group_size_rejected(codec):
    with pytest.raises(FaultInjectionError):
        codec.encode_group([1, 2, 3])
    with pytest.raises(FaultInjectionError):
        codec.classify_group([1, 2], 0)


def test_cluster_of_four_fully_corrected(codec):
    """A 4-bit contiguous cluster puts one flip in each codeword:
    every one is corrected (the whole point of interleaving)."""
    rng = random.Random(17)
    words = [rng.getrandbits(64) for _ in range(4)]
    physical = codec.encode_group(words)
    for start in range(0, codec.codeword_bits - 4, 7):
        corrupted = physical
        for offset in range(4):
            corrupted ^= 1 << (start + offset)
        assert codec.classify_group(words, corrupted) is ErrorClass.DRE


def test_cluster_of_eight_detected_not_silent(codec):
    """8 contiguous flips = 2 per codeword: all DUE, never SDC."""
    rng = random.Random(23)
    words = [rng.getrandbits(64) for _ in range(4)]
    physical = codec.encode_group(words)
    corrupted = physical
    for offset in range(8):
        corrupted ^= 1 << (40 + offset)
    assert codec.classify_group(words, corrupted) is ErrorClass.DUE


def test_non_interleaved_matches_base_codec():
    base = SecDedCodec(64)
    codec = InterleavedCodec(base, ways=1)
    word = 0x0123456789ABCDEF
    physical = codec.encode_group([word])
    assert physical == base.encode(word)
    corrupted = physical ^ (1 << 3) ^ (1 << 4) ^ (1 << 5)
    assert codec.classify_group([word], corrupted) is base.classify(
        word, corrupted)


def test_severity_aggregation_takes_worst():
    codec = InterleavedCodec(ParityCodec(32), ways=2)
    words = [0xAAAA5555, 0x12345678]
    physical = codec.encode_group(words)
    # two flips in way 0 (silent), one flip in way 1 (detected):
    # way 0's SDC must dominate the group classification
    corrupted = physical ^ (1 << 0) ^ (1 << 4) ^ (1 << 1)
    assert codec.classify_group(words, corrupted) is ErrorClass.SDC


def test_max_flips_per_codeword(codec):
    assert codec.max_flips_per_codeword(4) == 1
    assert codec.max_flips_per_codeword(5) == 2
    assert codec.max_flips_per_codeword(8) == 2
    assert codec.max_flips_per_codeword(0) == 0


def test_energy_factor_monotonic():
    base = SecDedCodec(64)
    factors = [InterleavedCodec(base, ways=w).energy_factor()
               for w in (1, 2, 4, 8)]
    assert factors[0] == 1.0
    assert factors == sorted(factors)


def test_invalid_ways_rejected():
    with pytest.raises(FaultInjectionError):
        InterleavedCodec(SecDedCodec(64), ways=0)


# --- classify_strike: only struck ways are decoded -----------------------------

_WAYS = (1, 2, 3, 4, 8)
_CODECS = {(name, ways): InterleavedCodec(base, ways=ways)
           for name, base in (("secded", SecDedCodec(64)),
                              ("parity", ParityCodec(32)))
           for ways in _WAYS}


def _group_reference(codec, words, positions):
    """Encode the whole row, flip ``positions``, classify every way."""
    physical = codec.encode_group(words)
    for position in positions:
        physical ^= 1 << position
    return codec.classify_group(words, physical)


@st.composite
def strikes(draw, ways, positions):
    codec = _CODECS[(draw(st.sampled_from(("secded", "parity"))), ways)]
    words = draw(st.lists(
        st.integers(min_value=0, max_value=2**codec.base.data_bits - 1),
        min_size=codec.ways, max_size=codec.ways))
    return codec, words, draw(positions(codec))


def _mbu_patterns(codec):
    return st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: MbuDistribution.for_node(40).sample_pattern(
            random.Random(seed), codec.codeword_bits).bit_positions)


def _arbitrary_bits(codec):
    """Any bits of the row; a bit listed twice flips back."""
    return st.lists(st.integers(min_value=0,
                                max_value=codec.codeword_bits - 1),
                    max_size=12)


@st.composite
def _one_way(draw, codec):
    """Several flips in one codeword: physical bits ``ways`` apart."""
    way = draw(st.integers(min_value=0, max_value=codec.ways - 1))
    logical = draw(st.sets(st.integers(
        min_value=0, max_value=codec.base.codeword_bits - 1),
        min_size=1, max_size=5))
    return sorted(bit * codec.ways + way for bit in logical)


@pytest.mark.parametrize("positions", [_mbu_patterns, _arbitrary_bits,
                                       _one_way])
@pytest.mark.parametrize("ways", _WAYS)
@settings(max_examples=40)
@given(data=st.data())
def test_classify_strike_matches_group_reference(ways, positions, data):
    codec, words, flips = data.draw(strikes(ways, positions))
    assert codec.classify_strike(words, flips) is _group_reference(
        codec, words, flips)


@pytest.mark.parametrize("ways", _WAYS)
def test_classify_strike_rejects_wrong_group_size(ways):
    codec = _CODECS[("secded", ways)]
    for size in (ways - 1, ways + 1):
        with pytest.raises(FaultInjectionError):
            codec.classify_strike([0] * size, [0])


def test_classify_strike_rejects_bits_outside_the_row(codec):
    with pytest.raises(FaultInjectionError):
        codec.classify_strike([0] * 4, [codec.codeword_bits])
    with pytest.raises(FaultInjectionError):
        codec.classify_strike([0] * 4, [-1])
