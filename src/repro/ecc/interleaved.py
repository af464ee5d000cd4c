"""Bit-interleaved ECC: the classic MBU countermeasure, as a comparator.

The paper argues SEC-DED is insufficient against MBUs; the standard
industrial answer is *physical bit interleaving*: adjacent cells belong
to different logical codewords, so a spatially clustered m-bit upset
lands at most ``ceil(m / ways)`` flips in any one codeword.  This module
implements a real interleaved wrapper over any base codec, used by the
interleaving ablation to quantify how close an interleaved SEC-DED SRAM
comes to FTSPM's reliability — and at what energy cost (wider physical
rows burn proportionally more access energy).

Physical layout: physical bit ``i`` is logical bit ``i // ways`` of
codeword ``i % ways``.

A strike only changes the codewords it lands in.  An unstruck codeword
decodes clean to its golden word (class NONE), so
:meth:`InterleavedCodec.classify_strike` routes each flipped physical
bit to its codeword and encodes/classifies only the struck ones.  The
tests hold it to :meth:`~InterleavedCodec.encode_group` → flip →
:meth:`~InterleavedCodec.classify_group`, which decode every codeword.
"""

from __future__ import annotations

from ..errors import FaultInjectionError
from .codec import SEVERITY, ErrorClass, classify_decoded


class InterleavedCodec:
    """``ways`` codewords of a base codec, physically bit-interleaved."""

    def __init__(self, base_codec, ways=4):
        if ways < 1:
            raise FaultInjectionError("ways must be >= 1")
        self.base = base_codec
        self.ways = ways

    @property
    def codeword_bits(self):
        """Width of the interleaved physical row."""
        return self.base.codeword_bits * self.ways

    @property
    def data_bits(self):
        return self.base.data_bits * self.ways

    # --- layout ---------------------------------------------------------------

    def interleave(self, codewords):
        """Pack ``ways`` logical codewords into one physical row."""
        if len(codewords) != self.ways:
            raise FaultInjectionError(
                "need exactly %d codewords" % self.ways)
        physical = 0
        for logical_bit in range(self.base.codeword_bits):
            for way, codeword in enumerate(codewords):
                if (codeword >> logical_bit) & 1:
                    physical |= 1 << (logical_bit * self.ways + way)
        return physical

    def deinterleave(self, physical):
        """Unpack a physical row into ``ways`` logical codewords."""
        codewords = [0] * self.ways
        for logical_bit in range(self.base.codeword_bits):
            for way in range(self.ways):
                if (physical >> (logical_bit * self.ways + way)) & 1:
                    codewords[way] |= 1 << logical_bit
        return codewords

    # --- codec API over groups ----------------------------------------------------

    def encode_group(self, data_words):
        """Encode ``ways`` data words into one physical row."""
        if len(data_words) != self.ways:
            raise FaultInjectionError(
                "need exactly %d data words" % self.ways)
        return self.interleave(
            [self.base.encode(word) for word in data_words])

    def decode_group(self, physical):
        """Decode a physical row into ``ways`` DecodeResults."""
        return [self.base.decode(codeword)
                for codeword in self.deinterleave(physical)]

    def classify_group(self, golden_words, corrupted_physical):
        """Worst-case classification across the group's codewords."""
        if len(golden_words) != self.ways:
            raise FaultInjectionError(
                "need exactly %d golden words" % self.ways)
        worst = ErrorClass.NONE
        for golden, codeword in zip(golden_words,
                                    self.deinterleave(corrupted_physical)):
            outcome = self.base.classify(golden, codeword)
            if SEVERITY[outcome] > SEVERITY[worst]:
                worst = outcome
        return worst

    def classify_strike(self, golden_words, bit_positions):
        """Worst-case class of flipping ``bit_positions`` of the physical
        row that encodes ``golden_words``.

        Physical bit ``p`` is logical bit ``p // ways`` of codeword
        ``p % ways``; only struck codewords are encoded and decoded,
        since an unstruck one decodes clean (class NONE).
        """
        ways = self.ways
        if len(golden_words) != ways:
            raise FaultInjectionError(
                "need exactly %d golden words" % ways)
        width = self.codeword_bits
        flips = {}
        for position in bit_positions:
            if not 0 <= position < width:
                raise FaultInjectionError(
                    "bit %d outside the %d-bit row" % (position, width))
            way = position % ways
            flips[way] = flips.get(way, 0) ^ (1 << (position // ways))
        base = self.base
        worst = ErrorClass.NONE
        for way, mask in flips.items():
            golden = golden_words[way]
            outcome = classify_decoded(
                golden, base.decode(base.encode(golden) ^ mask))
            if SEVERITY[outcome] > SEVERITY[worst]:
                worst = outcome
        return worst

    # --- analytic helper -------------------------------------------------------------

    def max_flips_per_codeword(self, cluster_width):
        """Worst-case flips one codeword sees from a contiguous cluster."""
        if cluster_width <= 0:
            return 0
        return -(-cluster_width // self.ways)  # ceil division

    def energy_factor(self):
        """Relative per-access dynamic-energy cost of the wide row.

        Interleaving activates a row ``ways`` codewords wide; with column
        muxing most of the extra energy is bitline precharge, modelled as
        ~15% per doubling (the figure NVSim-style models attribute to
        wider physical rows at equal capacity).
        """
        factor = 1.0
        ways = self.ways
        while ways > 1:
            factor *= 1.15
            ways //= 2
        return factor
