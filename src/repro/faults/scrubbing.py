"""Temporal error accumulation and memory scrubbing.

The single-strike model (equations (1)–(7)) assumes each particle strike
is adjudicated in isolation.  Over long missions, *independent* strikes
accumulate: two single-bit upsets landing in the same SEC-DED word
between consecutive reads become an uncorrectable double error, and
three become a potential silent miscorrection.  The standard defence is
**scrubbing** — periodically reading, correcting, and writing back every
word so accumulated singles are cleaned before they pair up.

:class:`AccumulationCampaign` simulates this per-word process with the
real codecs: strikes arrive as a Poisson process per word, each scrub
epoch decodes the accumulated word (correcting what the codec can), and
end-of-epoch outcomes are classified against the golden data.  The
scrubbing ablation sweeps the epoch count to show vulnerability falling
toward the single-strike floor — and the energy cost of the scrub reads
that buys it.

Every scrub leaves a valid codeword: CLEAN leaves the word as it is,
CORRECTED re-encodes the decoded data, DUE restores the golden word, and
the word starts as ``encode(data)``.  So an epoch no strike reached
decodes CLEAN to a class the word already carries; it draws its Poisson
count and counts its scrub read but skips the decode.  A struck epoch
decodes once, and a word is encoded only at its first strike.  Every
random draw stays in order, so the counts equal the full per-epoch loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..config import Protection
from ..ecc import ParityCodec, SecDedCodec
from ..ecc.codec import SEVERITY, DecodeOutcome, ErrorClass, classify_decoded
from ..errors import FaultInjectionError
from .mbu import MbuDistribution


@dataclass
class AccumulationResult:
    """Outcome of one accumulation campaign."""

    words: int = 0
    epochs: int = 0
    strikes: int = 0
    none: int = 0  # words that finished the mission clean
    dre: int = 0  # worst outcome was a corrected error
    due: int = 0
    sdc: int = 0
    scrub_reads: int = 0
    scrub_writebacks: int = 0

    @property
    def harmful_fraction(self):
        if self.words == 0:
            return 0.0
        return (self.due + self.sdc) / self.words

    @property
    def sdc_fraction(self):
        if self.words == 0:
            return 0.0
        return self.sdc / self.words


class AccumulationCampaign:
    """Per-word multi-strike simulation with periodic scrubbing.

    ``strike_rate`` is the expected number of strikes per word over the
    whole mission; ``scrub_epochs`` divides the mission into that many
    scrub intervals (1 = no scrubbing beyond the final readout).
    """

    def __init__(self, protection=Protection.SECDED, strike_rate=0.5,
                 scrub_epochs=1, mbu=None, seed=0x5C12B):
        if strike_rate < 0:
            raise FaultInjectionError("strike_rate must be non-negative")
        if scrub_epochs < 1:
            raise FaultInjectionError("scrub_epochs must be >= 1")
        if protection is Protection.PARITY:
            self.codec = ParityCodec(32)
        elif protection is Protection.SECDED:
            self.codec = SecDedCodec(64)
        else:
            raise FaultInjectionError(
                "accumulation campaigns need a correcting/detecting "
                "scheme, not %r" % protection)
        self.protection = protection
        self.strike_rate = strike_rate
        self.scrub_epochs = scrub_epochs
        self.mbu = mbu or MbuDistribution.for_node(40)
        self.rng = random.Random(seed)
        #: Knuth's Poisson threshold for one epoch's strike count
        self._epoch_limit = math.exp(-strike_rate / scrub_epochs)

    def _simulate_word(self, result):
        codec = self.codec
        width = codec.codeword_bits
        sample_pattern = self.mbu.sample_pattern
        rng = self.rng
        random_ = rng.random
        limit = self._epoch_limit
        data = rng.getrandbits(codec.data_bits)
        # encoded at the first strike: most words are never struck
        golden = codeword = None
        worst = ErrorClass.NONE
        result.scrub_reads += self.scrub_epochs
        for _ in range(self.scrub_epochs):
            # Poisson strike count (Knuth's algorithm; means are << 10)
            strikes = 0
            product = random_()
            while product > limit:
                strikes += 1
                product *= random_()
            if not strikes:
                # the word is still the valid codeword the last scrub
                # left: it decodes CLEAN to a class ``worst`` holds
                continue
            result.strikes += strikes
            if golden is None:
                golden = codeword = codec.encode(data)
            for _ in range(strikes):
                codeword = sample_pattern(rng, width).apply(codeword)
            # scrub: read, classify, correct what the codec can
            decoded = codec.decode(codeword)
            outcome = classify_decoded(data, decoded)
            if SEVERITY[outcome] > SEVERITY[worst]:
                worst = outcome
            if decoded.outcome is DecodeOutcome.CORRECTED:
                # write back the codec's corrected view (which, after a
                # miscorrection, can itself be wrong data re-encoded)
                codeword = (golden if decoded.data == data
                            else codec.encode(decoded.data))
                result.scrub_writebacks += 1
            elif decoded.outcome is DecodeOutcome.DETECTED_UNCORRECTABLE:
                # a real system would signal and reload; model the word
                # as restored from the golden backing copy
                codeword = golden
                result.scrub_writebacks += 1
        return worst

    def run(self, words=20_000):
        """Simulate ``words`` independent words; returns the result."""
        result = AccumulationResult(words=words, epochs=self.scrub_epochs)
        for _ in range(words):
            worst = self._simulate_word(result)
            if worst is ErrorClass.SDC:
                result.sdc += 1
            elif worst is ErrorClass.DUE:
                result.due += 1
            elif worst is ErrorClass.DRE:
                result.dre += 1
            else:
                result.none += 1
        return result
