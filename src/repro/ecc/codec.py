"""Codec interface and decode-outcome taxonomy.

The outcome names follow the paper's error taxonomy (Section IV):

* **DRE** — detected and recovered (codec corrected the word),
* **DUE** — detected but unrecoverable,
* **SDC** — silent data corruption (codec believed the word was fine, or
  "corrected" it to the wrong value).

A codec's :meth:`Codec.decode` reports only what the hardware can know
(clean / corrected / detected-uncorrectable).  The true classification
needs the golden data, so :meth:`Codec.classify` compares against it
through :func:`classify_decoded`, which callers that already hold a
decode (the scrubber) apply directly instead of decoding twice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DecodeOutcome(enum.Enum):
    """What the decoder hardware observed/did."""

    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED_UNCORRECTABLE = "detected-uncorrectable"


class ErrorClass(enum.Enum):
    """Ground-truth classification of a decode against the golden data."""

    NONE = "none"  # data intact, decoder silent: no error
    DRE = "dre"  # detected and recovered
    DUE = "due"  # detected, unrecoverable
    SDC = "sdc"  # silent data corruption


#: severity order for taking the worst of several classes
SEVERITY = {
    ErrorClass.NONE: 0,
    ErrorClass.DRE: 1,
    ErrorClass.DUE: 2,
    ErrorClass.SDC: 3,
}


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: recovered data word plus the observed outcome."""

    data: int
    outcome: DecodeOutcome


class Codec:
    """Abstract block codec over fixed-size data words."""

    #: number of data bits per codeword
    data_bits = 0
    #: number of check bits per codeword
    check_bits = 0
    name = "codec"

    @property
    def codeword_bits(self):
        return self.data_bits + self.check_bits

    @property
    def storage_overhead(self):
        """Fraction of extra storage (check bits / data bits)."""
        return self.check_bits / self.data_bits

    def encode(self, data):
        """Encode a data word into a codeword (both plain ints)."""
        raise NotImplementedError

    def decode(self, codeword):
        """Decode a codeword; returns a :class:`DecodeResult`."""
        raise NotImplementedError

    def classify(self, golden_data, corrupted_codeword):
        """Ground-truth classification of decoding a corrupted word."""
        return classify_decoded(golden_data, self.decode(corrupted_codeword))


def classify_decoded(golden_data, result):
    """Ground-truth class of a :class:`DecodeResult` against the golden
    data: the one rule every classifier applies to a decode."""
    if result.outcome is DecodeOutcome.DETECTED_UNCORRECTABLE:
        return ErrorClass.DUE
    if result.data == golden_data:
        if result.outcome is DecodeOutcome.CORRECTED:
            return ErrorClass.DRE
        return ErrorClass.NONE
    # Decoder delivered wrong data while claiming clean or corrected.
    return ErrorClass.SDC
