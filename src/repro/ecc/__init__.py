"""Error-detection/correction codecs used by the SRAM SPM regions.

Real, bit-accurate implementations (not behavioural stubs):

* :class:`ParityCodec` — one even-parity bit per 32-bit word; detects any
  odd number of bit flips, silently misses even-multiplicity flips.
* :class:`SecDedCodec` — Hamming(72,64) single-error-correct /
  double-error-detect; triple and higher upsets can alias into silent
  miscorrections, which is exactly the MBU weakness the paper exploits
  in its vulnerability argument.

The per-trial campaign oracle (:mod:`repro.campaign.batch.engine`)
runs stored words through these codecs and classifies outcomes as
DRE / DUE / SDC by comparison with the golden data.
"""

from .codec import Codec, DecodeOutcome, DecodeResult, ErrorClass
from .parity import ParityCodec
from .hamming import SecDedCodec
from .interleaved import InterleavedCodec

__all__ = [
    "Codec",
    "DecodeOutcome",
    "DecodeResult",
    "ErrorClass",
    "ParityCodec",
    "SecDedCodec",
    "InterleavedCodec",
]
