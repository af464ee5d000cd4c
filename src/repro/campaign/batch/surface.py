"""Structure-of-arrays strike surface.

The per-trial injector walks a Python list of targets for every strike;
the vectorized engine wants the same geometry as flat arrays it can
``searchsorted`` against.  :class:`StrikeSurface` is that form: one
sorted array of cumulative byte boundaries, one protection-code array,
one ACE-utilization array, with a sentinel slot for unoccupied SPM
space.  It is built from a :class:`~repro.campaign.spec.CampaignSpec`'s
targets, and its fault-free fraction tells the engines how many trials
the fast-forward path will absorb without ever touching a codec.
Per-region accounting follows ALADDIN's ``Scratchpad`` partition
bookkeeping: each partition carries its own occupancy and liveness
statistics rather than a global table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import Protection

#: protection codes used by the vectorized arrays (uint8)
PROT_NONE = 0
PROT_PARITY = 1
PROT_SECDED = 2
PROT_IMMUNE = 3
#: sentinel for the unoccupied remainder of the SPM surface
PROT_EMPTY = 4

_PROTECTION_CODES = {
    Protection.NONE: PROT_NONE,
    Protection.PARITY: PROT_PARITY,
    Protection.SECDED: PROT_SECDED,
    Protection.IMMUNE: PROT_IMMUNE,
}

#: codeword widths per protection code (index = protection code); the
#: entry for non-codec protections is a placeholder wide enough for any
#: sampled cluster, so the draw discipline stays unconditional.
_PARITY_BITS = 33  # ParityCodec(32).codeword_bits
_SECDED_BITS = 72  # SecDedCodec(64).codeword_bits


def protection_code(protection):
    """The uint8 array code of a :class:`~repro.config.Protection`."""
    return _PROTECTION_CODES[protection]


@dataclass(frozen=True)
class StrikeSurface:
    """Flat-array form of a campaign's strike targets.

    ``ends[i]`` is the exclusive cumulative byte boundary of target
    ``i``; a uniform strike point ``p`` lands in target
    ``searchsorted(ends, p, side="right")``, or in empty space when that
    index equals ``len(names)``.  ``protection`` and ``ace`` carry one
    extra sentinel slot for empty space (``PROT_EMPTY``, utilization 0),
    so target indices can be used unguarded as fancy indices.
    """

    names: tuple
    ends: np.ndarray  # int64, len == len(names)
    protection: np.ndarray  # uint8, len == len(names) + 1
    ace: np.ndarray  # float64, len == len(names) + 1
    total_spm_bytes: int

    @classmethod
    def from_targets(cls, targets, total_spm_bytes):
        """Build the SoA surface from :class:`~repro.faults.Target`s."""
        names = tuple(target.name for target in targets)
        sizes = np.fromiter((target.size for target in targets),
                            dtype=np.int64, count=len(names))
        protection = np.zeros(len(names) + 1, dtype=np.uint8)
        protection[-1] = PROT_EMPTY
        for i, target in enumerate(targets):
            protection[i] = protection_code(target.protection)
        ace = np.zeros(len(names) + 1, dtype=np.float64)
        ace[:-1] = [target.ace_fraction for target in targets]
        return cls(
            names=names,
            ends=np.cumsum(sizes),
            protection=protection,
            ace=ace,
            total_spm_bytes=int(total_spm_bytes),
        )

    @classmethod
    def from_spec(cls, spec):
        return cls.from_targets(spec.targets, spec.total_spm_bytes)

    # --- geometry ---------------------------------------------------------------

    @property
    def target_count(self):
        return len(self.names)

    @property
    def occupied_bytes(self):
        return int(self.ends[-1]) if len(self.ends) else 0

    def target_of(self, points):
        """Vectorized point-to-target lookup (sentinel index = empty)."""
        return np.searchsorted(self.ends, points, side="right")

    def codeword_bits(self):
        """Per-target codeword width array (sentinel slot included)."""
        return np.where(self.protection == PROT_PARITY,
                        _PARITY_BITS, _SECDED_BITS).astype(np.int64)

    # --- fast-forward accounting ------------------------------------------------

    def fault_free_fraction(self):
        """P(a uniform strike needs no codec work at all).

        Strikes on empty space, on immune (STT-RAM) cells, or outside a
        target's ACE window are classified without evaluating a codec —
        the fast-forward path.  Its complement is the fraction of trials
        that reach codec classification in either engine.
        """
        if self.total_spm_bytes <= 0:
            return 1.0
        sizes = np.diff(self.ends, prepend=0)
        live = self.protection[:-1] != PROT_IMMUNE
        codec_bytes = float(np.sum(sizes[live] * self.ace[:-1][live]))
        return 1.0 - codec_bytes / self.total_spm_bytes

