"""Canonical vectorized draw discipline for campaign shards.

Both shard evaluators of :mod:`repro.campaign.batch.engine` — the
per-trial real-codec oracle and the vectorized ``BatchInjector`` —
consume the *same* sampled strike stream, drawn here from one PCG64
generator seeded with the shard seed.  That is the
whole equivalence story: the engines cannot diverge on what was
sampled, only on how it is classified, and the classifiers are proven
equal separately.

Each fixed-size chunk is drawn in two phases, in a fixed order:

1. **Geometry** (full chunk size): strike points over the SPM surface
   and ACE-window draws.  Together with the surface these decide which
   trials are *live* — occupied, non-immune, inside the ACE window.
2. **Strike detail** (live trials only): multiplicity draws, the
   geometric-tail draws of the ``>3`` bucket, cluster window starts,
   cluster positions, and golden data words.

Phase 2 is the fault-free-window fast-forward: a trial that lands on
empty space, immune STT-RAM, or dead data never draws its cluster at
all.  The phase-2 array sizes are a pure function of (surface, seed,
chunk index), so trial k's strike is identical no matter which engine
reads the stream.  Chunking is a fixed constant for the same reason:
chunk boundaries are part of the stream's identity.

The cluster model mirrors :meth:`repro.faults.MbuDistribution.
sample_pattern` — multiplicity ``m`` flips land in a contiguous window
of ``min(cw, m + 2)`` bits at a uniform start, positions chosen
without replacement via the same Fisher-Yates selection ``random.
sample`` uses, vectorized across the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import PROT_IMMUNE, PROT_PARITY, _PARITY_BITS, _SECDED_BITS

#: trials per draw chunk; fixed because chunk boundaries are part of
#: the sampled stream's identity (see module docstring)
CHUNK_TRIALS = 65_536

#: continuation probability of the geometric ">3" multiplicity tail,
#: mirroring MbuDistribution.sample_multiplicity
_TAIL_CONTINUE = 0.4


@dataclass(frozen=True)
class StrikeBatch:
    """One chunk of sampled strikes, in structure-of-arrays form.

    ``target`` and ``ace_draws`` cover every trial of the chunk;
    ``live`` marks the trials that reached a codec.  The strike-detail
    arrays (``multiplicity``, ``positions``, ``syndrome``, ``data``)
    are compacted to live trials only, in trial order — walking the
    chunk, advance a cursor into them each time ``live`` is set.

    ``positions`` is zero-padded past each trial's multiplicity, which
    makes ``syndrome`` (the XOR of struck bit indices) computable with
    one reduction: bit 0 XORs in nothing.
    """

    trials: int
    target: np.ndarray  # int64 (trials,); == target_count -> empty
    ace_draws: np.ndarray  # float64 (trials,) in [0, 1)
    live: np.ndarray  # bool (trials,)
    multiplicity: np.ndarray  # int64 (live,), 1..max_multiplicity
    positions: np.ndarray  # int64 (live, max_multiplicity), 0-padded
    syndrome: np.ndarray  # int64 (live,), XOR of struck bit positions
    data: np.ndarray  # uint64 (live,) golden data words


class ShardSampler:
    """Draws the canonical strike stream of one shard."""

    def __init__(self, surface, mbu, seed):
        self.surface = surface
        self.mbu = mbu
        self.seed = seed
        self._rng = np.random.Generator(np.random.PCG64(seed))
        # Threshold boundaries of the multiplicity distribution: a draw
        # in [0, t1) is 1 flip, [t1, t2) is 2, [t2, t3) is 3, else >3.
        self._t1 = mbu.p1
        self._t2 = mbu.p1 + mbu.p2
        self._t3 = mbu.p1 + mbu.p2 + mbu.p3
        # Strikes of the ">3" bucket start at 4 flips and extend through
        # up to (max_multiplicity - 4) geometric-tail continuations.
        self._tail_length = max(0, mbu.max_multiplicity - 4)
        self._max_multiplicity = max(4, mbu.max_multiplicity)

    def sample(self, trials):
        """Yield :class:`StrikeBatch` chunks covering ``trials``."""
        remaining = int(trials)
        while remaining > 0:
            chunk = min(remaining, CHUNK_TRIALS)
            yield self._sample_chunk(chunk)
            remaining -= chunk

    # --- one chunk --------------------------------------------------------------

    def _sample_chunk(self, n):
        gen = self._rng
        surface = self.surface

        # Phase 1 — geometry, full chunk size, fixed draw order.
        points = gen.integers(0, surface.total_spm_bytes, size=n,
                              dtype=np.int64)
        ace_draws = gen.random(n)
        target = surface.target_of(points)
        protection = surface.protection[target]
        live = ((target != surface.target_count)
                & (protection != PROT_IMMUNE)
                & (ace_draws < surface.ace[target]))
        count = int(np.count_nonzero(live))

        # Phase 2 — strike detail, live trials only, fixed draw order.
        mult_draws = gen.random(count)
        if self._tail_length:
            tail_draws = gen.random((count, self._tail_length))
        start_draws = gen.random(count)
        max_m = self._max_multiplicity
        pos_draws = gen.random((count, max_m))
        data = gen.integers(0, 2 ** 64, size=count, dtype=np.uint64)

        # Multiplicity: threshold the primary draw into 1/2/3/4-or-more,
        # then extend the ">3" bucket by the number of consecutive
        # geometric-tail successes (cumprod stops at the first failure).
        multiplicity = (1
                        + (mult_draws >= self._t1).astype(np.int64)
                        + (mult_draws >= self._t2)
                        + (mult_draws >= self._t3))
        if self._tail_length:
            extensions = np.cumprod(
                tail_draws < _TAIL_CONTINUE, axis=1).sum(axis=1)
            multiplicity = np.where(multiplicity == 4,
                                    4 + extensions, multiplicity)

        # Cluster geometry over the struck codeword.
        codeword_bits = np.where(
            protection[live] == PROT_PARITY,
            _PARITY_BITS, _SECDED_BITS).astype(np.int64)
        m_eff = np.minimum(multiplicity, codeword_bits)
        window = np.minimum(codeword_bits, m_eff + 2)
        start = (start_draws
                 * (codeword_bits - window + 1)).astype(np.int64)

        offsets = self._sample_positions(count, m_eff, window, pos_draws)
        # Shift offsets to absolute bit positions, then zero the padding
        # columns so the XOR reduction sees only real flips (bit 0
        # contributes nothing to the syndrome).
        live_columns = np.arange(max_m) < m_eff[:, np.newaxis]
        positions = (offsets + start[:, np.newaxis]) * live_columns
        syndrome = np.bitwise_xor.reduce(positions, axis=1)

        return StrikeBatch(
            trials=n,
            target=target,
            ace_draws=ace_draws,
            live=live,
            multiplicity=m_eff,
            positions=positions,
            syndrome=syndrome,
            data=data,
        )

    def _sample_positions(self, count, m_eff, window, pos_draws):
        """Choose ``m_eff`` distinct offsets inside each trial's window.

        Vectorized Fisher-Yates selection: maintain a per-trial pool of
        window offsets; each step picks index ``floor(u * remaining)``
        and backfills it with the pool's last live element — the same
        selection ``random.sample`` performs, run as ``max_multiplicity``
        whole-array steps.
        """
        max_m = pos_draws.shape[1]
        max_window = int(window.max(initial=1))
        pool = np.broadcast_to(
            np.arange(max_window, dtype=np.int64),
            (count, max_window)).copy()
        offsets = np.zeros((count, max_m), dtype=np.int64)
        rows = np.arange(count)
        for step in range(max_m):
            remaining = window - step
            # Finished rows (m_eff <= step) still need in-range indices;
            # their picks are masked out of the result afterwards.
            safe_remaining = np.clip(remaining, 1, None)
            pick = np.minimum(
                (pos_draws[:, step] * safe_remaining).astype(np.int64),
                safe_remaining - 1)
            offsets[:, step] = pool[rows, pick]
            last = np.clip(remaining - 1, 0, None)
            pool[rows, pick] = pool[rows, last]
        return offsets
