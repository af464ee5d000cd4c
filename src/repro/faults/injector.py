"""Fault-injection outcome counts and the strike-target surface.

Where the analytic AVF model *assumes* each multiplicity's outcome
(eqs. (4)–(7)), a campaign *measures* it: every live strike flips a
sampled clustered bit pattern in a word of the struck region's code and
classifies the decoded result against the golden word.  Differences
from the analytic model are real codec behaviour — e.g. a triple upset
in SEC-DED is usually a silent miscorrection but sometimes lands
outside the valid-position space and becomes a detected (DUE) event;
odd >=3 upsets under parity are detected rather than silent.

A trial is harmful only if it hits a resident block *and* lands inside
that block's ACE window; strikes on STT-RAM, on empty SPM space, or on
dead data are benign, mirroring the AVF weighting.

This module holds the two shapes every campaign shares: the
:class:`Target` surface elements a campaign samples over and the
:class:`CampaignResult` counts it produces.  The sampling and
classification live in :mod:`repro.campaign.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..config import Protection
from ..ecc.codec import ErrorClass
from ..errors import FaultInjectionError


@dataclass
class CampaignResult:
    """Outcome counts of one injection campaign."""

    trials: int = 0
    benign_immune: int = 0  # strike on STT-RAM (immune cells)
    benign_empty: int = 0  # strike on unoccupied SPM space
    benign_dead: int = 0  # strike outside the block's ACE window
    none: int = 0  # hit live data but decoded clean & intact
    dre: int = 0
    due: int = 0
    sdc: int = 0
    #: per-block outcome breakdown of every *live* strike; keys are
    #: block names, values map each ErrorClass to its count
    by_block: Dict[str, Dict[ErrorClass, int]] = field(
        default_factory=dict)

    @property
    def harmful(self):
        return self.due + self.sdc

    @property
    def vulnerability(self):
        """Measured counterpart of eq. (1): P(strike -> SDC or DUE)."""
        if self.trials == 0:
            return 0.0
        return self.harmful / self.trials

    def rate(self, attribute):
        if self.trials == 0:
            return 0.0
        return getattr(self, attribute) / self.trials

    # --- composition (sharded campaigns) ---------------------------------------

    _COUNT_FIELDS = ("trials", "benign_immune", "benign_empty",
                     "benign_dead", "none", "dre", "due", "sdc")

    def merge(self, other):
        """Combine two campaign outcomes into a new result.

        Counts and the per-block breakdowns sum, so shard results from a
        partitioned campaign compose into the aggregate the equivalent
        single run would have produced.  Merging is associative and
        commutative on the counts, and ``by_block`` comes out in sorted
        key order regardless of operand order — checkpoint journals and
        reports are byte-stable no matter which shard finished first.
        """
        if not isinstance(other, CampaignResult):
            raise FaultInjectionError(
                "can only merge CampaignResult, not %r" % type(other))
        merged = CampaignResult(**{
            name: getattr(self, name) + getattr(other, name)
            for name in self._COUNT_FIELDS})
        for block in sorted(set(self.by_block) | set(other.by_block)):
            counts = {klass: 0 for klass in ErrorClass}
            for source in (self, other):
                for klass, count in source.by_block.get(block,
                                                        {}).items():
                    counts[klass] += count
            merged.by_block[block] = counts
        return merged

    def __add__(self, other):
        if isinstance(other, CampaignResult):
            return self.merge(other)
        return NotImplemented

    def __radd__(self, other):
        if other == 0:  # so sum(results) works
            return self.merge(CampaignResult())
        return NotImplemented

    # --- serialization (campaign checkpoints) ----------------------------------

    def to_dict(self):
        """Plain-JSON form: enum keys become their string values.

        Blocks are emitted in sorted name order so serialized results —
        checkpoint journals, golden corpus entries, digests — are
        byte-stable regardless of strike or merge order.
        """
        payload = {name: getattr(self, name) for name in self._COUNT_FIELDS}
        payload["by_block"] = {
            block: {klass.value: count
                    for klass, count in self.by_block[block].items()}
            for block in sorted(self.by_block)}
        return payload

    @classmethod
    def from_dict(cls, payload):
        """Inverse of :meth:`to_dict` (blocks restored in sorted order)."""
        result = cls(**{name: int(payload.get(name, 0))
                        for name in cls._COUNT_FIELDS})
        by_block = payload.get("by_block", {})
        for block in sorted(by_block):
            result.by_block[block] = {
                klass: int(by_block[block].get(klass.value, 0))
                for klass in ErrorClass}
        return result


@dataclass(frozen=True)
class Target:
    """One resident surface element as seen by the injector.

    Either a mapped block (the ``avf_entries`` reading) or a
    whole SPM region with a precomputed utilization (the region-surface
    reading of Fig. 5) — the injector only needs the four fields.
    """

    name: str
    protection: Protection
    size: int
    ace_fraction: float
