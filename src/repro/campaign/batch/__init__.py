"""Vectorized batch fault-injection engine.

Monte-Carlo campaigns spend almost all of their time in the per-trial
Python loop: pick a strike point, test the ACE window, encode a word
with the struck region's codec, flip the sampled cluster, decode,
classify.  This package amortizes all of it.  The golden execution
(the workload profile the pipeline computes once per (workload,
mapping) pair) is reduced to a compact structure-of-arrays strike
surface — region boundaries, protection codes, and ACE-window
utilizations, per-region accounting in the spirit of ALADDIN's
``Scratchpad`` partitions — and every shard's trials are then sampled
and classified in whole-array NumPy passes:

* :mod:`~repro.campaign.batch.surface` — the SoA strike surface and the
  golden-execution timeline (residency + ACE windows per block),
* :mod:`~repro.campaign.batch.sampler` — the canonical per-shard draw
  discipline: strike points, ACE draws, MBU multiplicities, and
  clustered bit positions, all drawn as arrays from one seeded PCG64
  stream,
* :mod:`~repro.campaign.batch.classify` — closed-form vectorized codec
  outcome classification (parity / SEC-DED correct-detect-miscorrect),
* :mod:`~repro.campaign.batch.engine` — the two shard evaluators:
  :class:`TrialInjector` (per-trial, through the *real* codecs) and
  :class:`BatchInjector` (vectorized), both consuming the same sampled
  strike stream,
* :mod:`~repro.campaign.batch.equivalence` — digests, cross-checks, and
  the golden campaign corpus that lock the two evaluators together.

Equivalence contract: for any spec, shard, and seed, ``batch`` and
``trial`` produce *identical* :class:`~repro.faults.CampaignResult`
counts — the batch classifier is closed-form codec behaviour, verified
class-by-class against the real codecs (see ``tests/
test_batch_injector.py`` and the CI injector matrix).  Only speed
differs, exactly like the ``reference``/``fast`` execution engines of
:mod:`repro.sim.fastpath`.

The knob mirrors the engine knob: ``--injector trial|batch|auto`` on
``repro campaign`` or the ``REPRO_INJECTOR`` environment variable,
resolved once into :class:`~repro.config.RunOptions`; ``auto`` (the
default) is ``batch``.
"""

from __future__ import annotations

from ...config import INJECTOR_ENV, INJECTORS, RunOptions


def resolve_injector(choice):
    """The evaluator ``choice`` runs (``None`` and ``auto`` resolve
    through :meth:`RunOptions.resolve <repro.config.RunOptions.resolve>`)."""
    return RunOptions.resolve(injector=choice).injector


def run_shard(spec, shard_index, injector=None):
    """Evaluate one shard with the chosen injector; returns the result.

    Convenience wrapper over :meth:`CampaignSpec.build_injector
    <repro.campaign.CampaignSpec.build_injector>` used by tests and the
    equivalence harness.
    """
    evaluator = spec.build_injector(shard_index, injector=injector)
    return evaluator.run(trials=spec.shard_trials(shard_index))


__all__ = [
    "INJECTORS",
    "INJECTOR_ENV",
    "resolve_injector",
    "run_shard",
]
