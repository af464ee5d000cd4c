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

* :mod:`~repro.campaign.batch.surface` — the SoA strike surface,
* :mod:`~repro.campaign.batch.sampler` — the canonical per-shard draw
  discipline: strike points, ACE draws, MBU multiplicities, and
  clustered bit positions, all drawn as arrays from one seeded PCG64
  stream,
* :mod:`~repro.campaign.batch.classify` — closed-form vectorized codec
  outcome classification (parity / SEC-DED correct-detect-miscorrect),
* :mod:`~repro.campaign.batch.engine` — the two shard evaluators: a
  per-trial oracle through the *real* codecs and the vectorized
  ``BatchInjector``, both consuming the same sampled strike stream,
* :mod:`~repro.campaign.batch.equivalence` — digests, cross-checks, and
  the golden campaign corpus that lock the two evaluators together.

Equivalence contract: for any spec, shard, and seed, both evaluators
produce *identical* :class:`~repro.faults.CampaignResult` counts — the
batch classifier is closed-form codec behaviour, verified
class-by-class against the real codecs (see ``tests/
test_batch_injector.py``).  ``BatchInjector`` is the evaluator every
campaign runs; the per-trial real-codec oracle exists only for the
equivalence harness, the tests, and the benchmarks, which construct it
directly to check the batch counts.
"""
