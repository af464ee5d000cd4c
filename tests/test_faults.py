"""Fault model: MBU distribution, AVF equations, injection campaign."""

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.batch.equivalence import EVALUATORS, campaign_outcome
from repro.config import Protection
from repro.errors import FaultInjectionError
from repro.faults import (
    MbuDistribution,
    region_error_probabilities,
    vulnerability_of_placement,
)
from repro.faults.mbu import make_rng
from repro.profile.blocks import BlockKind, ProgramBlock
from repro.profile.profiler import BlockStats


def block_stats(name, size, ace_cycles, total=100):
    stats = BlockStats(
        block=ProgramBlock(name, BlockKind.DATA, 0, size))
    stats.ace_cycles = ace_cycles
    return stats


@pytest.fixture(scope="module")
def mbu():
    return MbuDistribution.for_node(40)


# --- distribution -------------------------------------------------------------

def test_paper_probabilities(mbu):
    assert mbu.p1 == 0.62
    assert mbu.p2 == 0.25
    assert mbu.p3 == 0.06
    assert mbu.p_more == 0.07


def test_p_at_least(mbu):
    assert mbu.p_at_least(1) == pytest.approx(1.0)
    assert mbu.p_at_least(2) == pytest.approx(0.38)
    assert mbu.p_at_least(3) == pytest.approx(0.13)
    assert mbu.p_at_least(4) == pytest.approx(0.07)


def test_p_exactly_bounds(mbu):
    with pytest.raises(FaultInjectionError):
        mbu.p_exactly(4)
    with pytest.raises(FaultInjectionError):
        mbu.p_at_least(5)


def test_probabilities_must_sum_to_one():
    with pytest.raises(FaultInjectionError):
        MbuDistribution((0.5, 0.2, 0.1, 0.1))


def test_probabilities_must_be_non_negative():
    with pytest.raises(FaultInjectionError):
        MbuDistribution((1.1, 0.0, 0.0, -0.1))


def test_sampled_multiplicity_matches_distribution(mbu):
    rng = make_rng(42)
    counts = {}
    trials = 50_000
    for _ in range(trials):
        m = mbu.sample_multiplicity(rng)
        counts[m] = counts.get(m, 0) + 1
    assert counts[1] / trials == pytest.approx(0.62, abs=0.01)
    assert counts[2] / trials == pytest.approx(0.25, abs=0.01)
    assert counts[3] / trials == pytest.approx(0.06, abs=0.01)
    more = sum(v for k, v in counts.items() if k > 3) / trials
    assert more == pytest.approx(0.07, abs=0.01)


def test_sampled_patterns_are_clustered(mbu):
    rng = make_rng(7)
    for _ in range(500):
        pattern = mbu.sample_pattern(rng, 72)
        positions = pattern.bit_positions
        assert len(positions) == pattern.multiplicity
        assert all(0 <= p < 72 for p in positions)
        if len(positions) > 1:
            assert max(positions) - min(positions) <= pattern.multiplicity + 1


def test_pattern_apply_flips_bits(mbu):
    from repro.faults import StrikePattern
    pattern = StrikePattern(2, (0, 3))
    assert pattern.apply(0) == 0b1001
    assert pattern.apply(0b1001) == 0


# --- equations (4)-(7) -----------------------------------------------------------

def test_parity_probabilities(mbu):
    probs = region_error_probabilities(Protection.PARITY, mbu)
    assert probs.due == pytest.approx(0.62)
    assert probs.sdc == pytest.approx(0.38)
    assert probs.harmful == pytest.approx(1.0)


def test_secded_probabilities(mbu):
    probs = region_error_probabilities(Protection.SECDED, mbu)
    assert probs.due == pytest.approx(0.25)
    assert probs.sdc == pytest.approx(0.13)
    assert probs.dre == pytest.approx(0.62)
    assert probs.harmful == pytest.approx(0.38)


def test_immune_probabilities(mbu):
    probs = region_error_probabilities(Protection.IMMUNE, mbu)
    assert probs.harmful == 0.0


def test_unprotected_probabilities(mbu):
    probs = region_error_probabilities(Protection.NONE, mbu)
    assert probs.sdc == 1.0


# --- block-level AVF ---------------------------------------------------------------

def test_vulnerability_weights_by_ace_and_area(mbu):
    entries = [
        (block_stats("a", size=1000, ace_cycles=50), Protection.SECDED),
    ]
    breakdown = vulnerability_of_placement(
        entries, total_spm_bytes=10_000, total_cycles=100, mbu=mbu)
    # 0.1 area x 0.5 ace x (0.13 + 0.25)
    assert breakdown.vulnerability == pytest.approx(0.1 * 0.5 * 0.38)


def test_immune_blocks_contribute_nothing(mbu):
    entries = [
        (block_stats("stt", size=4000, ace_cycles=100), Protection.IMMUNE),
    ]
    breakdown = vulnerability_of_placement(
        entries, 10_000, 100, mbu=mbu)
    assert breakdown.vulnerability == 0.0


def test_reliability_complements_vulnerability(mbu):
    entries = [
        (block_stats("p", 5000, 100), Protection.PARITY),
    ]
    breakdown = vulnerability_of_placement(entries, 10_000, 100, mbu=mbu)
    assert breakdown.reliability == pytest.approx(
        1.0 - breakdown.vulnerability)


def test_ace_weighting_can_be_disabled(mbu):
    entries = [(block_stats("a", 1000, 10), Protection.SECDED)]
    weighted = vulnerability_of_placement(entries, 10_000, 100, mbu=mbu)
    unweighted = vulnerability_of_placement(entries, 10_000, 100, mbu=mbu,
                                            ace_weighted=False)
    assert unweighted.vulnerability > weighted.vulnerability


def test_total_spm_bytes_must_be_positive(mbu):
    with pytest.raises(FaultInjectionError):
        vulnerability_of_placement([], 0, 100, mbu=mbu)


# --- Monte-Carlo injection ------------------------------------------------------------

ENTRIES = [
    (block_stats("ecc-block", 2048, 60), Protection.SECDED),
    (block_stats("parity-block", 2048, 30), Protection.PARITY),
    (block_stats("stt-block", 12288, 100), Protection.IMMUNE),
]


def make_campaign(mbu, trials, seed=1, entries=ENTRIES):
    return CampaignSpec.from_entries(entries, total_spm_bytes=16 * 1024,
                                     total_cycles=100, trials=trials,
                                     seed=seed, mbu=mbu)


def run_campaign(mbu, trials, seed=1):
    """``[(evaluator name, merged result)]`` for every evaluator."""
    spec = make_campaign(mbu, trials, seed=seed)
    return [(evaluator.name, campaign_outcome(spec, evaluator))
            for evaluator in EVALUATORS]


def test_campaign_counts_sum(mbu):
    for name, result in run_campaign(mbu, 5000):
        total = (result.benign_immune + result.benign_empty
                 + result.benign_dead + result.none + result.dre
                 + result.due + result.sdc)
        assert total == result.trials == 5000, name


def test_campaign_sttram_strikes_are_benign(mbu):
    for name, result in run_campaign(mbu, 5000):
        assert result.benign_immune > 0, name
        assert "stt-block" not in result.by_block, name


def test_campaign_matches_analytic_vulnerability(mbu):
    """Monte-Carlo through real codecs lands near equations (1)-(7).

    The deviation is the real codec behaviour the analytic model rounds
    off (odd >=3 parity upsets are detected, some SEC-DED triples become
    DUE instead of SDC), so the tolerance is loose but the magnitude and
    ordering must agree.
    """
    analytic = vulnerability_of_placement(ENTRIES, 16 * 1024, 100, mbu=mbu)
    for name, measured in run_campaign(mbu, 120_000, seed=3):
        assert measured.vulnerability == pytest.approx(
            analytic.vulnerability, rel=0.25), name


def test_campaign_dre_only_from_ecc(mbu):
    from repro.ecc.codec import ErrorClass
    for name, result in run_campaign(mbu, 20_000):
        parity_counts = result.by_block.get("parity-block")
        if parity_counts is not None:
            assert parity_counts[ErrorClass.DRE] == 0, name
        assert result.dre > 0, name  # ECC corrects single flips


def test_campaign_deterministic_with_seed(mbu):
    first = run_campaign(mbu, 3000, seed=9)
    second = run_campaign(mbu, 3000, seed=9)
    assert [r.to_dict() for _, r in first] == \
        [r.to_dict() for _, r in second]
    # and the oracle and the vectorized evaluator agree exactly
    (_, trial), (_, batch) = first
    assert trial.to_dict() == batch.to_dict()


def test_campaign_rejects_overflowing_blocks(mbu):
    entries = [(block_stats("big", 64 * 1024, 10), Protection.SECDED)]
    with pytest.raises(FaultInjectionError):
        make_campaign(mbu, 100, entries=entries)


def test_campaign_rate_helper(mbu):
    for name, result in run_campaign(mbu, 1000):
        assert result.rate("sdc") == result.sdc / 1000, name
