"""Soft-error model: MBU statistics, AVF equations, and fault injection.

Implements both halves of the paper's reliability methodology:

* the **analytic AVF model** (equations (1)–(7)): per-region SDC/DUE
  probabilities from the multiplicity distribution of particle-strike
  bit flips (Dixit & Wood's 62/25/6/7 % at 40 nm), weighted by each
  block's ACE time and area share,
* the **measured** side: the :class:`CampaignResult` counts and
  :class:`Target` surface of the Monte-Carlo injection campaigns in
  :mod:`repro.campaign`, which sample strikes, classify them with the
  parity / SEC-DED behaviour of :mod:`repro.ecc`, and cross-check the
  analytic numbers with measured codec behaviour.
"""

from .mbu import MbuDistribution, StrikePattern
from .avf import (
    RegionErrorProbabilities,
    VulnerabilityBreakdown,
    region_error_probabilities,
    region_surface_vulnerability,
    vulnerability_of_placement,
)
from .injector import CampaignResult, Target
from .scrubbing import AccumulationCampaign, AccumulationResult

__all__ = [
    "MbuDistribution",
    "StrikePattern",
    "RegionErrorProbabilities",
    "VulnerabilityBreakdown",
    "region_error_probabilities",
    "region_surface_vulnerability",
    "vulnerability_of_placement",
    "CampaignResult",
    "Target",
    "AccumulationCampaign",
    "AccumulationResult",
]
