"""Regenerate ``perfbench/references.json``, the outputs every benchmark
op is checked against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only after a deliberate output change (for example a bump of the
campaign sampling discipline, recorded beside the references), and
review the diff: a reference that changes for any other reason is a
regression.  Campaign references are computed serially (``jobs=1``), so
the service's pooled results are checked against an independent path.
Takes about a minute on two cores.
"""

import json
import sys
import time

from common import (
    CAMPAIGN_STRUCTURE,
    CAMPAIGN_TRIALS,
    CASE_ARRAY_WORDS,
    CASE_OUTER_ITERATIONS,
    LINT_SCALES,
    MODES,
    BASELINES,
    REFERENCES,
    REPORT_PARAMS,
    SETUP_JOB,
    STATIC_SCALES,
    digest,
)

#: campaign seeds per program of the campaign workload
CAMPAIGN_SEEDS = tuple(range(1, 9))
#: campaign seeds per MiBench profile of the service workload: about
#: three times what one 30 s service run submits on two cores, so every
#: campaign a run submits is new to the server
SERVICE_SEEDS = tuple(range(1, 513))


def report_reference():
    from repro.eval.report import _SECTIONS
    from repro.pipeline import EvaluationContext
    from spans import NullRecorder
    from worker import report_texts

    names = [name for _, section in _SECTIONS for name in section]
    texts = report_texts(NullRecorder(), EvaluationContext(), names,
                         prefetch=False)
    return {"params": REPORT_PARAMS,
            "digest": digest([texts[name] for name in names]),
            "experiments": {name: digest(texts[name]) for name in names}}


def campaign_counts(profile, params):
    from repro.campaign import CampaignRunner, CampaignSpec

    spec = CampaignSpec.from_structure(
        profile, params["structure"], trials=params["trials"],
        seed=params["seed"], shard_size=params["shard_size"])
    summary = CampaignRunner(spec, jobs=1).run()
    if not summary.complete:
        raise RuntimeError("reference campaign incomplete")
    return digest(summary.result.to_dict())


def campaign_reference():
    from repro.campaign import DEFAULT_SHARD_SIZE
    from repro.pipeline import EvaluationContext, using_context
    from repro.workloads.case_study import case_study_program
    from repro.workloads.kernels import kernel_names

    counts = {}
    for name in ["case"] + list(kernel_names()):
        counts[name] = {}
        for seed in CAMPAIGN_SEEDS:
            with using_context(EvaluationContext()) as ctx:
                program = (case_study_program(CASE_ARRAY_WORDS,
                                              CASE_OUTER_ITERATIONS)
                           if name == "case"
                           else ctx.kernel_build(name).program)
                counts[name][str(seed)] = campaign_counts(
                    ctx.profile_of(program),
                    {"structure": CAMPAIGN_STRUCTURE,
                     "trials": CAMPAIGN_TRIALS, "seed": seed,
                     "shard_size": DEFAULT_SHARD_SIZE})
    return {"trials": CAMPAIGN_TRIALS, "counts": counts}


def service_reference():
    from repro.core.priorities import OptimizationMode, thresholds_for_mode
    from repro.pipeline import EvaluationContext, using_context
    from repro.service.app import normalize_params
    from repro.workloads.kernels import kernel_names
    from repro.workloads.synthetic import mibench_names

    ctx = EvaluationContext()

    def params_of(kind, params):
        return normalize_params(kind, dict(params))

    def assignments(kind, params):
        params = params_of(kind, params)
        _, profile = ctx.resolve_workload(
            params["workload"], scale=params["scale"],
            profile_flavor=params["profile"])
        thresholds = (thresholds_for_mode(OptimizationMode(params["mode"]))
                      if params["structure"] == "ftspm" else None)
        _, plan, _ = ctx.plan(profile, params["structure"],
                              thresholds=thresholds)
        return digest({
            name: {"region": a.region_name, "spm_address": a.spm_address}
            for name, a in sorted(plan.assignments.items())})

    def counts(params):
        params = params_of("campaign", params)
        _, profile = ctx.resolve_workload(params["workload"])
        return campaign_counts(profile, params)

    with using_context(ctx):
        reference = {
            "default_trials": params_of("campaign",
                                        {"workload": "sha"})["trials"],
            "mibench": list(mibench_names()),
            "kernels": list(kernel_names()),
            "campaign_seed_count": len(SERVICE_SEEDS),
            "setup": counts(SETUP_JOB["params"]),
            # packed: the digest of seed s at [16 * (s - 1), 16 * s)
            "campaign": {
                name: "".join(counts({"workload": name, "seed": seed})
                              for seed in SERVICE_SEEDS)
                for name in mibench_names()},
            "mapping": {},
            "static_mapping": {},
            "lint": {},
        }
        for name in mibench_names():
            for mode in MODES:
                reference["mapping"]["%s|ftspm|%s" % (name, mode)] = (
                    assignments("mapping", {"workload": name,
                                            "mode": mode}))
            for structure in BASELINES:
                reference["mapping"]["%s|%s|balanced" % (
                    name, structure)] = assignments(
                        "mapping", {"workload": name,
                                    "structure": structure})
        for name in kernel_names():
            for scale in STATIC_SCALES:
                for mode in MODES:
                    reference["static_mapping"]["%s|%d|%s" % (
                        name, scale, mode)] = assignments(
                            "mapping", {"workload": "kernel:" + name,
                                        "scale": scale, "mode": mode,
                                        "profile": "static"})
            for scale in LINT_SCALES:
                program = ctx.kernel_build(name, scale=scale).program
                reference["lint"]["%s|%d" % (name, scale)] = digest(
                    json.loads(ctx.lint_of(program).to_json()))
    return reference


def main():
    from repro.campaign.seeding import SAMPLING_DISCIPLINE

    started = time.perf_counter()
    references = {"sampling_discipline": SAMPLING_DISCIPLINE}
    for key, build in (("report", report_reference),
                       ("campaign", campaign_reference),
                       ("service", service_reference)):
        references[key] = build()
        print("%s references: %.1f s" % (key, time.perf_counter() - started),
              file=sys.stderr)
    with open(REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % REFERENCES, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
