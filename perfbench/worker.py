"""One fresh interpreter running one pass of an in-process workload.

``run.py`` starts this file with ``PYTHONPATH=src`` and times it from
launch until the ``READY`` line, which is printed once ``repro.cli`` is
imported: that interval is the set-up a ``repro`` invocation pays.

    python perfbench/worker.py probe
    python perfbench/worker.py report   '<json args>'
    python perfbench/worker.py campaign '<json args>'

The last line of stdout is ``RESULT <json>``.  With ``"trace": true``
in the arguments, spans are recorded around every call into the
program and the worker also returns per-layer numbers.
"""

import time

_T0 = time.perf_counter()
import repro.cli  # noqa: E402,F401  (the set-up being measured)

IMPORT_S = time.perf_counter() - _T0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    CAMPAIGN_STRUCTURE,
    CAMPAIGN_TRIALS,
    CASE_ARRAY_WORDS,
    CASE_OUTER_ITERATIONS,
    INTERLEAVE_WAYS,
    REPORT_PARAMS,
    digest,
    load_references,
)
from spans import (  # noqa: E402
    NullRecorder,
    Recorder,
    format_self_times,
    self_times,
)

_CASE = {"table1", "table2", "table3", "fig2", "case-scalars"}
_SUITE = {"fig5", "fig6", "fig7", "fig8", "perf-overhead"}
_SUITE_PLANS = {"fig4", "ablation-reliability-awareness", "ablation-mbu",
                "ablation-interleaving"}
#: ablation-region-sizes' sweep of the data-SPM split (P/E/S KB)
_REGION_SPLITS = ((1, 1, 14), (2, 2, 12), (4, 4, 8), (2, 6, 8), (6, 2, 8))
#: spans that wrap the experiment call itself (its remaining work)
_FINAL_SPAN = {"ablation-interleaving": ("ecc.interleave", "ecc"),
               "ablation-scrubbing": ("faults.scrub", "faults")}


class _Probe:
    """Spans and counts around the public EvaluationContext calls."""

    def __init__(self, rec, ctx):
        self.rec = rec
        self.ctx = ctx
        self.case_profiled = False

    def call(self, name, layer, func, *args, **kwargs):
        counters = self.ctx.counters
        before = counters.computes
        with self.rec.span(name, layer):
            value = func(*args, **kwargs)
        return value, counters.computes > before

    def profile(self, program):
        profile, computed = self.call("sim.profile", "sim.profile",
                                      self.ctx.profile_of, program)
        if computed:
            self.rec.count("sim.profile_instr", profile.total_instructions)
        return profile

    def plan(self, profile, structure, **kwargs):
        before = self.ctx.counters.plans
        self.call("core.plan", "core", self.ctx.plan, profile, structure,
                  **kwargs)
        self.rec.count("core.plans", self.ctx.counters.plans - before)

    def run(self, func, *args):
        outcome, computed = self.call("sim.run", "sim.run", func, *args)
        if computed:
            self.rec.count("sim.runs")
            self.rec.count("sim.run_cycles", outcome["cycles"])

    def evaluate(self, profile, structure, **kwargs):
        before = self.ctx.counters.evaluations
        self.call("eval.evaluate", "eval", self.ctx.evaluation, profile,
                  structure, **kwargs)
        self.rec.count("eval.evaluations",
                       self.ctx.counters.evaluations - before)


def _prefetch(probe, name):
    """Drive the context calls experiment ``name`` makes, so each layer's
    work is timed on its own; the experiment then replays them."""
    from repro.config import ftspm_config
    from repro.core.priorities import OptimizationMode, thresholds_for_mode
    from repro.eval.structures import STRUCTURES
    from repro.workloads.case_study import case_study_program
    from repro.workloads.kernels import kernel_names
    from repro.workloads.synthetic import mibench_names

    ctx = probe.ctx

    def suite():
        return [probe.call("workloads.synthetic", "workloads",
                           ctx.synthetic_profile, bench)[0]
                for bench in mibench_names()]

    if name in _CASE:
        if not probe.case_profiled:
            # the context assembles the case study privately, so profile
            # an identical assembly first: the context then hits its memo
            probe.case_profiled = True
            program, _ = probe.call(
                "isa.assemble", "isa", case_study_program,
                CASE_ARRAY_WORDS, CASE_OUTER_ITERATIONS)
            probe.profile(program)
        (program, profile), _ = probe.call(
            "isa.assemble", "isa", ctx.case_study, CASE_ARRAY_WORDS,
            CASE_OUTER_ITERATIONS)
        if name in ("table2", "fig2"):
            probe.plan(profile, "ftspm")
        elif name == "table3":
            for structure in ("baseline-sttram", "ftspm"):
                probe.evaluate(profile, structure)
        elif name == "case-scalars":
            for structure in STRUCTURES:
                probe.plan(profile, structure)
                probe.run(ctx.simulation, program, profile, structure)
    elif name in _SUITE:
        for profile in suite():
            for structure in STRUCTURES:
                probe.evaluate(profile, structure)
    elif name in _SUITE_PLANS:
        for profile in suite():
            probe.plan(profile, "ftspm")
    elif name == "ablation-priorities":
        for mode in OptimizationMode:
            for profile in suite():
                probe.plan(profile, "ftspm",
                           thresholds=thresholds_for_mode(mode))
    elif name == "ablation-region-sizes":
        for split in _REGION_SPLITS:
            for profile in suite():
                probe.evaluate(profile, "ftspm",
                               config=ftspm_config(*split))
    elif name == "kernels-sweep":
        for kernel in kernel_names():
            build, _ = probe.call("isa.assemble", "isa", ctx.kernel_build,
                                  kernel)
            profile = probe.profile(build.program)
            for structure in STRUCTURES:
                probe.plan(profile, structure)
                probe.run(ctx.kernel_run, kernel, structure)


def report_texts(rec, ctx, names, prefetch):
    """``{experiment: title + text}`` for ``names``, run on ``ctx``."""
    from repro.eval.experiments import run_experiment
    from repro.pipeline import using_context

    texts = {}
    probe = _Probe(rec, ctx)
    with using_context(ctx):
        for name in names:
            with rec.span("eval." + name, "eval", op=name):
                if prefetch:
                    _prefetch(probe, name)
                span_name, layer = _FINAL_SPAN.get(name,
                                                   ("eval.render", "eval"))
                with rec.span(span_name, layer):
                    result = run_experiment(name,
                                            **REPORT_PARAMS.get(name, {}))
                texts[name] = result.title + "\n" + result.text
    return texts


def _store_size(root):
    files = size = 0
    for folder, _, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(folder, name))
    return files, size


def run_report(rec, args):
    """One cold report pass on a fresh store, then one warm replay."""
    from repro.eval.report import _SECTIONS
    from repro.pipeline import ArtifactStore, EvaluationContext

    reference = load_references()["report"]
    names = [name for _, section in _SECTIONS for name in section]
    start = time.perf_counter()
    with rec.span("report.cold", "bench", op="cold") as root:
        ctx = EvaluationContext(store=ArtifactStore(args["store"]))
        cold = report_texts(rec, ctx, names, prefetch=rec.enabled)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    with rec.span("pipeline.warm_replay", "pipeline", op="warm"):
        warm_ctx = EvaluationContext(store=ArtifactStore(args["store"]))
        warm = report_texts(rec, warm_ctx, names, prefetch=False)
    warm_s = time.perf_counter() - start

    checks = []
    for label, texts in (("cold", cold), ("warm", warm)):
        wrong = [name for name in names
                 if digest(texts[name]) != reference["experiments"].get(name)]
        whole = digest([texts[name] for name in names])
        checks.append({"op": "report-" + label,
                       "ok": whole == reference["digest"] and not wrong,
                       "detail": "mismatched: %s" % ", ".join(wrong)
                       if wrong else ""})
    files, size = _store_size(args["store"])
    counts = {
        "pipeline.computes": ctx.counters.computes,
        "pipeline.simulations": ctx.counters.simulations,
        "core.plans": ctx.counters.plans,
        "eval.evaluations": ctx.counters.evaluations,
        "pipeline.store_hits": warm_ctx.counters.store_hits,
        "pipeline.warm_computes": warm_ctx.counters.computes,
        "pipeline.store_files": files,
        "pipeline.store_bytes": size,
    }
    result = {"ops": [cold_s], "wall_s": cold_s, "checks": checks,
              "counts": counts, "warm_replay_s": warm_s}
    if rec.enabled:
        layers = {"eval.%s_s" % name: rec.total("eval." + name)
                  for name in names}
        layers["eval.render_s"] = rec.total("eval.render")
        interleave = rec.total("ecc.interleave")
        scrub = rec.total("faults.scrub")
        layers.update({
            "ecc.interleave_s": interleave,
            "ecc.interleave_trials_per_s": (
                INTERLEAVE_WAYS
                * REPORT_PARAMS["ablation-interleaving"]["trials"]
                / interleave),
            "faults.scrub_s": scrub,
            # two protections x five scrub-epoch settings
            "faults.scrub_words_per_s": (
                10 * REPORT_PARAMS["ablation-scrubbing"]["words"] / scrub),
            "pipeline.warm_replay_s": warm_s,
        })
        result["layers"] = _common_layers(rec, layers)
        result["self"] = self_times(rec, root)
    return result


def run_campaign(rec, args):
    """Campaigns at the CLI defaults (jobs=1), one per program, each on a
    fresh EvaluationContext so it pays its golden profiling run."""
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.pipeline import EvaluationContext, using_context
    from repro.workloads.case_study import case_study_program

    reference = load_references()["campaign"]["counts"]
    ops, checks = [], []
    counts = {"sim.profile_instr": 0, "pipeline.computes": 0,
              "pipeline.simulations": 0, "core.plans": 0,
              "campaign.trials": 0, "campaign.shards": 0}
    start = time.perf_counter()
    with rec.span("campaign.pass", "bench", op="pass") as root:
        for program_name, seed in args["inputs"]:
            op_start = time.perf_counter()
            with rec.span("campaign.op", "bench", op=program_name), \
                    using_context(EvaluationContext()) as ctx:
                probe = _Probe(rec, ctx)
                if program_name == "case":
                    program, _ = probe.call(
                        "isa.assemble", "isa", case_study_program,
                        CASE_ARRAY_WORDS, CASE_OUTER_ITERATIONS)
                else:
                    build, _ = probe.call("isa.assemble", "isa",
                                          ctx.kernel_build, program_name)
                    program = build.program
                profile = probe.profile(program)
                if rec.enabled:
                    probe.plan(profile, CAMPAIGN_STRUCTURE)
                with rec.span("campaign.spec", "campaign"):
                    spec = CampaignSpec.from_structure(
                        profile, CAMPAIGN_STRUCTURE, trials=CAMPAIGN_TRIALS,
                        seed=seed)
                with rec.span("campaign.run", "campaign"):
                    summary = CampaignRunner(spec).run()
            ops.append(time.perf_counter() - op_start)
            expected = reference[program_name].get(str(seed))
            ok = (summary.complete
                  and digest(summary.result.to_dict()) == expected)
            checks.append({"op": "%s/%d" % (program_name, seed), "ok": ok,
                           "detail": "" if ok else "counts differ"})
            counts["sim.profile_instr"] += profile.total_instructions
            counts["pipeline.computes"] += ctx.counters.computes
            counts["pipeline.simulations"] += ctx.counters.simulations
            counts["core.plans"] += ctx.counters.plans
            counts["campaign.trials"] += summary.trials_completed
            counts["campaign.shards"] += spec.shard_count
    wall = time.perf_counter() - start
    result = {"ops": ops, "wall_s": wall, "checks": checks,
              "counts": counts}
    if rec.enabled:
        run_s = rec.total("campaign.run")
        result["layers"] = _common_layers(rec, {
            "campaign.spec_s": rec.total("campaign.spec"),
            "campaign.run_s": run_s,
            "campaign.batch_trials_per_s": counts["campaign.trials"] / run_s,
        })
        result["self"] = self_times(rec, root)
    return result


def _common_layers(rec, layers):
    profile_s = rec.total("sim.profile")
    instructions = rec.counts["sim.profile_instr"]
    layers.update({
        "isa.assemble_s": rec.total("isa.assemble"),
        "sim.profile_s": profile_s,
        "sim.profile_instr": instructions,
        "sim.profile_instr_per_s": (instructions / profile_s
                                    if instructions else 0.0),
        "sim.run_s": rec.total("sim.run"),
        "sim.runs": rec.counts["sim.runs"],
        "sim.run_cycles": rec.counts["sim.run_cycles"],
        "core.plan_s": rec.total("core.plan"),
        "eval.evaluate_s": rec.total("eval.evaluate"),
    })
    return layers


WORKLOADS = {"report": run_report, "campaign": run_campaign}


def main(argv):
    print("READY %.9f" % IMPORT_S, flush=True)
    if argv[0] == "probe":
        return 0
    args = json.loads(argv[1])
    rec = Recorder() if args["trace"] else NullRecorder()
    result = WORKLOADS[argv[0]](rec, args)
    result["import_s"] = IMPORT_S
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if rec.enabled:
        rec.write_chrome(args["out"] + ".trace.json")
        with open(args["out"] + ".selftime.txt", "w") as handle:
            handle.write(format_self_times(result["self"],
                                           result["wall_s"]) + "\n")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
