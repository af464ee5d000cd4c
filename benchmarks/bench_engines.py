"""Cross-engine throughput: the golden simulations, reference vs fast.

For every golden workload (the seven bundled kernels plus the case
study) the benchmark times the simulator work a cold run does: the
profiling run on the baseline platform with a
:class:`~repro.profile.profiler.Profiler` attached, and the placed run
on the FTSPM structure with its DMA schedule and energy models.  Each
engine is driven directly through ``Machine(..., engine=...)``; plans
are computed once, outside the timed region.

It asserts the two engines produce identical profile fingerprints and
identical :func:`~repro.sim.diffcheck.machine_digest` outcomes, that the
fast engine clears the 2x bar, and writes the evidence to
``benchmarks/reports/engine-speedup.txt``.

Runs standalone (``python benchmarks/bench_engines.py``) or under
pytest alongside the other benchmarks.
"""

from __future__ import annotations

import os
import platform
import time

from repro.config import baseline_sram_config
from repro.core.online import schedule_for_plan
from repro.pipeline.context import EvaluationContext
from repro.pipeline.keys import profile_fingerprint
from repro.profile.profiler import Profiler
from repro.sim.diffcheck import (
    GOLDEN_CASE_ARRAY_WORDS,
    GOLDEN_CASE_OUTER_ITERATIONS,
    GOLDEN_STRUCTURE,
    golden_names,
    machine_digest,
)
from repro.sim.machine import Machine
from repro.tech.nvsim_lite import energy_models_for

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

SPEEDUP_FLOOR = 2.0

#: timed passes per engine; the fastest pass is reported
REPEATS = 3


def golden_workloads():
    """``(name, program, placed config, schedule, energy models)`` for
    every golden workload, planned once on one pipeline context."""
    context = EvaluationContext()
    workloads = []
    for name in golden_names():
        if name == "case":
            program, profile = context.case_study(
                GOLDEN_CASE_ARRAY_WORDS, GOLDEN_CASE_OUTER_ITERATIONS)
        else:
            program = context.kernel_build(name.split(":", 1)[1]).program
            profile = context.profile_of(program)
        config, plan, _ = context.plan(profile, GOLDEN_STRUCTURE)
        workloads.append((name, program, config,
                          schedule_for_plan(plan, profile),
                          energy_models_for(config)))
    return workloads


def _simulate(workloads, engine):
    """One timed pass: every profiling run and placed run on ``engine``.

    Returns ``(profiling seconds, placed seconds, profiles, placed
    machines)``; fingerprints and digests are taken by the caller,
    outside the timed region.
    """
    profiles, machines = {}, {}
    profiling_s = placed_s = 0.0
    for name, program, config, schedule, models in workloads:
        start = time.perf_counter()
        machine = Machine(program, baseline_sram_config(), engine=engine)
        profiler = Profiler(machine).attach()
        machine.run()
        profiles[name] = profiler.finish()
        profiling_s += time.perf_counter() - start
        start = time.perf_counter()
        placed = Machine(program, config, energy_models=models,
                         schedule=schedule, engine=engine)
        placed.run()
        placed_s += time.perf_counter() - start
        machines[name] = placed
    return profiling_s, placed_s, profiles, machines


def _best_of(workloads, engine):
    """The fastest of :data:`REPEATS` passes, as ``(total, profiling,
    placed)`` seconds, plus the last pass's fingerprints and digests."""
    passes = []
    for _ in range(REPEATS):
        profiling_s, placed_s, profiles, machines = _simulate(workloads,
                                                              engine)
        passes.append((profiling_s + placed_s, profiling_s, placed_s))
    fingerprints = {name: profile_fingerprint(profile)
                    for name, profile in profiles.items()}
    digests = {name: machine_digest(machine)
               for name, machine in machines.items()}
    return min(passes), fingerprints, digests


def measure():
    workloads = golden_workloads()
    reference, reference_profiles, reference_digests = _best_of(
        workloads, "reference")
    fast, fast_profiles, fast_digests = _best_of(workloads, "fast")
    return {
        "workloads": [entry[0] for entry in workloads],
        "reference_s": reference[0],
        "fast_s": fast[0],
        "speedup": reference[0] / fast[0],
        "profiling_s": (reference[1], fast[1]),
        "placed_s": (reference[2], fast[2]),
        "profiles_identical": reference_profiles == fast_profiles,
        "digests_identical": reference_digests == fast_digests,
    }


def render(result):
    lines = [
        "engine speedup: the golden simulations (a profiling run with a",
        "Profiler attached, then the FTSPM placed run) of every golden",
        "workload: %s" % ", ".join(result["workloads"][:4]) + ",",
        "  %s" % ", ".join(result["workloads"][4:]),
        "",
        "  reference engine : %7.2f s" % result["reference_s"],
        "  fast engine      : %7.2f s" % result["fast_s"],
        "  speedup          : %7.2fx (floor: %.1fx)"
        % (result["speedup"], SPEEDUP_FLOOR),
        "    profiling runs : %7.2f s -> %5.2f s (%.2fx)"
        % (result["profiling_s"] + (result["profiling_s"][0]
                                     / result["profiling_s"][1],)),
        "    placed runs    : %7.2f s -> %5.2f s (%.2fx)"
        % (result["placed_s"] + (result["placed_s"][0]
                                  / result["placed_s"][1],)),
        "  profile fingerprints identical: %s"
        % result["profiles_identical"],
        "  placed-run machine digests identical: %s"
        % result["digests_identical"],
        "  host             : %d core(s), %s, Python %s"
        % (os.cpu_count() or 1, platform.machine(),
           platform.python_version()),
        "",
        "Each engine is timed over %d passes and the fastest pass (by"
        % REPEATS,
        "total) is kept with its per-phase split (reference -> fast).",
        "Plans are computed once, outside the timed region.  The profiler",
        "subscribes to the event bus, so profiling runs hold the fast",
        "engine in its granular per-access mode; placed runs retire whole",
        "predecoded blocks.  Identical fingerprints and digests make the",
        "numbers above a pure throughput delta, not a results delta.",
    ]
    return "\n".join(lines)


def persist(result):
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, "engine-speedup.txt")
    with open(path, "w") as handle:
        handle.write(render(result) + "\n")
    return path


def test_fast_engine_clears_speedup_floor():
    result = measure()
    persist(result)
    assert result["profiles_identical"], "engines profiled differently"
    assert result["digests_identical"], "engines' placed runs diverged"
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        "fast engine speedup %.2fx below the %.1fx floor"
        % (result["speedup"], SPEEDUP_FLOOR))


if __name__ == "__main__":
    outcome = measure()
    print(render(outcome))
    print("\nwrote %s" % persist(outcome))
