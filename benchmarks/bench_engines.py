"""Cross-engine throughput: cold report under reference vs fast.

Times :func:`repro.eval.report.generate_report` twice from a cold
pipeline — once per engine — over the simulation-bound experiment
subset, asserts the fast engine clears the 2x bar, verifies the two
rendered reports are byte-identical, and writes the evidence to
``benchmarks/reports/engine-speedup.txt``.

The subset holds every experiment whose cost is dominated by
cycle-accurate execution: the case-study tables and figure, the
case scalars, and the kernels sweep.  The remaining report sections are
dominated by ECC Monte-Carlo campaigns and analytic models that never
execute an instruction, so they dilute an engine comparison without
informing it; the report file records that exclusion.

Runs standalone (``python benchmarks/bench_engines.py``) or under
pytest alongside the other benchmarks.
"""

from __future__ import annotations

import os
import time

from repro.eval.report import generate_report
from repro.pipeline.context import EvaluationContext, using_context

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

#: experiments whose runtime is simulator-bound (everything else in the
#: report is Monte-Carlo- or analytics-bound and engine-independent)
SIM_BOUND = ("table1", "table2", "table3", "fig2", "case-scalars",
             "kernels-sweep")

SPEEDUP_FLOOR = 2.0


def _cold_report(engine):
    """Render the sim-bound report subset from an empty pipeline."""
    with using_context(EvaluationContext(engine=engine)):
        start = time.perf_counter()
        text = generate_report(include=list(SIM_BOUND))
        elapsed = time.perf_counter() - start
    return elapsed, text


def measure():
    reference_s, reference_text = _cold_report("reference")
    fast_s, fast_text = _cold_report("fast")
    return {
        "reference_s": reference_s,
        "fast_s": fast_s,
        "speedup": reference_s / fast_s,
        "identical": reference_text == fast_text,
    }


def render(result):
    lines = [
        "engine speedup: cold `repro report` on the simulation-bound",
        "experiment subset (%s)" % ", ".join(SIM_BOUND),
        "",
        "  reference engine : %7.2f s" % result["reference_s"],
        "  fast engine      : %7.2f s" % result["fast_s"],
        "  speedup          : %7.2fx (floor: %.1fx)"
        % (result["speedup"], SPEEDUP_FLOOR),
        "  rendered reports byte-identical: %s" % result["identical"],
        "",
        "Scope note: the full report additionally runs the ECC/MBU",
        "Monte-Carlo campaigns and analytic sweeps, which execute no",
        "instructions and therefore cost the same under either engine;",
        "they are excluded so the comparison measures the simulator.",
        "Both engines render byte-identical report text, so the numbers",
        "above are a pure throughput delta, not a results delta.",
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
    assert result["identical"], "engines rendered different reports"
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        "fast engine speedup %.2fx below the %.1fx floor"
        % (result["speedup"], SPEEDUP_FLOOR))


if __name__ == "__main__":
    outcome = measure()
    print(render(outcome))
    print("\nwrote %s" % persist(outcome))
