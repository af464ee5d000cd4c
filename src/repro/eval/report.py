"""One-shot reproduction report: every artifact in a single document.

``generate_report`` runs the complete experiment registry (tables,
figures, scalars, ablations) and renders one markdown document with the
regenerated artifacts — the "did the reproduction hold?" deliverable.
Exposed as ``python -m repro report``.

The experiments draw everything from one
:class:`~repro.pipeline.EvaluationContext`, so the report is a single
pass: each unique (workload, structure, config) artifact is computed
exactly once per process, and with ``cache_dir`` set the artifacts are
persisted so a repeat invocation replays them from disk.  Per-experiment
wall-clock accounting comes from :mod:`repro.obs` spans: every
experiment runs inside an ``experiment``-category span, and the
``--timings`` table renders from those spans (``timings`` collects the
``(name, seconds)`` pairs, measured by the span clock).  Timings never
enter the report text, which stays byte-stable for a given codebase and
scale.
"""

from __future__ import annotations

from .. import obs
from .experiments import EXPERIMENTS, run_experiment

_SECTIONS = (
    ("The paper's tables", ("table1", "table2", "table3", "table4")),
    ("The paper's figures", ("fig2", "fig3", "fig4", "fig5", "fig6",
                             "fig7", "fig8")),
    ("Scalar claims", ("case-scalars", "perf-overhead", "static-power")),
    ("Full-simulation validation", ("kernels-sweep",)),
    ("Ablations (beyond the paper)", (
        "ablation-reliability-awareness", "ablation-region-sizes",
        "ablation-priorities", "ablation-mbu", "ablation-interleaving",
        "ablation-scrubbing")),
)

_CASE_EXPERIMENTS = {"table1", "table2", "table3", "fig2", "case-scalars"}


def iter_report_sections(array_words=256, outer_iterations=4,
                         include=None, timings=None, tracer=None):
    """Yield ``(section_title, experiment_result)`` for the whole report.

    Every experiment runs inside an ``experiment``-category span on
    ``tracer`` — the global :func:`repro.obs.current_tracer` when
    tracing is enabled, otherwise (with ``timings`` requested) an
    ephemeral measurement-only tracer.  ``timings``, if given, is a
    list that collects ``(experiment_name, seconds)`` for every
    experiment, read back from the span durations.
    """
    include = set(include) if include else None
    if tracer is None:
        if obs.enabled():
            tracer = obs.current_tracer()
        elif timings is not None:
            tracer = obs.Tracer()  # measure, export nothing
    for title, names in _SECTIONS:
        for name in names:
            if include is not None and name not in include:
                continue
            span = (tracer.span("experiment:%s" % name,
                                category="experiment",
                                attrs={"experiment": name})
                    if tracer is not None else obs.NULL_SPAN)
            with span:
                if name in _CASE_EXPERIMENTS:
                    result = run_experiment(
                        name, array_words=array_words,
                        outer_iterations=outer_iterations)
                else:
                    result = run_experiment(name)
            if timings is not None:
                timings.append((name, span.duration))
            yield title, result


def generate_report(array_words=256, outer_iterations=4, include=None,
                    cache_dir=None, timings=None):
    """Render the full reproduction report as markdown text.

    ``cache_dir`` installs a disk-backed
    :class:`~repro.pipeline.EvaluationContext` as the default for the
    duration of the run, so simulations and Monte-Carlo campaigns are
    persisted across invocations.  The rendered text is identical with
    or without a cache.
    """
    if cache_dir is not None:
        from ..pipeline import EvaluationContext, get_context, using_context
        # Adopt artifacts already computed in this process so enabling
        # the cache never repeats work the default context has done.
        context = EvaluationContext(store=cache_dir).adopt(get_context())
        with using_context(context):
            return _render(array_words, outer_iterations, include, timings)
    return _render(array_words, outer_iterations, include, timings)


def _render(array_words, outer_iterations, include, timings):
    lines = [
        "# FTSPM reproduction report",
        "",
        "Auto-generated by `python -m repro report`.  Case-study scale: "
        "%d-word arrays, %d outer iterations." % (array_words,
                                                  outer_iterations),
        "",
    ]
    current_section = None
    for section, result in iter_report_sections(
            array_words, outer_iterations, include, timings=timings):
        if section != current_section:
            lines.append("## %s" % section)
            lines.append("")
            current_section = section
        lines.append("### %s" % result.title)
        lines.append("")
        lines.append("```")
        lines.append(result.text)
        lines.append("```")
        lines.append("")
    missing = set(EXPERIMENTS) - {
        name for _, names in _SECTIONS for name in names}
    if missing and include is None:
        lines.append("_(experiments not in the report template: %s)_"
                     % ", ".join(sorted(missing)))
        lines.append("")
    return "\n".join(lines)


def experiment_timings(tracer):
    """Extract ``(experiment_name, seconds)`` pairs from a tracer's
    ``experiment``-category spans, in recording order."""
    return [(span.attrs.get("experiment", span.name), span.duration)
            for span in tracer.spans(category="experiment")]


def format_timings(timings):
    """Render a wall-clock table from ``(name, seconds)`` pairs — or
    straight from a :class:`~repro.obs.Tracer`, whose experiment spans
    carry the same measurements."""
    from .tables import render_table
    if isinstance(timings, obs.Tracer):
        timings = experiment_timings(timings)
    total = sum(seconds for _, seconds in timings)
    rows = [[name, "%.2f" % seconds,
             "%.1f%%" % (100 * seconds / total if total else 0.0)]
            for name, seconds in timings]
    rows.append(["total", "%.2f" % total, "100.0%"])
    return render_table(["Experiment", "Wall-clock (s)", "Share"], rows,
                        title="Per-experiment wall-clock")


def write_report(path, **kwargs):
    """Generate the report and write it to ``path``."""
    text = generate_report(**kwargs)
    with open(path, "w") as handle:
        handle.write(text)
    return text
