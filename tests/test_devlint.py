"""``repro devlint``: every dev.* rule fires on a crafted fixture, the
package itself is clean modulo the committed baseline, and the
baseline round-trips (suppress → clean → delete entry → violation)."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.analysis.hostlint import (
    Baseline,
    BaselineEntry,
    DEVLINT_RULES,
    lint_modules,
    lint_package,
    parse_module,
)
from repro.analysis.hostlint.modules import HostlintError
from repro.cli import main
from repro.diagnostics import (
    EXIT_CLEAN,
    EXIT_VIOLATION,
    Severity,
    emit_report,
)
from repro.service.jobs import JobRegistry

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "devlint-baseline.json")


def module(name, source, relpath=None):
    if relpath is None:
        relpath = name.replace(".", "/") + ".py"
    return parse_module(name, source, path=relpath, relpath=relpath)


def _scan_package():
    return lint_package(baseline=Baseline.load(BASELINE_PATH))


@pytest.fixture(scope="session")
def package_scan():
    """One full package scan, shared by the in-process tests."""
    return _scan_package()


def rules_of(*modules):
    report = lint_modules(list(modules))
    return {finding.rule for finding in report.findings}


# --- every rule fires on a fixture ------------------------------------------

def test_unseeded_random_fires():
    rules = rules_of(module("app.draw", (
        "import random\n"
        "def draw():\n"
        "    return random.random()\n")))
    assert "dev.unseeded-random" in rules


def test_unseeded_ctor_fires_and_seeded_does_not():
    fires = rules_of(module("app.rng", (
        "import random\n"
        "def make():\n"
        "    return random.Random()\n")))
    clean = rules_of(module("app.rng", (
        "import random\n"
        "def make():\n"
        "    return random.Random(42)\n")))
    assert "dev.unseeded-random" in fires
    assert "dev.unseeded-random" not in clean


def test_wallclock_to_sink_fires():
    rules = rules_of(module("app.stamp", (
        "import json\n"
        "import time\n"
        "def stamp():\n"
        "    return json.dumps({'t': time.time()}, sort_keys=True)\n")))
    assert "dev.wallclock-to-sink" in rules


def test_wallclock_to_sink_tracks_interprocedural_flow():
    rules = rules_of(module("app.flow", (
        "import json\n"
        "import time\n"
        "def now():\n"
        "    return time.time()\n"
        "def emit():\n"
        "    payload = {'t': now()}\n"
        "    return json.dumps(payload, sort_keys=True)\n")))
    assert "dev.wallclock-to-sink" in rules


def test_env_to_key_fires():
    keys = module("repro.pipeline.keys", (
        "def artifact_key(payload):\n"
        "    return payload\n"), relpath="repro/pipeline/keys.py")
    caller = module("app.keys", (
        "import os\n"
        "from repro.pipeline.keys import artifact_key\n"
        "def key_for():\n"
        "    return artifact_key(os.environ.get('ENGINE'))\n"))
    assert "dev.env-to-key" in rules_of(keys, caller)


def test_unsorted_json_fires_and_sorted_does_not():
    fires = rules_of(module("app.dump", (
        "import json\n"
        "def dump(d):\n"
        "    return json.dumps(d)\n")))
    clean = rules_of(module("app.dump", (
        "import json\n"
        "def dump(d):\n"
        "    return json.dumps(d, sort_keys=True)\n")))
    assert "dev.unsorted-json" in fires
    assert "dev.unsorted-json" not in clean


def test_blocking_in_async_fires():
    rules = rules_of(module("app.loop", (
        "import time\n"
        "async def tick():\n"
        "    time.sleep(1)\n")))
    assert "dev.blocking-in-async" in rules


def test_unpicklable_submit_lambda_fires():
    rules = rules_of(module("app.pool", (
        "import executors\n"
        "def launch(spec):\n"
        "    return executors.WorkerPool.submit(lambda: spec)\n")))
    assert "dev.unpicklable-submit" in rules


def test_unpicklable_submit_closure_fires():
    rules = rules_of(module("app.pool", (
        "import executors\n"
        "def launch():\n"
        "    def work():\n"
        "        return 1\n"
        "    return executors.WorkerPool.submit(work)\n")))
    assert "dev.unpicklable-submit" in rules


def test_module_level_function_submit_is_fine():
    rules = rules_of(module("app.pool", (
        "import executors\n"
        "def work():\n"
        "    return 1\n"
        "def launch():\n"
        "    return executors.WorkerPool.submit(work)\n")))
    assert "dev.unpicklable-submit" not in rules


def test_worker_global_write_fires():
    rules = rules_of(module("app.pool", (
        "import executors\n"
        "COUNT = 0\n"
        "def work():\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
        "def launch():\n"
        "    return executors.WorkerPool.submit(work)\n")))
    assert "dev.worker-global-write" in rules


def test_event_handler_mutation_fires():
    rules = rules_of(module("app.audit", (
        "from repro.events import EventSubscriber\n"
        "class Audit(EventSubscriber):\n"
        "    def on_shard(self, event):\n"
        "        event.items.append(1)\n")))
    assert "dev.event-handler-mutates" in rules


def test_event_handler_reading_is_fine():
    rules = rules_of(module("app.audit", (
        "from repro.events import EventSubscriber\n"
        "class Audit(EventSubscriber):\n"
        "    def __init__(self):\n"
        "        self.seen = []\n"
        "    def on_shard(self, event):\n"
        "        self.seen.append(event.index)\n")))
    assert "dev.event-handler-mutates" not in rules


def test_unsorted_walk_fires_and_sorted_does_not():
    fires = rules_of(module("app.fs", (
        "import os\n"
        "def names(d):\n"
        "    out = []\n"
        "    for n in os.listdir(d):\n"
        "        out.append(n)\n"
        "    return out\n")))
    wrapped = rules_of(module("app.fs", (
        "import os\n"
        "def names(d):\n"
        "    return sorted(os.listdir(d))\n")))
    resorted = rules_of(module("app.fs", (
        "import os\n"
        "def names(d):\n"
        "    out = []\n"
        "    for root, dirs, files in os.walk(d):\n"
        "        dirs.sort()\n"
        "        out.extend(files)\n"
        "    return out\n")))
    assert "dev.unsorted-walk" in fires
    assert "dev.unsorted-walk" not in wrapped
    assert "dev.unsorted-walk" not in resorted


def test_print_in_library_fires_and_stream_does_not():
    fires = rules_of(module("repro.util", (
        "def show(x):\n"
        "    print(x)\n"), relpath="repro/util.py"))
    clean = rules_of(module("repro.util", (
        "import sys\n"
        "def show(x):\n"
        "    print(x, file=sys.stderr)\n"), relpath="repro/util.py"))
    assert "dev.print-in-library" in fires
    assert "dev.print-in-library" not in clean


def test_mutable_default_fires():
    rules = rules_of(module("app.bucket", (
        "def add(item, bucket=[]):\n"
        "    bucket.append(item)\n"
        "    return bucket\n")))
    assert "dev.mutable-default" in rules


def test_wallclock_outside_obs_fires_as_info():
    report = lint_modules([module("app.clock", (
        "import time\n"
        "def tick():\n"
        "    return time.time()\n"))])
    infos = [finding for finding in report.findings
             if finding.rule == "dev.wallclock-outside-obs"]
    assert infos and all(
        finding.severity is Severity.INFO for finding in infos)


def test_every_rule_has_a_severity_and_description():
    for rule, (severity, title) in DEVLINT_RULES.items():
        assert rule.startswith("dev.")
        assert isinstance(severity, Severity)
        assert title


def test_clean_module_has_no_findings():
    report = lint_modules([module("app.clean", (
        "import json\n"
        "import random\n"
        "def run(seed):\n"
        "    rng = random.Random(seed)\n"
        "    return json.dumps({'v': rng.random()}, sort_keys=True)\n"))])
    assert report.clean
    assert report.exit_code == EXIT_CLEAN


# --- the package itself, modulo the committed baseline ----------------------

def test_package_is_clean_modulo_baseline(package_scan):
    report = package_scan
    assert report.clean, report.to_text()
    assert report.exit_code == EXIT_CLEAN
    assert report.baselined  # the suppressions actually match code


def test_committed_baseline_entries_are_justified():
    baseline = Baseline.load(BASELINE_PATH)
    assert baseline.entries
    for entry in baseline.entries:
        assert entry.justification
        assert "TODO" not in entry.justification, entry.describe()


def test_package_scan_is_deterministic(package_scan):
    # the report lists every finding, baselined or not
    assert package_scan.to_json() == _scan_package().to_json()


# --- baseline round-trip ----------------------------------------------------

FIXTURE = (
    "import json\n"
    "def dump(d):\n"
    "    return json.dumps(d)\n")


def test_baseline_round_trip(tmp_path):
    dirty = lint_modules([module("app.dump", FIXTURE)])
    assert dirty.findings and dirty.exit_code == EXIT_VIOLATION

    baseline = Baseline.from_findings(dirty.findings,
                                      justification="known; tracked")
    path = tmp_path / "baseline.json"
    baseline.save(str(path))

    suppressed = lint_modules([module("app.dump", FIXTURE)],
                              baseline=Baseline.load(str(path)))
    assert suppressed.clean
    assert suppressed.exit_code == EXIT_CLEAN
    assert len(suppressed.baselined) == len(dirty.findings)

    # deleting the entry re-raises the violation
    again = lint_modules([module("app.dump", FIXTURE)],
                         baseline=Baseline())
    assert again.findings and again.exit_code == EXIT_VIOLATION


def test_stale_baseline_entry_is_a_violation():
    stale = Baseline(entries=[BaselineEntry(
        rule="dev.unsorted-json", file="app/dump.py", block="dump",
        snippet="return json.dumps(d, sort_keys=True)", line=3,
        justification="excuses nothing")])
    report = lint_modules(
        [module("app.dump", (
            "import json\n"
            "def dump(d):\n"
            "    return json.dumps(d, sort_keys=True)\n"))],
        baseline=stale)
    assert report.stale
    assert report.exit_code == EXIT_VIOLATION


def test_baseline_entries_for_unscanned_files_are_ignored():
    other = Baseline(entries=[BaselineEntry(
        rule="dev.unsorted-json", file="elsewhere/far.py", block="f",
        snippet="json.dumps(d)", line=1, justification="other file")])
    report = lint_modules(
        [module("app.clean", "X = 1\n")], baseline=other)
    assert report.clean


def test_baseline_requires_justification():
    payload = {"schema": 1, "entries": [{
        "rule": "dev.unsorted-json", "file": "a.py", "block": "f",
        "snippet": "json.dumps(d)", "line": 1, "justification": "  "}]}
    with pytest.raises(HostlintError):
        Baseline.from_dict(payload)


def test_baseline_rejects_unknown_schema():
    with pytest.raises(HostlintError):
        Baseline.from_dict({"schema": 99, "entries": []})


def test_baseline_matching_ignores_line_numbers():
    dirty = lint_modules([module("app.dump", FIXTURE)])
    moved = Baseline(entries=[
        BaselineEntry(rule=finding.rule, file=finding.source,
                      block=finding.block, snippet=finding.snippet,
                      line=999, justification="reflowed file")
        for finding in dirty.findings])
    report = lint_modules([module("app.dump", FIXTURE)],
                          baseline=moved)
    assert report.clean


def test_suppression_is_one_for_one():
    doubled = (
        "import json\n"
        "def dump(d):\n"
        "    json.dumps(d)\n"
        "    json.dumps(d)\n")
    dirty = lint_modules([module("app.dump", doubled)])
    assert len(dirty.findings) == 2
    one = Baseline.from_findings(dirty.findings[:1],
                                 justification="only the first")
    report = lint_modules([module("app.dump", doubled)], baseline=one)
    assert len(report.findings) == 1
    assert len(report.baselined) == 1


# --- CLI + shared exit/JSON contract ----------------------------------------

def test_cli_list_rules(capsys):
    assert main(["devlint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in DEVLINT_RULES:
        assert rule in out


def test_cli_package_scan_with_committed_baseline(capsys):
    assert main(["devlint", "--baseline", BASELINE_PATH]) == 0
    assert "baselined" in capsys.readouterr().out


def test_cli_no_baseline_reports_known_findings(capsys):
    code = main(["devlint", "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_VIOLATION
    assert payload["exit_code"] == EXIT_VIOLATION
    assert payload["findings"]
    assert payload["schema"] == 1


def test_cli_single_file_scan(tmp_path, capsys):
    target = tmp_path / "fixture.py"
    target.write_text(FIXTURE)
    code = main(["devlint", str(target), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATION
    assert "dev.unsorted-json" in out


def test_cli_out_writes_json_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["devlint", "--baseline", BASELINE_PATH,
                 "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["exit_code"] == 0


def test_emit_report_contract(tmp_path):
    class FakeReport:
        exit_code = EXIT_VIOLATION

        def to_text(self):
            return "text body"

        def to_json(self):
            return '{"ok": true}'

    stream, errors = io.StringIO(), io.StringIO()
    out_path = tmp_path / "r.json"
    code = emit_report(FakeReport(), fmt="text", out=str(out_path),
                       stream=stream, error_stream=errors)
    assert code == EXIT_VIOLATION
    assert "text body" in stream.getvalue()
    # --out always archives JSON, and the notice follows the text stream
    assert out_path.read_text().startswith('{"ok": true}')
    assert "wrote" in stream.getvalue()
    assert errors.getvalue() == ""


def test_reports_share_the_exit_code_contract():
    from repro.analysis import LintReport
    from repro.diff.differ import DiffSetReport, DiffThresholds

    assert LintReport(source="x").exit_code == EXIT_CLEAN
    diff_report = DiffSetReport(thresholds=DiffThresholds())
    assert diff_report.exit_code == EXIT_CLEAN
    assert hasattr(diff_report, "to_text")
    assert hasattr(diff_report, "to_json")


# --- the injectable clock the checker demanded ------------------------------

class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        self.now += 1.0
        return self.now


def test_job_timestamps_come_from_the_injected_clock():
    registry = JobRegistry(clock=FakeClock())
    job = registry.create("mapping", {"workload": "case"}, key="k1")
    assert job.submitted_at == 101.0
    job.mark_done({"ok": True})
    assert job.finished_at == 102.0
    status = job.to_status()
    assert status["submitted_at"] == 101.0
    assert status["finished_at"] == 102.0


def test_job_status_is_deterministic_under_a_pinned_clock():
    def run():
        registry = JobRegistry(clock=FakeClock())
        job = registry.create("campaign", {"trials": 10}, key="k2")
        job.mark_running()
        job.mark_failed("boom")
        return json.dumps(job.to_status(), sort_keys=True)

    assert run() == run()


def test_service_threads_the_clock_into_its_registry():
    from repro.service.app import ReproService

    clock = FakeClock()
    service = ReproService(clock=clock)
    try:
        job = service.registry.create("lint", {}, key="k3")
        assert job.submitted_at == 101.0
    finally:
        service.scheduler.close()
