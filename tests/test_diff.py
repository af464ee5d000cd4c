"""The structural mapping differ: core semantics, the golden mapping
corpus gate, cross-knob identity, and the ``repro diff`` CLI contract.

The acceptance test for the whole feature is
:class:`TestRegionSplitPerturbation`: perturb one region split of the
FTSPM data SPM and assert the differ reports *exactly* the block swaps
the two MDA runs actually made (computed independently from the plans'
assignment tables), with the cost deltas attached.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.cli import main as cli_main
from repro.config import ftspm_config
from repro.diff import (
    BlockPlacement,
    DiffSetReport,
    DiffThresholds,
    MappingSnapshot,
    SchemaError,
    apply_moves,
    build_snapshot,
    check_mapping_golden,
    compute_snapshot,
    diff_snapshots,
    load_snapshot,
    snapshot_names,
    snapshot_path,
    validate,
    validate_report,
)
from repro.errors import ReproError
from repro.eval.structures import evaluate_structure
from repro.pipeline import get_context
from repro.sim.diffcheck import golden_names

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
MAPPINGS_DIR = os.path.join(TESTS_DIR, "golden", "mappings")
SCHEMA_PATH = os.path.join(os.path.dirname(TESTS_DIR), "docs",
                           "schemas", "diff-report.schema.json")

_PROTECTION_OF = {
    "dspm-parity": "parity",
    "dspm-secded": "sec-ded",
    "dspm-stt": "immune",
    "ispm-stt": "immune",
}


def make_snapshot(placements, metrics=None, workload="w",
                  flavor="dynamic"):
    """Tiny snapshot builder: ``{name: region-or-None}`` -> snapshot."""
    blocks = {}
    for name, region in placements.items():
        blocks[name] = BlockPlacement(
            name=name, kind="data", size=64, region=region,
            protection=_PROTECTION_OF.get(region),
            address=None if region is None else 0)
    return MappingSnapshot(
        workload=workload, structure="ftspm", profile_flavor=flavor,
        blocks=blocks, regions={}, metrics=dict(metrics or {}))


class TestDifferCore:
    def test_identity_diff_is_empty(self):
        snapshot = make_snapshot({"A": "dspm-stt", "B": None},
                                 {"cycles": 100.0})
        diff = diff_snapshots(snapshot, snapshot)
        assert diff.is_identical
        assert diff.structural_changes == 0
        assert diff.summary().endswith("identical")

    def test_region_move_detection(self):
        a = make_snapshot({"A": "dspm-secded", "B": "dspm-stt"})
        b = make_snapshot({"A": "dspm-parity", "B": "dspm-stt"})
        diff = diff_snapshots(a, b)
        assert [m.block for m in diff.moves] == ["A"]
        move = diff.moves[0]
        assert move.from_region == "dspm-secded"
        assert move.to_region == "dspm-parity"
        assert move.from_label == "SEC-DED"
        assert move.to_label == "parity"
        assert "1 block moved SEC-DED->parity" in diff.summary()

    def test_unmapping_is_a_move_to_cache(self):
        a = make_snapshot({"A": "dspm-stt"})
        b = make_snapshot({"A": None})
        diff = diff_snapshots(a, b)
        assert diff.moves[0].to_region is None
        assert diff.moves[0].to_label == "cache"

    def test_added_and_removed_blocks(self):
        a = make_snapshot({"A": "dspm-stt", "Old": "dspm-parity"})
        b = make_snapshot({"A": "dspm-stt", "New": "dspm-secded"})
        diff = diff_snapshots(a, b)
        assert [p.name for p in diff.added] == ["New"]
        assert [p.name for p in diff.removed] == ["Old"]
        assert not diff.moves

    def test_reshaped_block(self):
        a = make_snapshot({"A": "dspm-stt"})
        b = make_snapshot({"A": "dspm-stt"})
        b.blocks["A"] = BlockPlacement(name="A", kind="data", size=128,
                                       region="dspm-stt",
                                       protection="immune", address=0)
        diff = diff_snapshots(a, b)
        assert not diff.moves
        assert [(c.block, c.attribute, c.a_value, c.b_value)
                for c in diff.reshaped] == [("A", "size", 64, 128)]

    def test_metric_deltas_and_formatting(self):
        a = make_snapshot({}, {"cycles": 100.0, "vulnerability": 0.0,
                               "dynamic_energy": 2.0})
        b = make_snapshot({}, {"cycles": 104.1, "vulnerability": 0.5,
                               "dynamic_energy": 2.0})
        diff = diff_snapshots(a, b)
        cycles = diff.metric("cycles")
        assert cycles.delta == pytest.approx(4.1)
        assert cycles.format_relative() == "+4.1%"
        assert diff.metric("vulnerability").format_relative() == "+inf%"
        assert diff.metric("dynamic_energy").format_relative() == "0%"
        assert not diff.is_identical  # metric-only change still dirty

    def test_inverse_swaps_everything(self):
        a = make_snapshot({"A": "dspm-stt", "Old": None},
                          {"cycles": 100.0})
        b = make_snapshot({"A": "dspm-parity", "New": None},
                          {"cycles": 120.0})
        diff = diff_snapshots(a, b, a_label="x", b_label="y", key="k")
        backward = diff_snapshots(b, a, a_label="y", b_label="x",
                                  key="k")
        assert diff.inverse().to_dict() == backward.to_dict()

    def test_inverse_of_a_move_that_also_reshaped(self):
        # The reversed move must carry the original shape, not the
        # destination's — hypothesis found this one.
        a = make_snapshot({"Main": "dspm-parity"})
        b = make_snapshot({"Main": "dspm-secded"})
        b.blocks["Main"] = BlockPlacement(
            name="Main", kind="code", size=8, region="dspm-secded",
            protection="sec-ded", address=0)
        forward = diff_snapshots(a, b, a_label="x", b_label="y",
                                 key="k")
        backward = diff_snapshots(b, a, a_label="y", b_label="x",
                                  key="k")
        assert forward.inverse().to_dict() == backward.to_dict()
        assert forward.inverse().moves[0].kind == "data"
        assert forward.inverse().moves[0].size == 64

    def test_apply_moves_reproduces_b(self):
        a = make_snapshot({"A": "dspm-stt", "B": "dspm-secded",
                           "Old": None})
        b = make_snapshot({"A": "dspm-parity", "B": "dspm-secded",
                           "New": "dspm-stt"})
        diff = diff_snapshots(a, b)
        assert apply_moves(a.assignment_table(), diff) == \
            b.assignment_table()


class TestThresholds:
    def test_default_is_strict(self):
        a = make_snapshot({"A": "dspm-stt"}, {"cycles": 100.0})
        b = make_snapshot({"A": "dspm-parity"}, {"cycles": 100.5})
        violations = DiffThresholds().violations(diff_snapshots(a, b))
        rules = {finding.rule for finding in violations}
        assert rules == {"diff.blocks-moved", "diff.metric-drift"}

    def test_allow_moves_admits_region_moves(self):
        a = make_snapshot({"A": "dspm-stt"})
        b = make_snapshot({"A": "dspm-parity"})
        thresholds = DiffThresholds(max_moves=1)
        assert thresholds.violations(diff_snapshots(a, b)) == []

    def test_metric_tolerance_admits_drift(self):
        a = make_snapshot({}, {"cycles": 100.0})
        b = make_snapshot({}, {"cycles": 104.0})
        loose = DiffThresholds(tolerances={"cycles": 0.05})
        tight = DiffThresholds(tolerances={"cycles": 0.03})
        diff = diff_snapshots(a, b)
        assert loose.violations(diff) == []
        assert len(tight.violations(diff)) == 1

    def test_ungated_metrics_never_violate(self):
        a = make_snapshot({}, {"runtime_seconds": 1.0,
                               "max_cell_write_rate": 5.0})
        b = make_snapshot({}, {"runtime_seconds": 2.0,
                               "max_cell_write_rate": 9.0})
        assert DiffThresholds().violations(diff_snapshots(a, b)) == []

    def test_added_blocks_always_violate(self):
        a = make_snapshot({})
        b = make_snapshot({"New": "dspm-stt"})
        thresholds = DiffThresholds(max_moves=99,
                                    tolerances={"cycles": 9.9})
        rules = {f.rule for f in
                 thresholds.violations(diff_snapshots(a, b))}
        assert rules == {"diff.blocks-added"}

    def test_report_statuses_and_exit_codes(self):
        report = DiffSetReport(thresholds=DiffThresholds(max_moves=9))
        same = make_snapshot({"A": "dspm-stt"})
        moved = make_snapshot({"A": "dspm-parity"})
        assert report.add("clean", diff_snapshots(same, same)).status \
            == "clean"
        assert report.add("drift", diff_snapshots(same, moved)).status \
            == "drift"
        assert report.exit_code == 0
        strict = DiffSetReport(thresholds=DiffThresholds())
        strict.add("bad", diff_snapshots(same, moved))
        assert strict.exit_code == 1
        strict.add_problem("broken", "missing file")
        assert strict.exit_code == 2
        aggregate = strict.aggregate()
        assert aggregate["total_moves"] == 1
        assert aggregate["status_counts"]["error"] == 1


class TestSnapshotModel:
    def test_roundtrip(self):
        snapshot = make_snapshot({"A": "dspm-stt", "B": None},
                                 {"cycles": 123.5})
        assert MappingSnapshot.from_dict(snapshot.to_dict()) == snapshot

    def test_schema_mismatch_rejected(self):
        payload = make_snapshot({}).to_dict()
        payload["schema"] = 99
        with pytest.raises(ReproError, match="schema"):
            MappingSnapshot.from_dict(payload)

    def test_duplicate_block_rejected(self):
        payload = make_snapshot({"A": None}).to_dict()
        payload["blocks"].append(payload["blocks"][0])
        with pytest.raises(ReproError, match="duplicate"):
            MappingSnapshot.from_dict(payload)


class TestRegionSplitPerturbation:
    """The acceptance case: one region-split change, exact move-set."""

    def _snapshots(self, workload, perturbed_config):
        context = get_context()
        _, profile = context.resolve_workload(workload, array_words=96,
                                              outer_iterations=2)
        baseline = evaluate_structure(profile, "ftspm")
        perturbed = evaluate_structure(profile, "ftspm",
                                       config=perturbed_config)
        return (profile, build_snapshot(profile, baseline),
                build_snapshot(profile, perturbed),
                baseline.plan, perturbed.plan)

    @pytest.mark.parametrize("workload", ["case", "kernel:matmul"])
    def test_reported_moves_match_the_plans_known_swaps(self, workload):
        _, a, b, plan_a, plan_b = self._snapshots(
            workload, ftspm_config(parity_kb=2, secded_kb=2, stt_kb=1))
        diff = diff_snapshots(a, b)
        # The ground truth, computed independently of the differ: every
        # block whose region differs between the two MDA plans.
        table_a, table_b = (plan_a.assignment_table(),
                            plan_b.assignment_table())
        expected = {(name, table_a[name], table_b[name])
                    for name in table_a
                    if table_a[name] != table_b[name]}
        reported = {(m.block, m.from_region, m.to_region)
                    for m in diff.moves}
        assert reported == expected
        assert reported, "perturbation must actually move blocks"
        assert not diff.added and not diff.removed and not diff.reshaped
        # ... and the cost of the move-set is attached: shrinking the
        # immune STT region must raise analytic vulnerability.
        assert diff.metric("vulnerability").delta > 0
        assert apply_moves(a.assignment_table(), diff) == \
            b.assignment_table()

    def test_identical_configs_diff_empty(self):
        _, a, b, _, _ = self._snapshots("kernel:crc32", ftspm_config())
        assert diff_snapshots(a, b).is_identical


class TestGoldenMappingCorpus:
    """The regression gate: HEAD reproduces every committed snapshot."""

    def test_corpus_is_complete(self):
        for workload, flavor in snapshot_names():
            path = snapshot_path(MAPPINGS_DIR, workload, flavor)
            assert os.path.exists(path), \
                "missing %s (run: repro golden --update)" % path

    def test_head_matches_every_committed_snapshot(self):
        report = check_mapping_golden(MAPPINGS_DIR,
                                      context=get_context())
        problems = {entry.key: (entry.problem or entry.diff.summary())
                    for entry in report.entries
                    if entry.status != "clean"}
        assert not problems, problems
        assert report.exit_code == 0
        assert len(report.entries) == 2 * len(golden_names())

    def test_committed_snapshots_self_diff_empty(self):
        for workload, flavor in snapshot_names():
            snapshot = load_snapshot(
                snapshot_path(MAPPINGS_DIR, workload, flavor))
            assert diff_snapshots(snapshot, snapshot).is_identical


class TestCrossKnobIdentity:
    """The engine knob must not move a single block."""

    @pytest.mark.parametrize("workload", ["kernel:crc32", "case"])
    def test_engines_produce_identical_mappings(self, workload):
        reference = compute_snapshot(workload, engine="reference")
        fast = compute_snapshot(workload, engine="fast")
        diff = diff_snapshots(reference, fast, a_label="reference",
                              b_label="fast")
        assert diff.is_identical, diff.summary()

    def test_provenance_is_recorded_but_never_diffed(self):
        a = compute_snapshot("kernel:crc32", engine="reference")
        b = compute_snapshot("kernel:crc32", engine="fast")
        assert a.provenance["engine"] == "reference"
        assert b.provenance["engine"] == "fast"
        assert diff_snapshots(a, b).is_identical


class TestSchemaValidator:
    def test_accepts_valid_instances(self):
        validate({"n": 3}, {"type": "object",
                            "properties": {"n": {"type": "integer"}},
                            "required": ["n"]})

    def test_rejects_type_and_enum_violations(self):
        with pytest.raises(SchemaError, match="expected type"):
            validate("x", {"type": "integer"})
        with pytest.raises(SchemaError, match="enum"):
            validate("x", {"enum": ["y", "z"]})
        with pytest.raises(SchemaError, match="required"):
            validate({}, {"type": "object", "required": ["n"]})
        with pytest.raises(SchemaError, match="additional"):
            validate({"x": 1}, {"type": "object", "properties": {},
                                "additionalProperties": False})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})

    def test_unsupported_keyword_is_refused(self):
        with pytest.raises(SchemaError, match="unsupported"):
            validate(1, {"oneOf": [{"type": "integer"}]})


class TestCliContract:
    """Exit-code semantics, JSON schema, threshold flags, error paths."""

    @pytest.fixture()
    def corpus_pair(self, tmp_path):
        """A committed snapshot plus a structurally perturbed copy."""
        source = snapshot_path(MAPPINGS_DIR, "case", "dynamic")
        same = tmp_path / "same.json"
        shutil.copyfile(source, same)
        payload = json.loads(open(source).read())
        for entry in payload["blocks"]:
            if entry["region"] == "dspm-secded":
                entry["region"] = "dspm-parity"
                entry["protection"] = "parity"
                break
        else:
            pytest.fail("corpus case snapshot has no SEC-DED block")
        payload["metrics"]["vulnerability"] *= 1.05
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(payload))
        return str(same), str(perturbed)

    def test_identical_files_exit_zero(self, corpus_pair, capsys):
        same, _ = corpus_pair
        assert cli_main(["diff", same, same]) == 0
        assert "CLEAN (exit 0)" in capsys.readouterr().out

    def test_perturbed_file_exits_one_with_moves(self, corpus_pair,
                                                 capsys):
        same, perturbed = corpus_pair
        assert cli_main(["diff", same, perturbed]) == 1
        out = capsys.readouterr().out
        assert "1 block moved SEC-DED->parity" in out
        assert "diff.blocks-moved" in out
        assert "vulnerability +5.0%" in out

    def test_threshold_flags_flip_violation_to_clean(self, corpus_pair,
                                                     capsys):
        same, perturbed = corpus_pair
        assert cli_main(["diff", same, perturbed,
                         "--allow-moves", "1",
                         "--tol-vulnerability", "6"]) == 0
        out = capsys.readouterr().out
        assert "0 violation" in out
        assert "1 drift" in out  # tolerated, but still reported

    def test_missing_snapshot_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli_main(["diff", missing, missing]) == 2
        assert "missing mapping snapshot" in capsys.readouterr().out

    def test_file_vs_directory_exits_two(self, corpus_pair, tmp_path,
                                         capsys):
        same, _ = corpus_pair
        assert cli_main(["diff", same, str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_positional_exits_two(self, corpus_pair, capsys):
        same, _ = corpus_pair
        assert cli_main(["diff", same]) == 2
        assert "two snapshot paths" in capsys.readouterr().err

    def test_directory_mode_aligns_by_filename(self, corpus_pair,
                                               tmp_path, capsys):
        same, perturbed = corpus_pair
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        shutil.copyfile(same, a_dir / "case.json")
        shutil.copyfile(perturbed, b_dir / "case.json")
        shutil.copyfile(same, a_dir / "only-in-a.json")
        assert cli_main(["diff", str(a_dir), str(b_dir)]) == 2
        out = capsys.readouterr().out
        assert "1 block moved SEC-DED->parity" in out
        assert "only-in-a.json: ERROR" in out

    def test_json_output_validates_against_schema(self, corpus_pair,
                                                  capsys, tmp_path):
        same, perturbed = corpus_pair
        out_path = str(tmp_path / "report.json")
        assert cli_main(["diff", same, perturbed, "--json",
                         "--out", out_path]) == 1
        document = json.loads(capsys.readouterr().out)
        validate_report(document, schema_path=SCHEMA_PATH)
        assert document["clean"] is False
        assert document["exit_code"] == 1
        entry = document["entries"][0]
        assert entry["status"] == "violation"
        assert entry["diff"]["moves"][0]["from"] == "SEC-DED"
        written = json.loads(open(out_path).read())
        validate_report(written, schema_path=SCHEMA_PATH)
        assert written == document

    def test_against_corpus_subset_exits_zero(self, capsys):
        assert cli_main(["diff", "--against", MAPPINGS_DIR,
                         "--workloads", "kernel:crc32",
                         "--flavor", "dynamic"]) == 0
        out = capsys.readouterr().out
        assert "kernel:crc32/dynamic: identical" in out

    def test_against_unknown_workload_exits_two(self, capsys):
        assert cli_main(["diff", "--against", MAPPINGS_DIR,
                         "--workloads", "kernel:bogus"]) == 2
        assert "ERROR" in capsys.readouterr().out

    def test_workload_mode_rejects_positionals(self, corpus_pair,
                                               capsys):
        same, _ = corpus_pair
        assert cli_main(["diff", same, same,
                         "--workload", "kernel:crc32"]) == 2
        assert "drop the positional" in capsys.readouterr().err

    def test_fresh_pair_cross_engine_exits_zero(self, capsys):
        assert cli_main(["diff", "--workload", "kernel:crc32",
                         "--a-engine", "reference",
                         "--b-engine", "fast"]) == 0
        assert "identical" in capsys.readouterr().out


class TestGoldenUpdateGuard:
    """`repro golden --update` must not re-baseline a dirty tree."""

    def test_dirty_tree_refused_without_force(self, tmp_path, capsys,
                                              monkeypatch):
        import repro.sim.diffcheck as diffcheck
        monkeypatch.setattr(
            diffcheck, "_git_status_lines",
            lambda subtree: [" M src/repro/core/mda.py"])
        code = cli_main(["golden", "--update",
                         "--dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "refusing to re-baseline" in err
        assert "src/repro/core/mda.py" in err
        assert "--force" in err
        assert not list(tmp_path.iterdir())  # nothing was written

    def test_force_overrides_and_reports_digests(self, tmp_path,
                                                 capsys, monkeypatch):
        import repro.sim.diffcheck as diffcheck
        monkeypatch.setattr(
            diffcheck, "_git_status_lines",
            lambda subtree: [" M src/repro/core/mda.py"])
        code = cli_main(["golden", "--update", "--force",
                         "--dir", str(tmp_path), "kernel:crc32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "new:" in out
        assert "digests:" in out
        assert (tmp_path / "kernel-crc32.json").exists()
        assert (tmp_path / "mappings"
                / "kernel-crc32.dynamic.json").exists()

    def test_update_reports_which_digests_changed(self, tmp_path,
                                                  capsys):
        names = ["kernel:crc32"]
        assert cli_main(["golden", "--update", "--force",
                         "--dir", str(tmp_path)] + names) == 0
        capsys.readouterr()
        # Perturb one snapshot, then refresh: the report must name it.
        victim = tmp_path / "mappings" / "kernel-crc32.dynamic.json"
        payload = json.loads(victim.read_text())
        payload["metrics"]["cycles"] += 1.0
        victim.write_text(json.dumps(payload))
        assert cli_main(["golden", "--update", "--force",
                         "--dir", str(tmp_path)] + names) == 0
        out = capsys.readouterr().out
        assert "changed:   %s" % os.path.join(
            "mappings", "kernel-crc32.dynamic.json") in out

    def test_clean_tree_needs_no_force(self, tmp_path, capsys,
                                       monkeypatch):
        import repro.sim.diffcheck as diffcheck
        monkeypatch.setattr(diffcheck, "_git_status_lines",
                            lambda subtree: [])
        assert cli_main(["golden", "--update", "--dir", str(tmp_path),
                         "kernel:crc32"]) == 0

    def test_git_unavailable_does_not_block(self, monkeypatch):
        import repro.sim.diffcheck as diffcheck
        monkeypatch.setattr(diffcheck, "_git_status_lines",
                            lambda subtree: None)
        assert diffcheck.uncommitted_source_changes() == []
