"""Structural mapping-diff regression guard (``repro diff``).

Compares two mapping/evaluation runs — committed golden snapshots,
snapshot files, or freshly computed (workload, structure, flavor,
engine) pairs — by aligning block assignments on stable
block names and reporting *which blocks changed region and what it
cost*, instead of a bare digest mismatch.  See ``docs/diff.md``.
"""

from .differ import (
    GATED_METRICS,
    BlockMove,
    DiffEntry,
    DiffSetReport,
    DiffThresholds,
    MappingDiff,
    MetricDelta,
    ShapeChange,
    apply_moves,
    diff_snapshots,
    placement_label,
)
from .model import (
    METRIC_NAMES,
    SNAPSHOT_SCHEMA,
    BlockPlacement,
    MappingSnapshot,
    build_snapshot,
)
from .render import render_json, render_text
from .schema import SchemaError, validate, validate_report
from .snapshots import (
    GOLDEN_FLAVORS,
    MAPPING_GOLDEN_DIRNAME,
    check_mapping_golden,
    compute_snapshot,
    load_snapshot,
    mapping_golden_dir,
    snapshot_filename,
    snapshot_names,
    snapshot_path,
    write_mapping_golden,
    write_snapshot,
)
