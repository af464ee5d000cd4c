"""Append-only run ledger: one durable JSONL record per run.

Every evaluation, campaign, and service job can leave one line in a
shared ledger file answering, after the fact, *what ran, how long, and
what came out*: the content-hash job key, the run's parameters, the
sampling discipline, the repo version
(``git describe``) and pipeline ``SCHEMA_VERSION``, wall/CPU
durations, pipeline cache hit/miss counts, and the run's own stats
(campaign counts, shard retries/steals, job state).

The record shape is pinned by :data:`RUN_LEDGER_SCHEMA` — committed
verbatim as ``docs/schemas/run-ledger.schema.json`` and validated on
every append, the same discipline as the diff report schema.

Determinism discipline: the ledger measures time itself through
injectable clocks (``clock``/``perf``/``cpu``, defaulting to the
stdlib functions as *uncalled references*), so tests pin records to
the byte by injecting fakes, and callers never pass their own
wall-clock readings in — devlint's ``wallclock-to-sink`` rule stays
clean because the only clock reads feeding the ledger happen inside
``repro.obs``, the one package sanctioned to own the clock.

Appends go through :func:`repro.durable.append_line`, as the campaign
shard journal's do: one ``O_APPEND`` write of one sorted-key JSON line,
fsynced, so racing processes interleave whole lines, a torn tail line
is skipped on read, and the next record starts on a fresh line.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import time

from ..durable import append_line
from ..errors import ReproError

#: bump when the record shape changes incompatibly
LEDGER_SCHEMA_VERSION = 1

#: record kinds the schema admits
RECORD_KINDS = ("evaluation", "campaign", "service-job")

RUN_LEDGER_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro run ledger record",
    "description": ("One line of the append-only JSONL run ledger: a "
                    "single evaluation, campaign, or service job with "
                    "its parameters, provenance, durations, and stats."),
    "type": "object",
    "required": ["schema", "id", "kind", "repo", "pipeline_schema",
                 "pid", "started_at", "wall_s", "cpu_s", "status",
                 "cache", "params", "stats"],
    "additionalProperties": False,
    "properties": {
        "schema": {"type": "integer", "enum": [LEDGER_SCHEMA_VERSION]},
        "id": {"type": "string"},
        "kind": {"type": "string", "enum": list(RECORD_KINDS)},
        "key": {"type": ["string", "null"]},
        "repo": {"type": "string"},
        "pipeline_schema": {"type": "integer", "minimum": 1},
        "sampling": {"type": ["string", "null"]},
        "pid": {"type": "integer", "minimum": 0},
        "started_at": {"type": "number"},
        "wall_s": {"type": "number", "minimum": 0},
        "cpu_s": {"type": "number", "minimum": 0},
        "status": {"type": "string"},
        "cache": {
            "type": "object",
            "required": ["hits", "misses"],
            "additionalProperties": False,
            "properties": {
                "hits": {"type": "number", "minimum": 0},
                "misses": {"type": "number", "minimum": 0},
            },
        },
        "params": {"type": "object"},
        "stats": {"type": "object"},
    },
}


class LedgerError(ReproError):
    """A malformed record, unknown run id, or ambiguous id prefix."""


def validate_record(record):
    """Validate one ledger record against :data:`RUN_LEDGER_SCHEMA`.

    Raises :class:`LedgerError` naming the offending path.
    """
    from ..diff.schema import SchemaError, validate

    try:
        validate(record, RUN_LEDGER_SCHEMA)
    except SchemaError as error:
        raise LedgerError("ledger record: %s" % error) from None


def repo_version():
    """``git describe`` of the working tree, or ``"unknown"``.

    Cached per process: the answer cannot change mid-run, and records
    must not pay a subprocess per append.
    """
    global _REPO_VERSION
    if _REPO_VERSION is None:
        _REPO_VERSION = _describe_repo()
    return _REPO_VERSION


_REPO_VERSION = None


def _describe_repo():
    root = os.path.dirname(os.path.abspath(__file__))
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=30, cwd=root)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    described = proc.stdout.strip()
    return described or "unknown"


def parse_since(text, now=None):
    """``--since`` value -> epoch-seconds threshold.

    Accepts a raw epoch number (``1722470400``), an ISO date or
    date-time (``2026-08-08``, ``2026-08-08T14:30:00``), or a relative
    age (``90s``, ``30m``, ``12h``, ``7d``) subtracted from ``now``
    (injectable; defaults to the wall clock).
    """
    import datetime

    text = str(text).strip()
    if not text:
        raise LedgerError("empty --since value")
    try:
        return float(text)
    except ValueError:
        pass
    unit = text[-1].lower()
    scales = {"s": 1, "m": 60, "h": 3600, "d": 86400}
    if unit in scales:
        try:
            amount = float(text[:-1])
        except ValueError:
            amount = None
        if amount is not None:
            current = now() if now is not None else time.time()
            return current - amount * scales[unit]
    for pattern in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%dT%H:%M", "%Y-%m-%d"):
        try:
            moment = datetime.datetime.strptime(text, pattern)
        except ValueError:
            continue
        return moment.timestamp()
    raise LedgerError(
        "cannot parse --since %r (use epoch seconds, YYYY-MM-DD[THH:MM"
        "[:SS]], or a relative age like 30m/12h/7d)" % text)


class LedgerEntry:
    """An in-flight run opened by :meth:`RunLedger.begin`."""

    __slots__ = ("run_id", "kind", "key", "params", "sampling",
                 "started_at", "_t0", "_cpu0", "_cache0")

    def __init__(self, run_id, kind, key, params, sampling, started_at,
                 t0, cpu0, cache0):
        self.run_id = run_id
        self.kind = kind
        self.key = key
        self.params = params
        self.sampling = sampling
        self.started_at = started_at
        self._t0 = t0
        self._cpu0 = cpu0
        self._cache0 = cache0


class RunLedger:
    """Append-only JSONL ledger with injectable clocks.

    ``clock`` stamps ``started_at`` (epoch seconds), ``perf`` measures
    the wall duration, ``cpu`` the process-CPU duration.  All three
    default to the stdlib functions as uncalled references and are
    only ever called here, inside ``repro.obs`` — see the module
    docstring for why that keeps devlint clean.
    """

    def __init__(self, path, clock=time.time, perf=time.perf_counter,
                 cpu=time.process_time, repo=None):
        self.path = path
        self._clock = clock
        self._perf = perf
        self._cpu = cpu
        self._repo = repo
        self._serial = itertools.count()

    # --- writing -------------------------------------------------------------

    def begin(self, kind, key=None, params=None, sampling=None):
        """Open a run record; returns the entry :meth:`finish` closes.

        ``key`` is the run's content-hash identity (job key, campaign
        fingerprint); ``params`` the run's own configuration;
        ``sampling`` the campaign seed discipline (campaigns only).
        """
        if kind not in RECORD_KINDS:
            raise LedgerError("unknown record kind %r (one of: %s)"
                              % (kind, ", ".join(RECORD_KINDS)))
        started_at = self._clock()
        seed = [kind, key, started_at, os.getpid(), next(self._serial)]
        digest = hashlib.sha256(
            json.dumps(seed, sort_keys=True).encode()).hexdigest()
        return LedgerEntry(
            run_id="r-%s" % digest[:12],
            kind=kind,
            key=key,
            params=dict(params) if params else {},
            sampling=sampling,
            started_at=started_at,
            t0=self._perf(),
            cpu0=self._cpu(),
            cache0=_cache_totals(),
        )

    def finish(self, entry, status="ok", stats=None):
        """Close ``entry``: measure durations, validate, append.

        Returns the appended record.  Durations and cache deltas are
        computed here from the ledger's own clocks and the obs metrics
        registry — callers contribute only deterministic ``stats``.
        """
        cache1 = _cache_totals()
        record = {
            "schema": LEDGER_SCHEMA_VERSION,
            "id": entry.run_id,
            "kind": entry.kind,
            "key": entry.key,
            "repo": self._repo if self._repo is not None
                    else repo_version(),
            "pipeline_schema": _pipeline_schema(),
            "sampling": entry.sampling,
            "pid": os.getpid(),
            "started_at": entry.started_at,
            "wall_s": round(max(0.0, self._perf() - entry._t0), 6),
            "cpu_s": round(max(0.0, self._cpu() - entry._cpu0), 6),
            "status": status,
            "cache": {
                "hits": cache1["hits"] - entry._cache0["hits"],
                "misses": cache1["misses"] - entry._cache0["misses"],
            },
            "params": entry.params,
            "stats": dict(stats) if stats else {},
        }
        self.append(record)
        return record

    def append(self, record):
        """Durably append one validated record (fsynced, one write)."""
        validate_record(record)
        line = json.dumps(record, sort_keys=True)
        append_line(self.path, line)

    # --- reading -------------------------------------------------------------

    def read(self, since=None):
        """Every parseable record, in append order.

        A torn trailing line (a crash mid-append) is skipped; with
        ``since`` only records whose ``started_at`` is at or after the
        epoch threshold are returned.
        """
        records = []
        if not os.path.exists(self.path):
            return records
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail from a crash mid-append
                if not isinstance(record, dict):
                    continue
                if since is not None and record.get("started_at",
                                                    0) < since:
                    continue
                records.append(record)
        return records

    def get(self, run_id):
        """The record with ``run_id`` (a unique prefix is accepted)."""
        exact, prefixed = None, []
        for record in self.read():
            candidate = record.get("id", "")
            if candidate == run_id:
                exact = record  # last write wins, like the journal
            elif candidate.startswith(run_id):
                prefixed.append(record)
        if exact is not None:
            return exact
        distinct = {record["id"] for record in prefixed}
        if len(distinct) > 1:
            raise LedgerError(
                "run id prefix %r is ambiguous (%s)"
                % (run_id, ", ".join(sorted(distinct))))
        return prefixed[-1] if prefixed else None


def _pipeline_schema():
    from ..pipeline.keys import SCHEMA_VERSION

    return SCHEMA_VERSION


def _cache_totals():
    """Pipeline cache hit/miss totals from the obs registry (0s while
    the layer is disabled); :meth:`RunLedger.finish` records the delta
    across the run."""
    from . import enabled, registry

    totals = {"hits": 0, "misses": 0}
    if not enabled():
        return totals
    counter = registry().get("pipeline_artifacts_total")
    if counter is None:
        return totals
    for labels, value in counter.samples():
        outcome = labels.get("outcome")
        if outcome in ("memo-hit", "store-hit"):
            totals["hits"] += value
        elif outcome == "computed":
            totals["misses"] += value
    return totals
