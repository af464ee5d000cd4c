"""Job model and thread-safe registry for the service.

A :class:`Job` is one submitted request moving through ``queued →
running → done|failed``.  A job that attached to another in-flight
computation (see :mod:`repro.service.coalesce`) carries
``coalesced_with`` — the primary job's id — and proxies its state and
result from the primary, so every submitter polls their own job id and
still reads exactly one shared computation.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


class JobState:
    """String states, chosen to sort a status column sensibly."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One submitted request and everything observable about it."""

    id: str
    kind: str  # "mapping" | "campaign" | "lint" | "profile"
    params: dict
    key: str  # content-hash coalescing/artifact key
    state: str = JobState.QUEUED
    error: Optional[str] = None
    result: Optional[dict] = None
    progress: dict = field(default_factory=dict)
    #: primary job id when this submission coalesced onto another
    coalesced_with: Optional[str] = None
    #: "inflight" | "store" | None — how (if) this job avoided computing
    coalesced_from: Optional[str] = None
    #: injectable clock: timestamps come from here, never from
    #: ``time.time()`` inline, so tests pin them and status responses
    #: are deterministic under a fake clock
    clock: Callable[[], float] = time.time
    submitted_at: Optional[float] = None
    finished_at: Optional[float] = None
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def __post_init__(self):
        if self.submitted_at is None:
            self.submitted_at = self.clock()

    # --- transitions (thread-safe) ----------------------------------------------

    def mark_running(self):
        with self._lock:
            self.state = JobState.RUNNING

    def mark_done(self, result):
        with self._lock:
            self.result = result
            self.state = JobState.DONE
            self.finished_at = self.clock()

    def mark_failed(self, error):
        with self._lock:
            self.error = str(error)
            self.state = JobState.FAILED
            self.finished_at = self.clock()

    def update_progress(self, **fields):
        with self._lock:
            self.progress.update(fields)

    # --- API projections --------------------------------------------------------

    def to_status(self):
        with self._lock:
            payload = {
                "id": self.id,
                "kind": self.kind,
                "state": self.state,
                "key": self.key,
                "params": dict(self.params),
                "submitted_at": self.submitted_at,
                "finished_at": self.finished_at,
            }
            if self.progress:
                payload["progress"] = dict(self.progress)
            if self.error is not None:
                payload["error"] = self.error
            if self.coalesced_with is not None:
                payload["coalesced_with"] = self.coalesced_with
            if self.coalesced_from is not None:
                payload["coalesced_from"] = self.coalesced_from
            return payload


class JobRegistry:
    """All jobs this server has seen, addressable by id."""

    def __init__(self, clock=None):
        self._lock = threading.Lock()
        self._jobs = {}
        self._ids = itertools.count(1)
        self._clock = clock if clock is not None else time.time

    def create(self, kind, params, key):
        with self._lock:
            job = Job(id="job-%06d" % next(self._ids), kind=kind,
                      params=params, key=key, clock=self._clock)
            self._jobs[job.id] = job
            return job

    def get(self, job_id):
        with self._lock:
            return self._jobs.get(job_id)

    def all(self):
        with self._lock:
            return list(self._jobs.values())

    def __len__(self):
        with self._lock:
            return len(self._jobs)

    # --- coalescing-aware reads -------------------------------------------------

    def resolve(self, job):
        """The job whose computation ``job`` observes (itself, or the
        primary it coalesced onto)."""
        primary = job
        seen = set()
        while primary.coalesced_with is not None:
            if primary.id in seen:  # defensive: never loop
                break
            seen.add(primary.id)
            target = self.get(primary.coalesced_with)
            if target is None:
                break
            primary = target
        return primary

    def status_of(self, job):
        """Status projection with the primary's state, progress, error
        and completion time folded in."""
        primary = self.resolve(job)
        payload = job.to_status()
        if primary is not job:
            upstream = primary.to_status()
            payload["state"] = upstream["state"]
            payload["finished_at"] = upstream["finished_at"]
            if "progress" in upstream:
                payload["progress"] = upstream["progress"]
            if "error" in upstream:
                payload["error"] = upstream["error"]
        return payload

    def result_of(self, job):
        """(state, result) through any coalescing indirection."""
        primary = self.resolve(job)
        with primary._lock:
            return primary.state, primary.result, primary.error
