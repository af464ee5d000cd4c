"""Disk-backed artifact store for the evaluation pipeline.

A tiny content-addressed object store: artifacts are pickled under
``<root>/<key[:2]>/<key>.pkl`` where ``key`` is the SHA-256 artifact
key from :mod:`repro.pipeline.keys`.  Writes are atomic and fsynced
(:func:`repro.durable.atomic_write`), so a crashed or concurrent writer
can never leave a torn artifact; reads treat any unreadable entry as a
miss (the artifact is simply recomputed and rewritten).

The store never invalidates: keys are content hashes salted with the
pipeline schema version, so a stale entry is unreachable, not wrong.
"""

from __future__ import annotations

import os
import pickle

from .. import obs
from ..durable import atomic_write

_MISS = object()


class ArtifactStore:
    """Pickle-per-key store rooted at a directory."""

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".pkl")

    def contains(self, key):
        return os.path.exists(self._path(key))

    def get(self, key, default=None):
        """Load the artifact at ``key``; any failure reads as a miss."""
        with obs.span("store.get", category="pipeline",
                      attrs={"key": key[:12]}) as span:
            try:
                with open(self._path(key), "rb") as handle:
                    value = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError):
                self.misses += 1
                span.set_attr("outcome", "miss")
                obs.inc("artifact_store_reads_total", outcome="miss",
                        help="disk artifact reads by hit/miss")
                return default
            self.hits += 1
            span.set_attr("outcome", "hit")
            obs.inc("artifact_store_reads_total", outcome="hit",
                    help="disk artifact reads by hit/miss")
            return value

    def put(self, key, value):
        """Atomically persist ``value`` under ``key``; returns ``value``."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with obs.span("store.put", category="pipeline",
                      attrs={"key": key[:12]}):
            atomic_write(path, pickle.dumps(
                value, protocol=pickle.HIGHEST_PROTOCOL))
        self.writes += 1
        obs.inc("artifact_store_writes_total",
                help="disk artifacts persisted")
        return value

    def __len__(self):
        count = 0
        for _, _, files in os.walk(self.root):
            count += sum(1 for name in files if name.endswith(".pkl"))
        return count
