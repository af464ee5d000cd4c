"""Artifact-store concurrency: racing writers, one valid artifact.

The service leans on the store's temp-file + ``os.replace`` discipline
for its cross-restart coalescing tier, so this pins the guarantee:
many processes hammering the *same* key with large, distinct payloads
must leave exactly one readable artifact whose content is one of the
writers' payloads, byte-complete — never torn, never a stray temp
file.  Readers racing the writers must only ever observe a miss or a
complete payload.
"""

import multiprocessing
import os

from repro.pipeline.keys import artifact_key
from repro.pipeline.store import ArtifactStore

_MISS = object()

KEY = artifact_key("test-race", "shared")
WRITERS = 8
PAYLOAD_WORDS = 120_000  # ~1 MB pickled, big enough to tear


def make_payload(writer):
    """Distinct, internally-consistent payload for one writer."""
    return {"writer": writer,
            "words": [writer * 1_000_003 + i
                      for i in range(PAYLOAD_WORDS)]}


def _write_racer(root, writer, barrier):
    store = ArtifactStore(root)
    barrier.wait()  # line every process up on the same instant
    store.put(KEY, make_payload(writer))


def _read_racer(root, barrier, results):
    store = ArtifactStore(root)
    barrier.wait()
    for _ in range(20):
        value = store.get(KEY, _MISS)
        if value is not _MISS:
            # any successful read must be a complete payload
            results.put(len(value["words"]) == PAYLOAD_WORDS)


def payload_is_valid(value):
    return (value is not _MISS
            and value["words"] == make_payload(value["writer"])["words"])


def test_racing_writers_yield_one_valid_artifact(tmp_path):
    root = str(tmp_path / "store")
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(WRITERS)
    processes = [
        context.Process(target=_write_racer, args=(root, writer, barrier))
        for writer in range(WRITERS)]
    for process in processes:
        process.start()
    for process in processes:
        process.join(120)
        assert process.exitcode == 0

    store = ArtifactStore(root)
    value = store.get(KEY, _MISS)
    assert payload_is_valid(value), "stored artifact is torn or missing"
    assert len(store) == 1

    # temp-file + rename must not leak temp files anywhere in the tree
    strays = [name for _, _, files in os.walk(root) for name in files
              if not name.endswith(".pkl")]
    assert strays == []


def test_readers_racing_writers_never_see_torn_data(tmp_path):
    root = str(tmp_path / "store")
    context = multiprocessing.get_context("spawn")
    readers = 3
    barrier = context.Barrier(WRITERS + readers)
    results = context.Queue()
    processes = (
        [context.Process(target=_write_racer,
                         args=(root, writer, barrier))
         for writer in range(WRITERS)]
        + [context.Process(target=_read_racer,
                           args=(root, barrier, results))
           for _ in range(readers)])
    for process in processes:
        process.start()
    for process in processes:
        process.join(120)
        assert process.exitcode == 0
    observations = []
    while not results.empty():
        observations.append(results.get())
    assert all(observations)  # misses excluded; every read was whole


def test_put_overwrites_in_place(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    store.put(KEY, {"writer": 0, "words": [0]})
    store.put(KEY, {"writer": 1, "words": [1]})
    assert store.get(KEY)["writer"] == 1
    assert len(store) == 1


def test_put_fsyncs_file_and_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.path.realpath("/proc/self/fd/%d" % fd))
        real_fsync(fd)

    store = ArtifactStore(str(tmp_path / "store"))
    monkeypatch.setattr(os, "fsync", recording_fsync)
    store.put(KEY, {"writer": 0, "words": [0]})
    shard_dir = os.path.realpath(os.path.join(store.root, KEY[:2]))
    assert len(synced) == 2
    assert os.path.dirname(synced[0]) == shard_dir  # the temp file
    assert synced[1] == shard_dir
