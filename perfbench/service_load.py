"""The ``service`` workload: a ``repro serve`` subprocess under a
closed loop of client threads.

Each client submits a job, polls its status every ``POLL_S`` seconds
until it is done, and fetches the result, through the program's own
blocking client (:class:`repro.service.client.ServiceClient`).  Only
then does it take the next job of the seeded sequence.  Every result
is checked against the committed references.
"""

import http.client
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

from common import (
    CLIENTS,
    POLL_S,
    SERVICE_WORKERS,
    SETUP_JOB,
    digest,
    median,
    service_jobs,
    service_reference,
)

START_TIMEOUT_S = 60.0
#: the service's memory high-water mark (server and workers) is read once
#: this many jobs have completed (or at the end of a shorter load): the
#: job registry grows with every job, so a fixed point keeps throughput
#: out of the number
RSS_AT_JOBS = 1000
JOB_TIMEOUT_S = 120.0
_SERVING = re.compile(r"serving on http://([\d.]+):(\d+)")


def _client_errors():
    from repro.service.client import ServiceError

    return (ServiceError, OSError, http.client.HTTPException, ValueError,
            KeyError, TimeoutError)


class Server:
    """One ``repro serve`` process, started and proven ready."""

    def __init__(self, env, workdir, tag, setup_reference):
        from repro.service.client import ServiceClient

        self.cache_dir = os.path.join(workdir, tag + "-cache")
        self.log_path = os.path.join(workdir, tag + ".log")
        started = time.perf_counter()
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVICE_WORKERS),
             "--cache-dir", self.cache_dir],
            stdout=subprocess.PIPE, stderr=self._log, env=env, text=True)
        try:
            host, port = self._announced()
            self.client = ServiceClient(host=host, port=port,
                                        timeout=JOB_TIMEOUT_S)
            self._healthy()
            record = run_job(self.client, None, 0, "setup",
                             SETUP_JOB["kind"], SETUP_JOB["params"],
                             reference=setup_reference)
            if not record["ok"]:
                raise RuntimeError("set-up job failed: %s"
                                   % record["detail"])
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _announced(self):
        lines = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        try:
            line = lines.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("server did not announce its port") from None
        finally:
            reader.join(timeout=1.0)
        match = _SERVING.search(line)
        if not match:
            raise RuntimeError("unexpected server output %r (log: %s)"
                               % (line, self.log_path))
        return match.group(1), int(match.group(2))

    def _healthy(self):
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                if self.client.health()["status"] == "ok":
                    return
            except _client_errors():
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def peak_rss_mb(self):
        """VmHWM of the server plus its worker processes (pages they
        share are counted in each)."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self):
        """SIGTERM (graceful drain), then kill if it lingers; always
        waits for the process and removes its cache."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _children(pid):
    """Pids whose parent is ``pid`` (the server's worker pool)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _vm_hwm_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # a worker that exited between listing and reading
        return 0
    raise RuntimeError("no VmHWM for process %d" % pid)


def run_job(client, rec, index, label, kind, params, references=None,
            reference=None):
    """Submit, poll to completion, fetch and check one job."""
    from spans import NullRecorder

    rec = rec or NullRecorder()
    if reference is None:
        reference, field = service_reference(references, kind, params)
    else:
        field = "counts"
    record = {"label": label, "kind": kind, "ok": False, "detail": "",
              "polls": 0, "coalesced": None, "server_s": None}
    started = time.perf_counter()
    with rec.span("service.job", "bench", op=index):
        try:
            with rec.span("service.submit", "service"):
                status = client.submit(kind, **params)
            record["coalesced"] = status.get("coalesced_from")
            while status["state"] not in ("done", "failed"):
                if time.perf_counter() - started > JOB_TIMEOUT_S:
                    raise TimeoutError("job %s timed out" % status["id"])
                time.sleep(POLL_S)
                with rec.span("service.status", "service"):
                    status = client.status(status["id"])
                record["polls"] += 1
            with rec.span("service.result", "service"):
                payload = client.result(status["id"])
        except _client_errors() as error:
            record["detail"] = "%s: %s" % (type(error).__name__, error)
            payload = None
    record["latency"] = time.perf_counter() - started
    record["end"] = time.perf_counter()
    if payload is None:
        return record
    if status.get("finished_at") is not None:
        record["server_s"] = status["finished_at"] - status["submitted_at"]
    result = payload.get("result")
    if payload.get("state") != "done" or result is None:
        record["detail"] = "job %s: %s" % (payload.get("state"),
                                           payload.get("error"))
    elif kind == "campaign" and not result.get("complete"):
        record["detail"] = "campaign incomplete"
    elif reference is None:
        record["detail"] = "no reference for %s %s" % (kind, params)
    elif digest(result[field]) != reference:
        record["detail"] = "%s %s: %s differs from the reference" % (
            kind, params, field)
    else:
        record["ok"] = True
    return record


def run_load(server, seed, seconds, rec, references):
    """Closed loop of ``CLIENTS`` threads for ``seconds``; returns the
    per-job records, the load's wall time and the server's peak RSS."""
    jobs = service_jobs(seed, references)
    lock = threading.Lock()
    records = []
    rss = []
    errors = []
    issued = [0]
    started = time.perf_counter()
    deadline = started + seconds

    def client_loop():
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    index = issued[0]
                    issued[0] += 1
                    label, kind, params = next(jobs)
                record = run_job(server.client, rec, index, label, kind,
                                 params, references=references)
                with lock:
                    records.append(record)
                    if len(records) == RSS_AT_JOBS:
                        rss.append(server.peak_rss_mb())
        except Exception as error:  # reported after the join
            errors.append(error)

    threads = [threading.Thread(target=client_loop, name="client-%d" % i)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    wall = max(record["end"] for record in records) - started
    return records, wall, rss[0] if rss else server.peak_rss_mb()


def parse_metrics(text):
    """Prometheus text -> ``{name: summed value}`` plus the
    ``campaign_shard_seconds`` buckets as ``[(le, cumulative count)]``."""
    totals = {}
    buckets = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
        if name == "campaign_shard_seconds_bucket":
            le = re.search(r'le="([^"]+)"', name_part).group(1)
            buckets.append((float(le), float(value)))
    return totals, buckets


def bucket_median(buckets):
    """Median estimate from cumulative histogram buckets (linear within
    the bucket, as Prometheus' histogram_quantile does)."""
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    total = buckets[-1][1]
    target = total / 2.0
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= target:
            if bound == float("inf"):
                return lower_bound
            share = (target - lower_count) / max(count - lower_count, 1e-12)
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, count
    return lower_bound


def layer_metrics(records, rec, metrics_text):
    """Per-layer numbers of one traced load."""
    totals, buckets = parse_metrics(metrics_text)
    by_label = {}
    for record in records:
        by_label.setdefault(record["label"], []).append(record["latency"])
    executed = [r for r in records if r["coalesced"] is None]
    server = [r["server_s"] for r in executed if r["server_s"] is not None]

    def p50_ms(values):
        return 1000.0 * median(values) if values else 0.0

    layers = {
        "service.jobs": len(records),
        "service.submit_ms": p50_ms(rec.durations("service.submit")),
        "service.status_ms": p50_ms(rec.durations("service.status")),
        "service.result_ms": p50_ms(rec.durations("service.result")),
        "service.polls": sum(r["polls"] for r in records),
        "service.server_ms": p50_ms(server),
        "service.coalesced.inflight": sum(
            1 for r in records if r["coalesced"] == "inflight"),
        "service.coalesced.store": sum(
            1 for r in records if r["coalesced"] == "store"),
        "scheduler.shard_p50_ms": 1000.0 * bucket_median(buckets),
        "scheduler.shards": totals.get("campaign_shard_seconds_count", 0),
        "scheduler.steals": totals.get("scheduler_steals_total", 0),
        "scheduler.retries": totals.get("scheduler_shard_retries_total", 0),
        "scheduler.pool_rebuilds": totals.get(
            "scheduler_pool_rebuilds_total", 0),
    }
    for label in ("campaign", "mapping", "static_mapping", "lint",
                  "resubmit"):
        layers["service.%s_p50_ms" % label] = p50_ms(by_label.get(label,
                                                                  []))
    for kind in ("campaign", "mapping", "lint"):
        layers["service.executed." + kind] = sum(
            1 for r in executed if r["kind"] == kind)
    return layers
