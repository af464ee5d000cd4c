"""The repo benchmark: end-to-end and per-layer timings from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report   --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload service  --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/BENCHMARK.md for why each exists):

* ``report``   -- every registered experiment in report order on a fresh
  on-disk artifact store (one cold pass), then a warm replay;
* ``campaign`` -- one ``jobs=1`` Monte-Carlo campaign per simulated
  program, each on a fresh evaluation context;
* ``service``  -- ``repro serve`` driven by a closed loop of client
  threads over a seeded job mix.

``report`` and ``campaign`` run each pass in a fresh interpreter
(``worker.py``); the time from its launch until ``repro.cli`` is
imported is a set-up sample.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones, as the last
line of stdout.  Nothing is set that changes a program default: every
``REPRO_*`` variable is removed from the children's environment.
"""

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time

from common import (
    OUT_DIR,
    campaign_pass,
    load_references,
    median,
    percentile,
)

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py")
WORKER_TIMEOUT_S = 170.0
#: extra set-up-only interpreters per in-process run, beside one per pass
SETUP_PROBES = 4
#: servers started per untraced service run; the last one takes the load
SERVICE_SETUPS = 5
#: per-layer self-time metric of each span layer
SELF_METRICS = {
    "bench": "self.other_s", "isa": "self.isa_s",
    "sim.profile": "self.sim_profile_s", "sim.run": "self.sim_run_s",
    "core": "self.core_s", "eval": "self.eval_s", "ecc": "self.ecc_s",
    "faults": "self.faults_s", "workloads": "self.workloads_s",
    "campaign": "self.campaign_s", "pipeline": "self.pipeline_s",
    "service": "self.service_s",
}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def child_env():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    # keep the children's temporary files inside the checkout
    env["TMPDIR"] = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    return env


def spawn_worker(mode, args=None):
    """Run ``worker.py``; returns ``(setup_s, import_s, result)``."""
    command = [sys.executable, WORKER, mode]
    if args is not None:
        command.append(json.dumps(args))
    log_path = os.path.join(OUT_DIR, "worker.log")
    started = time.perf_counter()
    with open(log_path, "a") as log:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=log, env=child_env(), text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not ready.startswith("READY ") or proc.returncode != 0:
        raise BenchError("worker %s failed (exit %s); see %s"
                         % (mode, proc.returncode, log_path))
    import_s = float(ready.split()[1])
    result = None
    if args is not None:
        lines = rest.strip().splitlines()
        if not lines or not lines[-1].startswith("RESULT "):
            raise BenchError("worker %s printed no result; see %s"
                             % (mode, log_path))
        result = json.loads(lines[-1][len("RESULT "):])
    return setup_s, import_s, result


def scratch_dir(name):
    path = os.path.join(OUT_DIR, "tmp", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --- in-process workloads: report, campaign ----------------------------------


def run_inprocess(workload, seed, seconds, trace, references):
    spawn_worker("probe")  # untimed: byte-compiles and warms the page cache
    started = time.perf_counter()
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        setup_s, import_s, _ = spawn_worker("probe")
        setups.append(setup_s)
        imports.append(import_s)
    rng = random.Random(seed)
    plain, traced = [], []
    workdir = scratch_dir(workload)
    prefix = os.path.join(OUT_DIR, "%s-seed%d" % (workload, seed))
    try:
        while True:
            round_start = time.perf_counter()
            inputs = (campaign_pass(rng, references)
                      if workload == "campaign" else None)
            for flag in ((False, True) if trace else (False,)):
                store = os.path.join(workdir, "store-%d" % len(plain))
                args = {"trace": flag, "inputs": inputs, "store": store,
                        "out": prefix}
                setup_s, import_s, result = spawn_worker(workload, args)
                shutil.rmtree(store, ignore_errors=True)
                setups.append(setup_s)
                imports.append(import_s)
                (traced if flag else plain).append(result)
            elapsed = time.perf_counter() - started
            if trace:
                # traced rounds: stop before one would overrun
                if elapsed + (time.perf_counter() - round_start) > seconds:
                    break
            elif elapsed >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for result in plain for op in result["ops"]]
    checks = [check for result in plain + traced
              for check in result["checks"]]
    summary = {
        "setup_s": (median(setups), len(setups)),
        "op_p50_ms": (1000.0 * median(ops), len(ops)),
        "op_p90_ms": (1000.0 * percentile(ops, 90), len(ops)),
        "ops_per_s": (median([len(r["ops"]) / r["wall_s"] for r in plain]),
                      len(plain)),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in plain), len(plain)),
    }
    counts = plain[0]["counts"]
    extra = {"passes": len(plain), "counts": counts}
    if workload == "campaign":
        extra["campaign_trials_per_s"] = median(
            [counts["campaign.trials"] / r["wall_s"] for r in plain])
    else:
        extra["warm_replay_s"] = median([r["warm_replay_s"] for r in plain])
    layers = None
    if trace:
        layers = {"cli.import_s": median(imports)}
        for key in sorted({k for r in traced for k in r["layers"]}):
            layers[key] = median([r["layers"].get(key, 0.0)
                                  for r in traced])
        for key, value in traced[0]["counts"].items():
            layers[key] = value
        for layer, metric in SELF_METRICS.items():
            layers[metric] = median([r["self"].get(layer, 0.0)
                                     for r in traced])
        plain_wall = median([r["wall_s"] for r in plain])
        traced_wall = median([r["wall_s"] for r in traced])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
        extra["trace_files"] = [prefix + ".trace.json",
                                prefix + ".selftime.txt"]
    return summary, checks, extra, layers


# --- service -----------------------------------------------------------------


def run_service(seed, seconds, trace, references):
    sys.path.insert(0, os.path.abspath("src"))  # the program's client
    from service_load import Server, layer_metrics, run_load
    from spans import NullRecorder, Recorder, format_self_times, self_times

    workdir = scratch_dir("service")
    env = child_env()
    setup_ref = references["service"]["setup"]
    started = time.perf_counter()
    setups = []
    servers = []

    def start(tag):
        server = Server(env, workdir, tag, setup_ref)
        servers.append(server)
        setups.append(server.setup_s)
        return server

    def load(server, rec, duration):
        records, wall, rss = run_load(server, seed, duration, rec,
                                      references)
        return records, wall, rss, server.client.metrics()

    try:
        spawn_worker("probe")  # untimed warm-up, as for the other workloads
        if not trace:
            for index in range(SERVICE_SETUPS - 1):
                server = start("setup-%d" % index)
                server.stop()
            server = start("load")
            duration = max(seconds - (time.perf_counter() - started),
                           seconds / 2.0)
            records, wall, rss, _ = load(server, NullRecorder(), duration)
            server.stop()
            traced = None
        else:
            imports = [spawn_worker("probe")[1] for _ in range(3)]
            duration = max((seconds - (time.perf_counter() - started)) / 2.0
                           - 1.0, seconds / 4.0)
            server = start("plain")
            records, wall, rss, _ = load(server, NullRecorder(), duration)
            server.stop()
            rec = Recorder()
            server = start("traced")
            traced = load(server, rec, duration)
            server.stop()
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [r["latency"] for r in records]
    summary = {
        "setup_s": (median(setups), len(setups)),
        "op_p50_ms": (1000.0 * median(latencies), len(latencies)),
        "op_p90_ms": (1000.0 * percentile(latencies, 90), len(latencies)),
        "ops_per_s": (len(records) / wall, len(records)),
        "peak_rss_mb": (rss, 1),
    }
    all_records = records + (traced[0] if traced else [])
    checks = [{"op": "%s %s" % (r["label"], r["kind"]), "ok": r["ok"],
               "detail": r["detail"]} for r in all_records]
    extra = {"jobs": len(records),
             "by_class": {label: sum(1 for r in records
                                     if r["label"] == label)
                          for label in sorted({r["label"]
                                               for r in records})}}
    layers = None
    if traced:
        traced_records, traced_wall, _, metrics_text = traced
        layers = layer_metrics(traced_records, rec, metrics_text)
        layers["cli.import_s"] = median(imports)
        layers["trace.wall_s"] = traced_wall
        # per job, since the two loads complete different job counts
        layers["trace.overhead_ratio"] = (
            (traced_wall / len(traced_records)) / (wall / len(records))
            - 1.0)
        roots = [s for s in rec.spans if s.parent is None]
        table = {}
        for root in roots:
            for layer, value in self_times(rec, root).items():
                table[layer] = table.get(layer, 0.0) + value
        for layer, metric in SELF_METRICS.items():
            layers[metric] = table.get(layer, 0.0)
        prefix = os.path.join(OUT_DIR, "service-seed%d" % seed)
        rec.write_chrome(prefix + ".trace.json")
        with open(prefix + ".selftime.txt", "w") as handle:
            handle.write(format_self_times(table, sum(table.values()))
                         + "\n")
        extra["trace_files"] = [prefix + ".trace.json",
                                prefix + ".selftime.txt"]
    return summary, checks, extra, layers


# --- reporting ---------------------------------------------------------------


def environment():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10)
        git = (described.stdout.strip() if described.returncode == 0
               else "unavailable (not a git checkout)")
    except OSError:
        git = "unavailable (no git)"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version, "git_describe": git,
            "host_calibration_s": host_calibration()}


def cpu_jiffies():
    """``(all, steal)`` jiffies of the host's CPUs from /proc/stat.  The
    share stolen by the hypervisor during a run is printed with it: on a
    shared machine it explains most of the run-to-run spread."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return sum(fields), fields[7]


def host_calibration(repeats=3):
    """Best-of-three time of a fixed pure-Python loop.  The host's speed
    drifts (on shared machines by a third over minutes); this number lets
    a reader tell a slow host from a slow program.  It is not a metric."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return best


#: per-workload names of the end-to-end metrics, printed beside them
_NAMED = {
    "report": [("report_s", "op_p50_ms", 1e-3, "s")],
    "campaign": [("campaign_p50_s", "op_p50_ms", 1e-3, "s")],
    "service": [("job_p50_ms", "op_p50_ms", 1.0, "ms"),
                ("job_p90_ms", "op_p90_ms", 1.0, "ms"),
                ("jobs_per_s", "ops_per_s", 1.0, "jobs/s")],
}


def print_summary(workload, seed, summary, checks, extra, layers, env):
    print("== perfbench %s (seed %d) ==" % (workload, seed))
    print("environment: " + json.dumps(env, sort_keys=True))
    print("%-24s %14s  %-10s %s" % ("metric", "value", "unit", "n"))
    units = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    for name, (value, n) in summary.items():
        print("%-24s %14.6g  %-10s %d" % (name, value, units[name], n))
    for label, source, scale, unit in _NAMED.get(workload, []):
        value, n = summary[source]
        print("%-24s %14.6g  %-10s %d" % (label, value * scale, unit, n))
    if "campaign_trials_per_s" in extra:
        print("%-24s %14.6g  %-10s" % ("campaign_trials_per_s",
                                       extra["campaign_trials_per_s"],
                                       "trials/s"))
    failed = sum(1 for check in checks if not check["ok"])
    print("%-24s %14.6g  %-10s %d" % ("error_ratio", failed / len(checks),
                                      "failed/attempted", len(checks)))
    for key, value in sorted(extra.items()):
        if key != "campaign_trials_per_s":
            print("%s: %s" % (key, json.dumps(value, sort_keys=True)))
    for check in checks:
        if not check["ok"]:
            print("FAILED %s: %s" % (check["op"], check["detail"]))
    if layers is not None:
        print("per-layer (traced run):")
        for name in sorted(layers):
            print("  %-40s %.6g" % (name, layers[name]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("report", "campaign", "service", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the root of a checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)
    references = load_references()
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    env = environment()
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    workloads = (("report", "campaign", "service")
                 if args.workload == "all" else (args.workload,))
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            before = cpu_jiffies()
            if workload == "service":
                measured = run_service(args.seed, args.seconds,
                                       bool(args.trace), references)
            else:
                measured = run_inprocess(workload, args.seed, args.seconds,
                                         bool(args.trace), references)
            summary, checks, extra, layers = measured
            after = cpu_jiffies()
            extra["host_steal_share"] = (
                (after[1] - before[1]) / max(after[0] - before[0], 1))
            print_summary(workload, args.seed, summary, checks, extra,
                          layers, env)
            attempted += len(checks)
            failed += sum(1 for check in checks if not check["ok"])
            for metric in wanted:
                name = metric["name"]
                # a layer the workload does not exercise reads 0
                value = (layers.get(name, 0.0) if args.trace
                         else summary[name][0])
                key = (name if len(workloads) == 1
                       else "%s.%s" % (workload, name))
                metrics[key] = {"value": float(value),
                                "unit": metric["unit"]}
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
