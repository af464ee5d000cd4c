"""Constants, seeded input generation and helpers shared by the entry
point (``run.py``) and the workers (``worker.py``, ``service_load.py``).

Everything a workload feeds the program is generated here from the
workload seed; the program only ever sees the generated inputs.
"""

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
#: run outputs (traces, self-time tables, scratch stores), inside the
#: checkout and ignored by git
OUT_DIR = ".perfbench"

# --- report ------------------------------------------------------------------

#: the two Monte-Carlo ablations run through their public size
#: parameters, cut ~10x so one cold pass fits a run (the full-size
#: report takes about a minute on two cores)
REPORT_PARAMS = {
    "ablation-interleaving": {"trials": 2_500},
    "ablation-scrubbing": {"words": 800},
}
INTERLEAVE_WAYS = 4  # the ablation's (1, 2, 4, 8) degrees

# --- campaign ----------------------------------------------------------------

CAMPAIGN_TRIALS = 2_000_000
CAMPAIGN_STRUCTURE = "ftspm"
CASE_ARRAY_WORDS = 256
CASE_OUTER_ITERATIONS = 4

# --- service -----------------------------------------------------------------

SERVICE_WORKERS = 2
CLIENTS = 2
#: client poll interval; bounds the resolution of client latencies
POLL_S = 0.005
#: the job used to prove the pool is up during set-up: one shard
SETUP_JOB = {"kind": "campaign",
             "params": {"workload": "sha", "seed": 0, "trials": 25_000}}
#: exact composition of every block of 80 jobs (order seeded per block);
#: chosen so p50 and p90 of client latency both sit inside the campaign
#: class.  Lint jobs are rare because each one runs a dynamic profiling
#: simulation in a server thread and slows every job beside it.
BLOCK = (("campaign", 48), ("mapping", 12), ("resubmit", 16),
         ("lint", 1), ("static_mapping", 3))
STATIC_SCALES = (1, 2, 3)
LINT_SCALES = (1,)
MODES = ("balanced", "reliability", "performance", "power", "endurance")
BASELINES = ("baseline-sram", "baseline-sttram")


def load_references():
    with open(REFERENCES) as handle:
        return json.load(handle)


def digest(value):
    """Short content digest of a JSON-able value (key order free)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values, q):
    """Linear-interpolated percentile, ``q`` in 0..100."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


# --- seeded inputs -------------------------------------------------------------


def campaign_pass(rng, references):
    """One campaign pass: every program once, in seeded order, each with a
    seed drawn from its committed reference pool."""
    pool = references["campaign"]["counts"]
    programs = sorted(pool)
    rng.shuffle(programs)
    return [(name, int(rng.choice(sorted(pool[name], key=int))))
            for name in programs]


def service_reference(references, kind, params):
    """``(reference digest or None, result field to digest)`` of a job."""
    refs = references["service"]
    workload = params["workload"].split(":")[-1]
    if kind == "campaign":
        # one string per profile: the 16-hex digests of seeds 1, 2, ...
        packed = refs["campaign"].get(workload, "")
        start = 16 * (params["seed"] - 1)
        found = packed[start:start + 16] if params["seed"] >= 1 else ""
        return found or None, "counts"
    elif kind == "lint":
        table, key, field = (refs["lint"], "%s|%d" % (workload,
                                                      params["scale"]),
                             "findings")
    elif params.get("profile") == "static":
        table, key, field = (refs["static_mapping"], "%s|%d|%s" % (
            workload, params["scale"], params["mode"]), "assignments")
    else:
        table, key, field = (refs["mapping"], "%s|%s|%s" % (
            workload, params["structure"], params["mode"]), "assignments")
    return table.get(key), field


def service_jobs(seed, references):
    """Endless seeded service job sequence.

    Yields ``(label, kind, params)``; ``label`` is the job class used for
    per-class latency (``campaign``, ``mapping``, ``static_mapping``,
    ``lint`` or ``resubmit``).  Fresh keys come first from each class's
    cycle, so every non-resubmitted job is new to a fresh server until a
    cycle wraps.
    """
    rng = random.Random(seed)
    refs = references["service"]
    mibench = sorted(refs["mibench"])
    kernels = sorted(refs["kernels"])
    mapping_keys = ([(name, "ftspm", mode) for name in mibench
                     for mode in MODES]
                    + [(name, structure, "balanced") for name in mibench
                       for structure in BASELINES])
    static_keys = [(name, scale, mode) for name in kernels
                   for scale in STATIC_SCALES for mode in MODES]
    lint_keys = [(name, scale) for name in kernels for scale in LINT_SCALES]

    def cycle(keys):
        keys = list(keys)
        while True:
            rng.shuffle(keys)
            yield from keys

    # campaigns rotate through the suite so every block sees every
    # benchmark equally often
    seeds = {name: cycle(range(1, refs["campaign_seed_count"] + 1))
             for name in mibench}
    names = cycle(mibench)
    mappings = cycle(mapping_keys)
    statics = cycle(static_keys)
    lints = cycle(lint_keys)
    history = []
    resubmits = 0
    while True:
        block = [label for label, n in BLOCK for _ in range(n)]
        rng.shuffle(block)
        if not history and block[0] == "resubmit":
            first = next(i for i, label in enumerate(block)
                         if label != "resubmit")
            block[0], block[first] = block[first], block[0]
        for label in block:
            if label == "campaign":
                name = next(names)
                job = ("campaign", {"workload": name,
                                    "seed": int(next(seeds[name]))})
            elif label == "mapping":
                name, structure, mode = next(mappings)
                job = ("mapping", {"workload": name, "structure": structure,
                                   "mode": mode})
            elif label == "static_mapping":
                name, scale, mode = next(statics)
                job = ("mapping", {"workload": "kernel:" + name,
                                   "scale": scale, "mode": mode,
                                   "profile": "static"})
            elif label == "lint":
                name, scale = next(lints)
                job = ("lint", {"workload": "kernel:" + name,
                                "scale": scale})
            else:
                # alternately the job just before (likely still in
                # flight: in-flight coalescing) and any earlier one
                # (likely finished: store coalescing)
                resubmits += 1
                if resubmits % 2:
                    job = history[-1]
                else:
                    job = history[rng.randrange(len(history))]
            if label != "resubmit":
                history.append(job)
            yield (label,) + job
