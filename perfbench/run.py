#!/usr/bin/env python3
"""Layer-by-layer benchmark of the RAPID simulator.

Builds perfbench_sim (perfbench/CMakeLists.txt, Release) from the sources in
this checkout, runs one workload in its own process, checks the simulated
results, and prints every metric by name with its unit. The last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (timed, untraced); with
--trace 1 they are the per-layer split from a separate traced run. Each run
also writes a record with its provenance, raw rounds and spans under
<build dir>/records/. See perfbench/README.md for the workloads, metrics and
what each layer metric should move.

    python3 perfbench/run.py --workload stream-capped --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record --workload stream-capped --seed 7

Operations are simulation runs. One fails when it throws, breaks an
invariant, or differs from the recorded reference (perfbench/reference.json)
for its workload and seed; any failure makes the command exit 1.
"""

import argparse
import copy
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_REFERENCE = HERE / "reference.json"
# Every file of the benchmark's own that it reads; --self-test checks that
# git tracks each one (a blanket *.json ignore rule has lost files before).
BENCH_FILES = ("BENCHMARK.json", "perfbench/CMakeLists.txt", "perfbench/perfbench_sim.cpp",
               "perfbench/reference.json", "perfbench/run.py")
WORKLOADS = ("stream-uncapped", "stream-capped", "stream-baselines")
BASELINES = ("prophet", "spray-wait", "epidemic", "random", "direct")
# Simulated statistics the reference records per workload, seed and protocol.
RECORDED = ("packets", "meetings", "delivered", "data_bytes", "metadata_bytes", "drops")
MIB = 1024.0 * 1024.0
RUN_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "delivery_rate": "ratio",
                    "avg_delay_s": "s", "metadata_share": "ratio"}


class SetupError(Exception):
    """The benchmark cannot run here (no sources, build failed, harness died)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    for needed in ("CMakeLists.txt", "src/sim/experiment.h"):
        if not (ROOT / needed).is_file():
            raise SetupError(f"simulator sources missing ({needed} not found under {ROOT})")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench_sim", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SetupError(f"build step failed: {' '.join(cmd)}")
    binary = bdir / "perfbench_sim"
    if not binary.is_file():
        raise SetupError(f"build produced no {binary}")
    return binary


def run_harness(binary, workload, seed, seconds, trace, deadline):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SetupError(f"harness timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise SetupError(f"harness exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout)


# --- correctness ---------------------------------------------------------------

def load_reference(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def reference_mismatches(stats, ref):
    """Fields of a simulation's statistics that differ from its recorded reference."""
    return [f"{k}={stats[k]} (reference {ref[k]})" for k in RECORDED if stats[k] != ref[k]]


def invariant_violations(sim):
    """Checks that hold whatever the reference says."""
    st = sim["stats"]
    bad = []
    if st["packets"] <= 0 or st["meetings"] <= 0:
        bad.append(f"empty run: packets={st['packets']} meetings={st['meetings']}")
    if st["delivered"] > st["packets"]:
        bad.append(f"delivered {st['delivered']} > packets {st['packets']}")
    if st["data_bytes"] + st["metadata_bytes"] > st["capacity_bytes"]:
        bad.append(f"data+metadata {st['data_bytes'] + st['metadata_bytes']} > capacity "
                   f"{st['capacity_bytes']}")
    if sim["decorator_pops"] != st["meetings"]:
        bad.append(f"decorator pops {sim['decorator_pops']} != meetings {st['meetings']}")
    if sim["decorator_pops"] != sim["counters"].get("mobility.pops"):
        bad.append(f"decorator pops {sim['decorator_pops']} != program mobility.pops "
                   f"{sim['counters'].get('mobility.pops')}")
    return bad


def check(doc, reference):
    """Returns (attempted, failed, problems) over every simulation the harness ran."""
    refs = reference.get(doc["workload"], {}).get(str(doc["seed"]), {})
    attempted, failed, problems = 0, 0, []
    first = {}  # protocol -> stats of its first run in this process
    for rnd, round_ in enumerate(doc["rounds"]):
        for sim in round_["sims"]:
            attempted += 1
            proto = sim["protocol"]
            if "error" in sim:
                bad = [f"threw: {sim['error']}"]
            else:
                bad = invariant_violations(sim)
                if proto in refs:
                    bad += reference_mismatches(sim["stats"], refs[proto])
                # Every round of one process (the traced round too) must
                # reproduce the first exactly, delivery times included.
                if proto in first and sim["stats"] != first[proto]:
                    bad.append(f"differs from round 0: {sim['stats']} vs {first[proto]}")
                first.setdefault(proto, sim["stats"])
            failed += bool(bad)
            problems += [f"round {rnd} {proto}: {b}" for b in bad]
    return attempted, failed, problems


def ok_sims(round_):
    return [s for s in round_["sims"] if "error" not in s]


# --- metrics -------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(doc):
    st = [s["stats"] for s in ok_sims(doc["rounds"][0])]
    delivered = sum(s["delivered"] for s in st)
    values = {
        "run_s": statistics.median(r["run_s"] for r in doc["rounds"]),
        "setup_s": statistics.median(doc["setup_samples_s"]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "delivery_rate": ratio(delivered, sum(s["packets"] for s in st)),
        "avg_delay_s": ratio(sum(s["avg_delay"] * s["delivered"] for s in st), delivered),
        "metadata_share": ratio(sum(s["metadata_bytes"] for s in st),
                                sum(s["capacity_bytes"] for s in st)),
    }
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(doc):
    # Rounds: untraced (cold heap), traced, untraced (warm, the reference).
    traced, untraced = doc["rounds"][1], doc["rounds"][2]
    sims = ok_sims(traced)

    def counter(name):
        return sum(s["counters"].get(name, 0) for s in sims)

    def phase(*names):
        return sum(s["phases"][n]["s"] for s in sims for n in names)

    all_phases = list(sims[0]["phases"]) if sims else []
    pops = sum(s["decorator_pops"] for s in sims)
    busy = sum(s["decorator_busy_s"] for s in sims)
    events = counter("sim.events.meeting") + counter("sim.events.packet")
    dispatch = phase("dispatch", "wheel_advance")
    sessions, transfers = counter("contact.sessions"), counter("contact.transfers")
    transfer_s, routing_s = phase("transfer"), phase("routing")
    delay_hits, delay_rec = counter("utility.delay_hits"), counter("utility.delay_recomputes")
    rate_hits, rate_rec = counter("utility.rate_hits"), counter("utility.rate_recomputes")
    attributed = phase(*all_phases)
    profiled = sum(s["profile_total_s"] for s in sims)
    traced_run = traced["run_s"]
    # Router construction, finish() and teardown: inside run_instance but
    # outside the program's profiled run loop.
    lifecycle = traced_run - profiled
    run_by_proto = {s["protocol"]: s["run_s"] for s in sims}

    m = {}
    m["setup.scenario_s"] = metric(traced["scenario_s"], "s")
    m["setup.workload_s"] = metric(traced["workload_s"], "s")
    m["setup.mobility_build_s"] = metric(sum(s["mobility_build_s"] for s in sims), "s")
    m["mobility.pops"] = metric(pops, "count")
    m["mobility.busy_s"] = metric(busy, "s")
    m["mobility.ns_per_pop"] = metric(ratio(busy * 1e9, pops), "ns")
    m["mobility.phase_s"] = metric(phase("mobility"), "s")
    m["sim.events"] = metric(events, "count")
    m["sim.dispatch_s"] = metric(dispatch, "s")
    m["sim.ns_per_event"] = metric(ratio(dispatch * 1e9, events), "ns")
    m["sim.lifecycle_s"] = metric(lifecycle, "s")
    m["wheel.advances"] = metric(counter("wheel.advances"), "count")
    m["contact.sessions"] = metric(sessions, "count")
    m["contact.transfers"] = metric(transfers, "count")
    m["contact.useful_ratio"] = metric(ratio(counter("contact.deliveries"), transfers), "ratio")
    m["contact.data_mb"] = metric(counter("contact.data_bytes") / MIB, "MB")
    m["contact.metadata_mb"] = metric(counter("contact.metadata_bytes") / MIB, "MB")
    m["router.drops"] = metric(counter("router.drops"), "count")
    m["transfer_s"] = metric(transfer_s, "s")
    m["transfer.us_per_copy"] = metric(ratio(transfer_s * 1e6, transfers), "us")
    m["packet_gen_s"] = metric(phase("packet_gen"), "s")
    m["routing_s"] = metric(routing_s, "s")
    m["routing.us_per_session"] = metric(ratio(routing_s * 1e6, sessions), "us")
    m["utility.delay_hit_ratio"] = metric(ratio(delay_hits, delay_hits + delay_rec), "ratio")
    m["utility.rate_hit_ratio"] = metric(ratio(rate_hits, rate_hits + rate_rec), "ratio")
    m["utility.delay_recomputes"] = metric(delay_rec, "count")
    m["utility.rate_recomputes"] = metric(rate_rec, "count")
    m["utility.forgets"] = metric(counter("utility.forgets"), "count")
    m["utility.tracked_packets"] = metric(
        max((s["counters"].get("utility.tracked_packets", 0) for s in sims), default=0), "count")
    # Shares, not seconds: on the RAPID workloads no baseline runs, and a
    # time that always reads 0 would look like an unmeasured one.
    for proto in BASELINES:
        m[f"baselines.{proto}.run_share"] = metric(ratio(run_by_proto.get(proto, 0.0), traced_run),
                                                   "ratio")
    m["run.traced_s"] = metric(traced_run, "s")
    m["obs.trace_overhead_pct"] = metric(
        100.0 * ratio(traced_run - untraced["run_s"], untraced["run_s"]), "%")
    # Share of the benchmark-measured traced run_s that the program's own
    # phase profile explains; sim.lifecycle_s is the rest.
    m["obs.profile_coverage"] = metric(ratio(attributed, traced_run), "ratio")
    return m


def self_times(doc):
    """Self time of each benchmark span (duration minus its children), summed
    by name; a run.<protocol> span's children are the program's phases."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_s"] - s["start_s"]
    phases_by_run = {}
    for r, round_ in enumerate(doc["rounds"]):
        for sim in round_["sims"]:
            if "phases" in sim:
                phases_by_run[(r, "run." + sim["protocol"])] = sim["phases"]
    out = {}
    for i, s in enumerate(spans):
        phases = phases_by_run.get((s["run"], s["name"]))
        inner = child[i] + (sum(p["s"] for p in phases.values()) if phases else 0.0)
        key = f"round{s['run']}.{s['name']}"
        out[key] = out.get(key, 0.0) + (s["end_s"] - s["start_s"]) - inner
        for name, p in (phases or {}).items():
            pkey = f"round{s['run']}.{s['name']}.phase.{name}"
            out[pkey] = out.get(pkey, 0.0) + p["s"]
    return out


# --- provenance ------------------------------------------------------------------

def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the simulator sources and the benchmark's build inputs, so a
    record names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt", HERE / "perfbench_sim.cpp"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(doc, args):
    build_info = doc["build"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "hardware_threads": build_info["hardware_threads"],
        "build_type": build_info["type"],
        "release": build_info["type"] == "Release",
        "compiler": build_info["compiler"],
        "obs_compiled_in": bool(build_info["obs"]),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host": platform.machine(),
        "python": platform.python_version(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# --- modes -------------------------------------------------------------------------

def bench(args):
    reference = load_reference(args.reference)
    binary = build()
    doc = run_harness(binary, args.workload, args.seed, args.seconds, args.trace,
                      time.monotonic() + RUN_TIMEOUT_S)
    attempted, failed, problems = check(doc, reference)
    for p in problems:
        log(f"FAILED {args.workload} seed {args.seed}: {p}")
    metrics = per_layer(doc) if args.trace else end_to_end(doc)
    prov = provenance(doc, args)
    if not prov["release"]:
        log(f"WARNING: {prov['build_type']} build, not Release: timings are not comparable")

    records = build_dir() / "records"
    records.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "correct": failed == 0, "attempted": attempted,
              "failed": failed, "problems": problems, "metrics": metrics,
              "self_times_s": self_times(doc), "harness": doc}
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"provenance": prov, "record": str(path)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def record(args):
    """Runs one round and stores its simulated statistics as the reference."""
    reference = load_reference(args.reference) if Path(args.reference).is_file() else {}
    doc = run_harness(build(), args.workload, args.seed, 1, 0, time.monotonic() + RUN_TIMEOUT_S)
    attempted, failed, problems = check(doc, {})
    if failed:
        for p in problems:
            log(f"FAILED: {p}")
        return 1
    entry = {s["protocol"]: {k: s["stats"][k] for k in RECORDED} for s in doc["rounds"][0]["sims"]}
    reference.setdefault(args.workload, {})[str(args.seed)] = entry
    Path(args.reference).write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    log(f"recorded {args.workload} seed {args.seed}: {entry}")
    return 0


def self_test(args):
    ok = True

    def verdict(passed, what):
        nonlocal ok
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {what}")

    # 1. Every file the benchmark reads is committed.
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "ls-files", "--", *BENCH_FILES],
                              capture_output=True, text=True, check=False)
        tracked = set(proc.stdout.split())
        for f in BENCH_FILES:
            verdict(f in tracked, f"{f} is in git ls-files")
    else:
        print("skip tracked-files check: not a git checkout")

    # 2. The reference covers every workload on two seeds, and a change to
    #    any recorded field of any entry is reported.
    reference = load_reference(args.reference)
    for w in WORKLOADS:
        verdict(len(reference.get(w, {})) >= 2, f"reference records {w} on two seeds")
    caught = total = 0
    for seeds in reference.values():
        for protos in seeds.values():
            for ref in protos.values():
                for k in RECORDED:
                    bent = dict(ref, **{k: ref[k] + 1})
                    total += 1
                    caught += bool(reference_mismatches(bent, ref))
    verdict(total > 0 and caught == total, f"{caught}/{total} single-field perturbations caught")

    # 3. End to end: a perturbed reference fails the run (exit 1, one failed
    #    operation); the committed one passes.
    w, seed = "stream-baselines", "20070623"
    if seed in reference.get(w, {}):
        bent = copy.deepcopy(reference)
        bent[w][seed]["direct"]["delivered"] += 1
        bent_path = build_dir() / "self-test-reference.json"
        bent_path.parent.mkdir(parents=True, exist_ok=True)
        bent_path.write_text(json.dumps(bent), encoding="utf-8")
        for path, want_rc, want_failed in ((bent_path, 1, 1), (Path(args.reference), 0, 0)):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                                   "--seed", seed, "--seconds", "1", "--trace", "0",
                                   "--reference", str(path)],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            verdict(proc.returncode == want_rc and result.get("failed") == want_failed
                    and result.get("correct") == (want_failed == 0),
                    f"{w} seed {seed} against {path.name}: exit {proc.returncode}, "
                    f"failed {result.get('failed')} (want exit {want_rc}, failed {want_failed})")
    else:
        verdict(False, f"reference has {w} seed {seed}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20070623)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(DEFAULT_REFERENCE))
    ap.add_argument("--record", action="store_true",
                    help="store this workload and seed's simulated statistics as the reference")
    ap.add_argument("--self-test", action="store_true",
                    help="check the correctness gate and that the benchmark's files are committed")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        if args.self_test:
            return self_test(args)
        if args.workload is None:
            ap.error("--workload is required")
        return record(args) if args.record else bench(args)
    except SetupError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
