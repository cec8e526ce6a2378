#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of the mhca channel-access simulator.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run. Builds perfbench/harness.cc against the repository's
      library into .bench_build/perfbench, generates the workload's scenarios
      from the seed, runs them, checks the outputs and prints one JSON object
      {"correct", "attempted", "failed", "metrics"} as the last stdout line.
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
      The full record (run context, sample counts, checks) goes to
      .bench_build/results/ or to --out FILE.
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload once (--trace 0); prints every end-to-end metric by name
      and unit, runs the output checks and rewrites BENCHMARK.json.
  python3 perfbench/run.py --baseline --seeds 1-10 [--workload W] [--out FILE]
      Every workload (or W) once per seed; prints each metric's median, quartile
      spread and bound, and writes the result (with its run context) to FILE.
  python3 perfbench/run.py --smoke
      Tiny scenarios through both modes of every workload: a quick local
      check that the pipeline builds, runs and parses back.
  python3 perfbench/run.py --compare A.json B.json
      Per-metric change from A to B; refuses results from different contexts.

See perfbench/README.md for the metrics, the workloads and the baseline.
"""
import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
RUN_SECONDS = 40
# Pinned: the neighborhood-cache build runs on this many threads, whatever
# the machine (the solver itself is pinned by solver.parallelism = 1).
CACHE_BUILD_WORKERS = "2"
MIN_SAMPLES = 100  # >= 10 samples beyond the 90th percentile
# A traced --net run reports only a median step time (>= 10 beyond p50).
MIN_TRACED_NET_SAMPLES = 20

# Each run measures `reference` pinned scenarios, the same in every run, and
# then `instances` scenarios whose seeds derive from --seed. All of them give
# timing samples. The decision metrics (the last four END_TO_END ones) come
# from the reference scenarios only: for one program they read exactly the same in
# every run, so any change in decisions between two commits shows, however
# much the values vary between seeds.
REFERENCE_SEED = 7_000_000  # reference scenario i gets run.seed 7000000 + i
WORKLOADS = {
    "lockstep-churn": {
        "engine": "lockstep",
        "reference": 1,
        "instances": 2,
        "why": "cache maintenance (on_graph_delta) and carried-strategy "
               "pruning under churn at |H| = 12,496, above the tier switch",
        "smoke": {"nodes": 200, "slots": 12},
    },
    "net-static": {
        "engine": "net",
        "reference": 2,
        "instances": 2,
        "why": "message-level runtime floods (--net) at 2,000 vertices, no "
               "faults; decisions must equal the lockstep engine's",
        "smoke": {"nodes": 40, "slots": 12},
    },
    "net-churn-faulty": {
        "engine": "net",
        "reference": 8,
        "instances": 8,
        "why": "view-sync membership, hellos, drops and duplicates under "
               "churn on a 48-user grid; the failure shares move here",
        "smoke": {"slots": 12},
    },
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# The decision metrics repeat exactly from run to run, so their bound is a
# small 0.01 rather than anything seed-to-seed variation would suggest.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("slots_per_s", "1/s", "higher", 0.25),
    ("round_ms_p50", "ms", "lower", 0.25),
    ("round_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("observed_per_slot", "rate", "higher", 0.01),
    ("msgs_per_node_round", "msgs", "lower", 0.01),
    ("clean_round_frac", "ratio", "higher", 0.01),
    ("tx_commit_frac", "ratio", "higher", 0.01),
]

# name, unit, better
PER_LAYER = [
    ("scenario.build_ms", "ms", "lower"),
    ("graph.topology_ms", "ms", "lower"),
    ("graph.h_build_ms", "ms", "lower"),
    ("graph.h_vertices", "count", "lower"),
    ("graph.h_edges", "count", "lower"),
    ("graph.cache_build_ms", "ms", "lower"),
    ("graph.cache_mb", "MB", "lower"),
    ("graph.has_edge_calls", "count", "lower"),
    ("channel.build_ms", "ms", "lower"),
    ("dynamics.build_ms", "ms", "lower"),
    ("bandit.index_ms", "ms", "lower"),
    ("bandit.observe_ms", "ms", "lower"),
    ("channel.sample_ms", "ms", "lower"),
    ("mwis.decide_ms_p50", "ms", "lower"),
    ("mwis.decide_ms_p90", "ms", "lower"),
    ("mwis.setup_ms", "ms", "lower"),
    ("mwis.election_ms", "ms", "lower"),
    ("mwis.gather_ms", "ms", "lower"),
    ("mwis.solve_ms", "ms", "lower"),
    ("mwis.apply_ms", "ms", "lower"),
    ("mwis.validate_ms", "ms", "lower"),
    ("mwis.other_ms", "ms", "lower"),
    ("mwis.mini_rounds", "count", "lower"),
    ("mwis.leaders_per_decision", "count", "higher"),
    ("mwis.winners_per_decision", "count", "higher"),
    ("mwis.bnb_nodes_per_decision", "count", "lower"),
    ("mwis.exact_solve_frac", "ratio", "higher"),
    ("mwis.delta_ms", "ms", "lower"),
    ("mwis.msg_count_ms", "ms", "lower"),
    ("dynamics.advance_ms", "ms", "lower"),
    ("dynamics.changed_slot_frac", "ratio", "lower"),
    ("dynamics.touched_per_slot", "count", "lower"),
    ("sim.prune_ms", "ms", "lower"),
    ("sim.self_ms", "ms", "lower"),
    ("net.discovery_ms", "ms", "lower"),
    ("net.finalize_discovery_ms", "ms", "lower"),
    ("net.step_ms_p50", "ms", "lower"),
    ("net.membership_ms", "ms", "lower"),
    ("net.weight_broadcast_ms", "ms", "lower"),
    ("net.election_ms", "ms", "lower"),
    ("net.determination_ms", "ms", "lower"),
    ("net.tx_ms", "ms", "lower"),
    ("net.round_other_ms", "ms", "lower"),
    ("net.begin_round_ms", "ms", "lower"),
    ("net.rediscovery_ms", "ms", "lower"),
    ("net.flood_us.hello", "us", "lower"),
    ("net.flood_us.weight_update", "us", "lower"),
    ("net.flood_us.leader_declare", "us", "lower"),
    ("net.flood_us.determination", "us", "lower"),
    ("net.flood_us.view_change", "us", "lower"),
    ("net.deliveries_per_flood", "count", "lower"),
    ("net.max_table_size", "count", "lower"),
    ("net.hello_byte_share", "ratio", "lower"),
    ("net.bytes_per_node_round", "B", "lower"),
    ("channel.drops", "count", "lower"),
    ("channel.duplicates", "count", "lower"),
    ("membership.retries", "count", "lower"),
    ("membership.timeouts", "count", "lower"),
    ("membership.view_changes", "count", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.trace_events", "count", "lower"),
    ("obs.coverage", "ratio", "higher"),
]
MIN_COVERAGE = 0.95
# Results are comparable only when these agree.
CONTEXT_KEYS = ("nproc", "hardware_concurrency", "simd", "build_type",
                "compiler", "cache_build_workers")


class BenchError(Exception):
    """The benchmark could not produce a result (build or run failure)."""


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------- statistics

def percentile(samples, p, min_beyond=10):
    """The p-th percentile (linear interpolation between closest ranks) and
    the number of samples it rests on. Refuses (TooFewSamples) unless at
    least `min_beyond` samples lie beyond it, i.e. floor(n * (100 - p) / 100)
    >= min_beyond."""
    xs = sorted(samples)
    n = len(xs)
    beyond = math.floor(n * (100 - p) / 100)
    if n == 0 or beyond < min_beyond:
        raise TooFewSamples(
            f"p{p:g} of {n} samples leaves {beyond} beyond it; "
            f"need {min_beyond}")
    pos = (n - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else float("inf"))


# ------------------------------------------------------------ build + run

def ensure_built():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(
            "no CMakeLists.txt at the repository root: perfbench builds the "
            "mhca library from the checkout's sources")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=850)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    return HARNESS


def scenario_seeds(workload, seed, smoke=False):
    """run.seed (= net.drop_seed) of each scenario of a run: the pinned
    reference scenarios first, then seed * 100 + i for instance i. A smoke
    run has one reference scenario."""
    spec = WORKLOADS[workload]
    reference = [REFERENCE_SEED + i for i in range(spec["reference"])]
    if smoke:
        return reference[:1]
    return reference + [seed * 100 + i for i in range(spec["instances"])]


def render_scenarios(workload, seed, smoke=False):
    """Writes the workload's scenario files for this seed; returns their
    paths, in scenario_seeds() order."""
    spec = WORKLOADS[workload]
    with open(os.path.join(BENCH_DIR, "workloads", workload + ".ini")) as f:
        template = f.read()
    if smoke:
        if "nodes" in spec["smoke"]:
            template = re.sub(r"(?m)^nodes = \d+$",
                              f"nodes = {spec['smoke']['nodes']}", template)
        template = re.sub(r"(?m)^slots = \d+$",
                          f"slots = {spec['smoke']['slots']}", template)
    out_dir = os.path.join(BUILD_ROOT, "scenarios",
                           workload + ("-smoke" if smoke else ""))
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, run_seed in enumerate(scenario_seeds(workload, seed, smoke)):
        path = os.path.join(out_dir, f"seed{seed}-{i}.ini")
        with open(path, "w") as f:
            f.write(template.replace("{seed}", str(run_seed)))
        paths.append(path)
    return paths


def run_harness(harness, workload, scenarios, seconds, trace, min_samples):
    cmd = [harness, "--engine", WORKLOADS[workload]["engine"],
           "--seconds", str(seconds), "--trace", str(trace),
           "--min-samples", str(min_samples)]
    if workload == "net-static":
        cmd.append("--check-lockstep")
    env = dict(os.environ, MHCA_CACHE_BUILD_WORKERS=CACHE_BUILD_WORKERS)
    proc = subprocess.run(cmd + scenarios, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError("harness failed: " + proc.stderr.strip())
    return json.loads(proc.stdout)


def run_context(raw):
    ctx = dict(raw["context"])
    ctx["nproc"] = len(os.sched_getaffinity(0))
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    ctx["commit"] = commit
    return ctx


def check_fingerprints(workload, scenarios, harness, records):
    """Every fingerprint must repeat across runs of one seed: the first run
    of a (scenario, harness binary) pair records it, later runs compare.
    Returns the failed scenario indices."""
    with open(harness, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()
    store = os.path.join(BUILD_ROOT, "fingerprints", workload)
    os.makedirs(store, exist_ok=True)
    failed = set()
    for i, path in enumerate(scenarios):
        with open(path) as f:
            key = hashlib.sha256((binary + f.read()).encode()).hexdigest()
        seen = {r["fingerprint"] for r in records if r["scenario"] == i}
        if not seen:
            continue  # a traced run need not reach every scenario
        if len(seen) != 1:
            failed.add(i)
            continue
        fp = seen.pop()
        entry = os.path.join(store, key[:24])
        if os.path.exists(entry):
            with open(entry) as f:
                if f.read() != fp:
                    failed.add(i)
        else:
            with open(entry, "w") as f:
                f.write(fp)
    return failed


# ---------------------------------------------------------------- metrics

def end_to_end_metrics(raw, reference, min_beyond=10):
    """Every END_TO_END metric from the untraced records; the decision
    metrics come from the first `reference` scenarios only. Also returns the
    sample count behind each timing."""
    recs = raw["records"]
    first = {}
    for r in recs:  # every pass repeats the first one's outputs
        if r["scenario"] < reference:
            first.setdefault(r["scenario"], r)
    once = list(first.values())
    slot_ms = [x for r in recs for x in r["slot_ms"]]
    p50, n = percentile(slot_ms, 50, min_beyond)
    p90, _ = percentile(slot_ms, 90, min_beyond)
    setup = [r["setup_s"] for r in recs]
    slots = sum(r["slots"] for r in once)
    winners = sum(r["winners"] for r in once)
    decided = winners + sum(r["abstained"] for r in once)
    values = {
        "setup_s": statistics.median(setup),
        "slots_per_s": len(slot_ms) / (sum(slot_ms) / 1e3),
        "round_ms_p50": p50,
        "round_ms_p90": p90,
        "peak_rss_mb": raw["peak_rss_mb"],
        "observed_per_slot": sum(r["total_observed"] for r in once) / slots,
        "msgs_per_node_round": sum(r["messages"] for r in once) /
                               sum(r["users"] * r["slots"] for r in once),
        "clean_round_frac": 1 - sum(r["conflicts"] for r in once) / slots,
        "tx_commit_frac": winners / decided if decided else 1.0,
    }
    samples = {"setup_s": len(setup), "slots_per_s": n, "round_ms_p50": n,
               "round_ms_p90": n}
    return values, samples


def per_layer_metrics(raw, min_beyond=10):
    values = dict(raw["layers"])
    samples = {}
    for name, key, p in (("mwis.decide_ms_p50", "decide_ms", 50),
                         ("mwis.decide_ms_p90", "decide_ms", 90),
                         ("net.step_ms_p50", "step_ms", 50)):
        xs = raw[key]
        values[name], samples[name] = (
            percentile(xs, p, min_beyond) if xs else (0.0, 0))
    return values, samples


def measure(workload, seed, seconds, trace, smoke=False):
    """One run. Returns (result line dict, full record dict)."""
    harness = ensure_built()
    scenarios = render_scenarios(workload, seed, smoke)
    if smoke:
        min_samples = 20
    elif trace and WORKLOADS[workload]["engine"] == "net":
        min_samples = MIN_TRACED_NET_SAMPLES
    else:
        min_samples = MIN_SAMPLES
    min_beyond = 1 if smoke else 10
    raw = run_harness(harness, workload, scenarios, seconds, trace,
                      min_samples)
    checks = list(raw["checks"])
    bad = {int(m.group(1)) for c in checks
           for m in [re.match(r"scenario (\d+)", c["detail"])] if m}
    for i in sorted(check_fingerprints(workload, scenarios, harness,
                                       raw["records"])):
        checks.append({"name": "fingerprint_repeats", "ok": False,
                       "detail": f"scenario {i}"})
        bad.add(i)
    if trace:
        values, samples = per_layer_metrics(raw, min_beyond)
        spec = [(n, u) for n, u, _ in PER_LAYER]
        if values["obs.coverage"] < MIN_COVERAGE:
            checks.append({"name": "coverage", "ok": False,
                           "detail": f"{values['obs.coverage']:.4f} < "
                                     f"{MIN_COVERAGE}"})
    else:
        reference = min(WORKLOADS[workload]["reference"], len(scenarios))
        values, samples = end_to_end_metrics(raw, reference, min_beyond)
        spec = [(n, u) for n, u, _, _ in END_TO_END]
    attempted = sum(r["slots"] for r in raw["records"])
    failed = sum(r["slots"] for r in raw["records"] if r["scenario"] in bad)
    if checks and not failed:
        failed = 1  # a run-wide check (coverage) failed
    result = {
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in spec},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke, "context": run_context(raw),
              "result": result, "samples": samples, "checks": checks}
    if trace:
        record["ledger"] = raw["ledger"]  # every scope's self/incl time
        record["attribution"] = raw["attribution"]  # sampled group splits
    return result, record


def print_table(workload, record):
    log(f"== {workload} (seed {record['seed']}, trace {record['trace']})")
    for name, m in record["result"]["metrics"].items():
        n = record["samples"].get(name)
        suffix = f"  [{n} samples]" if n else ""
        log(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{suffix}")
    for c in record["checks"]:
        log(f"  CHECK FAILED {c['name']}: {c['detail']}")


def write_record(record, path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def format_result_line(result):
    return json.dumps(result, separators=(",", ":"))


# ------------------------------------------------------------ other modes

def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(benchmark_json(), f, indent=2)
        f.write("\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def baseline(seeds, seconds, out, workloads):
    summary = {}
    context = None
    ok = True
    for workload in workloads:
        per_metric = {n: [] for n, _, _, _ in END_TO_END}
        for seed in seeds:
            result, record = measure(workload, seed, seconds, 0)
            context = context or record["context"]
            if not result["correct"]:
                ok = False
                print_table(workload, record)
            for n in per_metric:
                per_metric[n].append(result["metrics"][n]["value"])
        summary[workload] = {}
        log(f"== {workload}: {len(seeds)} seeds")
        for n, unit, _, bound in END_TO_END:
            med, q1, q3, s = spread(per_metric[n])
            summary[workload][n] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": s, "unit": unit,
                                    "values": per_metric[n]}
            flag = ("  OVER" if s > bound else
                    "  WIDE" if s > bound / 3 else "")
            log(f"  {n:22s} median {med:12.6g} {unit:6s} spread {s:7.4f} "
                f"(bound {bound}){flag}")
    record = {"context": context, "seeds": seeds, "seconds": seconds,
              "workloads": summary}
    if out:
        write_record(record, out)
    return ok


def comparable_values(record):
    """{workload: {metric: value}} from a run record or a baseline."""
    if "workloads" in record:
        return {w: {n: m["median"] for n, m in ms.items()}
                for w, ms in record["workloads"].items()}
    return {record["workload"]: {n: m["value"] for n, m in
                                 record["result"]["metrics"].items()}}


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    diff = [k for k in CONTEXT_KEYS
            if a["context"].get(k) != b["context"].get(k)]
    if diff:
        log("refusing to compare results from different run contexts: " +
            ", ".join(f"{k}: {a['context'].get(k)!r} vs "
                      f"{b['context'].get(k)!r}" for k in diff))
        return 2
    bounds = {n: (better, bound) for n, _, better, bound in END_TO_END}
    va, vb = comparable_values(a), comparable_values(b)
    worse = False
    for w in va:
        for n, x in va[w].items():
            if w not in vb or n not in vb[w] or not x:
                continue
            change = (vb[w][n] - x) / x
            better, bound = bounds.get(n, ("lower", None))
            loss = change if better == "lower" else -change
            flag = ""
            if bound is not None and loss > bound:
                flag, worse = "  WORSE", True
            log(f"{w:18s} {n:32s} {x:14.6g} -> {vb[w][n]:14.6g} "
                f"({change:+.2%}){flag}")
    return 1 if worse else 0


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = measure(workload, 1, 0, trace, smoke=True)
            line = json.loads(format_result_line(result))
            names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
            good = (result["correct"] and line == result and
                    set(line) == {"correct", "attempted", "failed",
                                  "metrics"} and list(line["metrics"]) == names)
            print_table(workload, record)
            log(f"  smoke {'ok' if good else 'FAILED'}")
            ok = ok and good
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="where to write the full record")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.smoke:
            return 0 if smoke() else 1
        if args.baseline:
            workloads = [args.workload] if args.workload else list(WORKLOADS)
            return 0 if baseline(parse_seeds(args.seeds), args.seconds,
                                 args.out, workloads) else 1
        if args.all:
            ok = True
            for workload in WORKLOADS:
                result, record = measure(workload, args.seed, args.seconds, 0)
                print_table(workload, record)
                ok = ok and result["correct"]
            write_benchmark_json()
            return 0 if ok else 1
        if not args.workload:
            ap.error("--workload is required for a single run")
        result, record = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
        print_table(args.workload, record)
        write_record(record, args.out or os.path.join(
            BUILD_ROOT, "results",
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"))
        print(format_result_line(result), flush=True)
        return 0
    except (BenchError, TooFewSamples, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
