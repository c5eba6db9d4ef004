#!/usr/bin/env python3
"""Benchmark of record for the Saturn simulator.

Builds saturn_bench from source (benchmark/CMakeLists.txt), runs
each workload in fresh processes, one at a time, checks correctness, and
prints every metric by name with its unit. BENCHMARK.json names the
workloads and metrics; benchmark/README.md explains them.

Usage (from the repository root):
  python3 benchmark/run.py                 all workloads, round-robin: the
                                           correctness pass, timed repeats,
                                           end-to-end metrics, results JSON
  python3 benchmark/run.py --traced        the same plus one traced run per
                                           workload: per-layer metrics, spans
  python3 benchmark/run.py --check         the correctness pass only
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                           one workload; the last line of
                                           stdout is the JSON result
  python3 benchmark/run.py --compare A.json B.json
                                           verdict per workload and metric
  python3 benchmark/run.py --smoke         all workloads at tiny scale; checks
                                           the results JSON and the spans
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("geo7_full", "geo7_partial_batched", "geo7_cure", "mm_flash")
# Timed fresh-process repeats per workload: one per REPEAT_SECONDS of
# --seconds (one Run of any workload takes about that long), at least
# MIN_REPEATS. The count never depends on measured time, so every commit's
# slice minimum is taken over the same number of repeats.
REPEAT_SECONDS = 4
MIN_REPEATS = 3
# Cold set-up-only processes after each timed repeat: setup_s samples spread
# over the whole measurement, like the repeats themselves.
SETUPS_PER_REPEAT = 2
# The traced run alternates untraced and traced repeats, so host load slows
# both alike; its walls are slice minimums over this many repeats of each.
TRACED_PAIRS = 2
PROCESS_TIMEOUT_S = 170
# A percentile needs at least this many samples beyond it.
SAMPLES_BEYOND = 10
# --compare treats smaller absolute differences as noise: a cold set-up of a
# few milliseconds moves by more than its bound with page-fault timing alone.
NOISE_FLOOR = {"setup_s": 0.010}


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_spec():
    return load_json(ROOT / "BENCHMARK.json")


def load_moves():
    return load_json(BENCH_DIR / "spec.json")["per_layer_moves"]


# --- Statistics ----------------------------------------------------------------


def summarize(samples, value=None):
    """A metric's reported value (the median of its samples unless given),
    with the samples' quartiles (statistics.quantiles, n=4) and range.

    The spread that --compare holds against a bound is the samples' IQR over
    the value: how far one run strays from the next.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no samples")
    if value is None:
        value = statistics.median(samples)
    q1 = q3 = samples[0]
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": value, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "rel_iqr": (q3 - q1) / abs(value) if value else 0.0,
            "samples": samples, "min": min(samples), "max": max(samples)}


def verdict(base, cand, better, bound, floor=0.0):
    """Compares two summaries of one metric against its bound.

    Returns "better", "worse", "within bound", or "unresolved" when either
    side's spread (IQR over value) exceeds the bound, unless every sample of
    the candidate beats every sample of the base. Differences and IQRs no
    larger than the absolute `floor` count as noise.
    """
    def beats(c, b):
        return c < b if better == "lower" else c > b

    mb, mc = base["value"], cand["value"]
    if abs(mc - mb) <= floor:
        worse_by = 0.0
    elif mb != 0:
        worse_by = (mc - mb) / abs(mb) * (1 if better == "lower" else -1)
    else:
        worse_by = float("-inf") if beats(mc, mb) else float("inf")

    all_better = all(beats(c, b) for c in cand["samples"] for b in base["samples"])
    spread = max(base["rel_iqr"] if base["iqr"] > floor else 0.0,
                 cand["rel_iqr"] if cand["iqr"] > floor else 0.0)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within bound"


# --- Building and driving ------------------------------------------------------


def build(build_dir):
    if not (ROOT / "src" / "runtime" / "cluster.h").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "saturn_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "saturn_bench"


class Launcher:
    """Starts saturn_bench processes, one at a time, and parses their output."""

    def __init__(self, binary, smoke, span_dir):
        self.binary = str(binary)
        self.smoke = smoke
        self.span_dir = span_dir
        self.processes = 0

    def __call__(self, workload, mode, seed, extra=(), spans=False):
        cmd = [self.binary, "--workload", workload, "--mode", mode, "--seed", str(seed)]
        if self.smoke:
            cmd.append("--smoke")
        span_path = None
        if spans:
            self.span_dir.mkdir(parents=True, exist_ok=True)
            span_path = self.span_dir / f"{workload}-{mode}-{self.processes}.json"
            cmd += ["--spans", str(span_path),
                    "--run-id", f"{workload}:{mode}:seed{seed}:{self.processes}"]
        cmd += [str(a) for a in extra]
        self.processes += 1
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(lines[-1])["result"]
        if span_path is not None:
            result["span_file"] = str(span_path)
        return result


def merge_spans(paths, out_path):
    """Merges per-process span files onto one timeline, one track each."""
    meta, events = [], []
    for tid, path in enumerate(paths):
        for ev in load_json(path)["traceEvents"]:
            ev = dict(ev, tid=tid)
            if ev["ph"] == "M":
                if ev["name"] == "thread_name" or tid == 0:
                    meta.append(ev)
                continue
            # Span ids are per process; offset them so they stay unique.
            ev["id"] += tid * 100000
            if ev["args"]["parent"] >= 0:
                ev["args"] = dict(ev["args"], parent=ev["args"]["parent"] + tid * 100000)
            events.append(ev)
    events.sort(key=lambda ev: ev["ts"])  # stable: begins stay before their ends
    with open(out_path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": meta + events}, f)
    return out_path


def check_spans(path):
    """Validates a span file with tools/trace_check.py; returns (ok, output)."""
    tool = ROOT / "tools" / "trace_check.py"
    proc = subprocess.run([sys.executable, str(tool), "--require-span=run.measure", str(path)],
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    return proc.returncode == 0, (proc.stdout + proc.stderr).strip()


# --- Metrics -------------------------------------------------------------------


def sim_fingerprint(run):
    return json.dumps(run["sim"], sort_keys=True)


def percentile_ok(hist, q):
    """True when at least SAMPLES_BEYOND samples lie beyond quantile q."""
    return hist["n"] * (1 - q) >= SAMPLES_BEYOND


def slice_min_walls(runs):
    """Each slice's wall time in its fastest repeat.

    Repeats at one seed do identical work slice by slice (100 ms of simulated
    time each). Other processes on the host only ever add time, in bursts of
    a second or more, so each slice's minimum over the repeats is its least
    disturbed time, and their sum is the Run's wall time without the bursts.
    The minimum of more repeats is smaller, so every estimate built on it
    takes a number of repeats fixed in advance (repeat_count, TRACED_PAIRS).
    """
    return [min(column) for column in zip(*(r["slice_wall_s"] for r in runs))]


def slice_min_wall(runs):
    return sum(slice_min_walls(runs))


def sim_ops_per_wall_s(runs):
    """Slice-minimum throughput over the repeats; the samples are each
    process's own ops per Run wall second."""
    return summarize([r["sim"]["ops"] / r["run_wall_s"] for r in runs],
                     value=runs[0]["sim"]["ops"] / slice_min_wall(runs))


def end_to_end(runs, setups):
    """E2E metric summaries from timed repeats and cold set-ups.

    setup_s and peak_rss_mb take one sample per process. Simulated metrics
    are identical in every repeat (checked separately), so each repeat
    contributes the same value.
    """
    sims = [r["sim"] for r in runs]
    raw = {
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "visibility_p50_ms": [s["visibility"]["p50_ms"] for s in sims],
        "visibility_p99_ms": [s["visibility"]["p99_ms"] for s in sims],
        "op_latency_p50_ms": [s["op_latency"]["p50_ms"] for s in sims],
        "op_latency_p99_ms": [s["op_latency"]["p99_ms"] for s in sims],
        "sim_throughput_ops": [s["throughput_ops"] for s in sims],
        "wire_bytes_per_op": [s["net_bytes"] / s["ops"] for s in sims],
        "served_op_frac": [(s["attempted"] - s["failed"]) / s["attempted"] for s in sims],
    }
    counts = {
        "visibility_p50_ms": sims[0]["visibility"]["n"],
        "visibility_p99_ms": sims[0]["visibility"]["n"],
        "op_latency_p50_ms": sims[0]["op_latency"]["n"],
        "op_latency_p99_ms": sims[0]["op_latency"]["n"],
    }
    metrics = {"sim_ops_per_wall_s": sim_ops_per_wall_s(runs)}
    for name, samples in raw.items():
        metrics[name] = summarize(samples)
        if name in counts:
            metrics[name]["n"] = counts[name]
    return metrics


def e2e_problems(runs):
    """Correctness problems visible in the timed repeats."""
    problems = []
    if len({sim_fingerprint(r) for r in runs}) != 1:
        problems.append("repeats at one seed disagree on simulated outcomes (nondeterminism)")
    if len({len(r["slice_wall_s"]) for r in runs}) != 1:
        problems.append("repeats at one seed ran different numbers of slices")
    s = runs[0]["sim"]
    if s["ops"] <= 0 or s["attempted"] <= 0:
        problems.append("no operations completed")
    for key, q in (("visibility", 0.5), ("visibility", 0.99), ("op_latency", 0.5),
                   ("op_latency", 0.99)):
        if not percentile_ok(s[key], q):
            problems.append(f"{key} p{round(q * 100)} has fewer than {SAMPLES_BEYOND} samples "
                            f"beyond it (n={s[key]['n']})")
    return problems


def per_layer(runs, traced, probes, setups, batching):
    """Per-layer metrics: counts from the untraced runs, waits and phase walls
    from the traced runs, ns per call from the probes, and the derived shares.
    Walls are slice minimums over the repeats, like sim_ops_per_wall_s.
    """
    run = runs[0]
    s = run["sim"]
    ops = s["ops"]
    updates = ops * s["update_share"]
    reads = ops - updates
    degree = s["mean_replication_degree"]
    routed = s["tree_labels_routed"]
    wire = s["wire_bytes"]

    def ratio(a, b):
        return a / b if b else 0.0

    def p99(hist):
        return hist["p99_ms"] if percentile_ok(hist, 0.99) else 0.0

    m = {
        "sim.events_per_op": ratio(s["executed_events"], ops),
        "alloc.per_op": ratio(run["allocs"], ops),
        "alloc.bytes_per_op": ratio(run["alloc_bytes"], ops),
        "net.messages_per_op": ratio(s["net_messages"], ops),
    }
    for cls, nbytes in wire.items():
        m[f"net.bytes_per_op.{cls}"] = ratio(nbytes, ops)
    m.update({
        "tree.labels_routed_per_update": ratio(routed, updates),
        "link.retransmit_frac": ratio(s["link_retransmissions"], routed),
        "meta.bytes_per_label": ratio(wire["metadata_labels"], routed),
        "workload.queue_wait_p99_ms": p99(s["queue_wait"]),
        "workload.shed_frac": ratio(s["shed"], s["attempted"]),
        "workload.attach_p99_ms": p99(s["attach_latency"]),
        "attr.samples": traced[0]["attribution_samples"],
    })
    enough = traced[0]["attribution_samples"] * 0.01 >= SAMPLES_BEYOND
    for phase, value in traced[0]["attribution_p99_ms"].items():
        m[f"attr.{phase}_p99_ms"] = value if enough else 0.0
    for key, value in probes.items():
        if "ns_per" in key:
            m[key] = value
    for part in ("replica_map", "tree_solve", "cluster"):
        m[f"setup.{part}_s"] = statistics.median(x[f"{part}_s"] for x in setups)
    traced_slices = slice_min_walls(traced)
    bounds = (0, traced[0]["measure_slice"], traced[0]["drain_slice"], len(traced_slices))
    for phase, begin, end in zip(("warmup", "measure", "drain"), bounds, bounds[1:]):
        m[f"run.{phase}_wall_s"] = sum(traced_slices[begin:end])

    # Layer cost per op = calls per op x ns per call. Calls that the public
    # counters do not give exactly are estimated from the op mix: one store
    # read per read, one store write per replica of an update, one op
    # generation and replica lookup per op plus one per update, one latency
    # record per op plus one per remote visibility. The event-queue insert of
    # a message delivery is charged to sim only: the net probe subtracts it.
    untraced_wall = slice_min_wall(runs)
    wall_ns_per_op = untraced_wall * 1e9 / ops
    per_op_ns = {
        "sim": m["sim.events_per_op"] * m["sim.ns_per_event"],
        "net": m["net.messages_per_op"] * m["net.ns_per_send"],
        "codec": (ratio(routed, ops) * (m["codec.ns_per_label_encode"] +
                                       m["codec.ns_per_label_decode"]) if batching else 0.0),
        "serializer": ratio(routed, ops) * m["serializer.ns_per_label"],
        "kvstore": (reads * m["kvstore.ns_per_get"] +
                    updates * degree * m["kvstore.ns_per_put"]) / ops,
        "workload": (m["workload.ns_per_op_generated"] +
                     (1 + updates / ops) * m["workload.ns_per_replicas_of"]),
        "stats": (1 + updates / ops * (degree - 1)) * m["stats.ns_per_record"],
    }
    for layer, ns in per_op_ns.items():
        m[f"{layer}.share_est"] = ns / wall_ns_per_op
    m["unattributed_share"] = 1.0 - sum(m[f"{layer}.share_est"] for layer in per_op_ns)
    m["trace.overhead_pct"] = (sum(traced_slices) / untraced_wall - 1.0) * 100.0
    return m


# --- One workload ----------------------------------------------------------------


def correctness_pass(drive, workload, seed):
    result = drive(workload, "check", seed)
    problems = []
    if not result["ok"]:
        problems.append(f"check: {result['violations']} violations, "
                        f"{result['missing_replicas']} missing replicas, backlog "
                        f"{result['backlog']}, ops {result['ops']}: {result['first_problem']}")
    return result, problems


def repeat(drive, workload, seed):
    """One timed repeat and its set-up samples: the repeat's own set-up plus
    SETUPS_PER_REPEAT set-up-only processes."""
    run = drive(workload, "run", seed)
    setups = [run["setup"]] + [drive(workload, "setup", seed)["setup"]
                               for _ in range(SETUPS_PER_REPEAT)]
    return run, setups


def traced_layers(drive, workload, seed, batching, span_dir):
    """The traced run: TRACED_PAIRS pairs of an untraced and a traced repeat,
    then the probes. Returns the untraced repeats, the per-layer metrics,
    the problems found and the span file (first traced repeat and probes)."""
    runs, traced = [], []
    for i in range(TRACED_PAIRS):
        runs.append(drive(workload, "run", seed))
        traced.append(drive(workload, "traced", seed, spans=i == 0))
    probes = drive(workload, "probe", seed, extra=["--heap-depth", traced[0]["heap_depth"]],
                   spans=True)
    problems = e2e_problems(runs)
    untraced_events = runs[0]["sim"]["executed_events"]
    if any(t["executed_events"] != untraced_events for t in traced):
        problems.append("attribution changed the executed events: "
                        f"{[t['executed_events'] for t in traced]} traced, "
                        f"{untraced_events} untraced")
    setup = traced[0]["setup"]
    parts = setup["replica_map_s"] + setup["tree_solve_s"] + setup["cluster_s"]
    if abs(parts - setup["setup_s"]) > 0.05 * setup["setup_s"]:
        problems.append(f"setup spans sum to {parts:.6f} s, setup_s is {setup['setup_s']:.6f} s")
    span_path = merge_spans([traced[0]["span_file"], probes["span_file"]],
                            span_dir / f"spans-{workload}-seed{seed}.json")
    ok, output = check_spans(span_path)
    if not ok:
        problems.append(f"span export invalid: {output}")
    setups = [r["setup"] for r in runs + traced]
    layers = per_layer(runs, traced, probes, setups, batching)
    return runs, layers, problems, str(span_path)


def describe(drive, workload):
    return drive(workload, "describe", 42)


def print_metrics(workload, metrics, spec_metrics, extra=None):
    for entry in spec_metrics:
        name = entry["name"]
        value = metrics[name]
        if isinstance(value, dict):
            note = (f"{len(value['samples'])} samples, min {value['min']:.6g}, "
                    f"max {value['max']:.6g}; IQR {value['rel_iqr'] * 100:.2f}% of the value")
            if "n" in value:
                note += f", n={value['n']}"
            value = value["value"]
        else:
            note = (extra or {}).get(name, "")
        print(f"{workload:22s} {name:34s} {value:>16.6g} {entry['unit']:14s} {note}")


# --- Modes -----------------------------------------------------------------------


def workload_mode(args, spec, drive, build_dir):
    """One workload (--workload/--seed/--seconds/--trace); the last line of
    stdout is the JSON result."""
    w = args.workload
    problems = []
    _, check_problems = correctness_pass(drive, w, args.seed)
    problems += check_problems
    if args.trace:
        params = describe(drive, w)
        runs, layers, layer_problems, _ = traced_layers(drive, w, args.seed,
                                                        params["batch_deadline_ms"] > 0,
                                                        build_dir / "spans")
        problems += layer_problems
        metrics = {e["name"]: layers[e["name"]] for e in spec["per_layer"]}
        print_metrics(w, metrics, spec["per_layer"])
        units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    else:
        runs, setups = timed_repeats(drive, [w], args.seed, repeat_count(args.seconds))
        runs, setups = runs[w], setups[w]
        problems += e2e_problems(runs)
        summaries = end_to_end(runs, [x["setup_s"] for x in setups])
        metrics = {name: summaries[name]["value"] for name in summaries}
        print_metrics(w, summaries, spec["end_to_end"])
        units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    for p in problems:
        print(f"{w}: FAILED {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r["sim"]["attempted"] for r in runs),
        "failed": sum(r["sim"]["failed"] for r in runs),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def repeat_count(seconds):
    return max(MIN_REPEATS, seconds // REPEAT_SECONDS)


def timed_repeats(drive, workloads, seed, count):
    """`count` fresh-process repeats per workload, round-robin over the
    workloads. Returns the runs and the set-up samples, by workload."""
    runs = {w: [] for w in workloads}
    setups = {w: [] for w in workloads}
    for _ in range(count):
        for w in workloads:
            run, samples = repeat(drive, w, seed)
            runs[w].append(run)
            setups[w] += samples
            log(f"  {w}: repeat {len(runs[w])}, Run {run['run_wall_s']:.2f} s")
    return runs, setups


def full_mode(args, spec, drive, build_dir):
    """All workloads: correctness pass, timed repeats, optional traced runs."""
    started = time.monotonic()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    doc = {
        "schema": "saturn-bench-results/1",
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    problems = []
    for w in workloads:
        check, check_problems = correctness_pass(drive, w, args.seed)
        problems += [f"{w}: {p}" for p in check_problems]
        doc["workloads"][w] = {"params": describe(drive, w), "check": check}
        log(f"{w}: correctness pass {'ok' if check['ok'] else 'FAILED'}")
    runs, setups = timed_repeats(drive, workloads, args.seed, repeat_count(seconds))
    for w in workloads:
        entry = doc["workloads"][w]
        entry["runs"] = runs[w]
        entry["setups"] = setups[w]
        entry["end_to_end"] = end_to_end(runs[w], [x["setup_s"] for x in setups[w]])
        problems += [f"{w}: {p}" for p in e2e_problems(runs[w])]
    doc["default_wall_s"] = time.monotonic() - started
    if args.traced:
        traced_started = time.monotonic()
        for w in workloads:
            entry = doc["workloads"][w]
            _, layers, layer_problems, span_path = traced_layers(
                drive, w, args.seed, entry["params"]["batch_deadline_ms"] > 0,
                build_dir / "spans")
            entry["per_layer"] = layers
            entry["span_file"] = span_path
            problems += [f"{w}: {p}" for p in layer_problems]
        doc["traced_wall_s"] = time.monotonic() - traced_started
    doc["problems"] = problems

    moves = load_moves()
    for w in workloads:
        entry = doc["workloads"][w]
        print_metrics(w, entry["end_to_end"], spec["end_to_end"])
        if "per_layer" in entry:
            notes = {name: "moves " + ", ".join(moves[name]["moves"]) for name in moves}
            print_metrics(w, entry["per_layer"], spec["per_layer"], notes)
    out = Path(args.out) if args.out else build_dir / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"wrote {out}; default run {doc['default_wall_s']:.1f} s" +
          (f", traced {doc['traced_wall_s']:.1f} s" if args.traced else ""))
    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


def check_mode(args, drive):
    failed = False
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    for w in workloads:
        result, problems = correctness_pass(drive, w, args.seed)
        runs = [drive(w, "run", args.seed) for _ in range(2)]
        identical = sim_fingerprint(runs[0]) == sim_fingerprint(runs[1])
        if not identical:
            problems.append("two timed repeats disagree on simulated outcomes")
        print(f"{w}: seed {args.seed}: {result['ops']} ops, {result['violations']} violations, "
              f"{result['missing_replicas']} missing replicas, backlog {result['backlog']}; "
              f"two timed repeats {'identical' if identical else 'DIFFER'}: "
              f"{'ok' if not problems else 'FAILED ' + '; '.join(problems)}")
        failed = failed or bool(problems)
    return 1 if failed else 0


def validate_results(doc, spec):
    """Schema check of a results JSON; returns a list of problems."""
    errors = []
    if doc.get("schema") != "saturn-bench-results/1":
        errors.append("schema tag missing")
    for w in WORKLOADS:
        entry = doc.get("workloads", {}).get(w)
        if entry is None:
            errors.append(f"{w}: missing")
            continue
        if not entry.get("check", {}).get("ok"):
            errors.append(f"{w}: correctness pass not ok")
        for section, metrics in (("end_to_end", spec["end_to_end"]),
                                 ("per_layer", spec["per_layer"])):
            values = entry.get(section, {})
            for m in metrics:
                v = values.get(m["name"])
                if isinstance(v, dict):
                    v = v.get("value")
                if not isinstance(v, (int, float)):
                    errors.append(f"{w}: {section} metric {m['name']} missing")
    errors += doc.get("problems", [])
    return errors


def smoke_mode(args, spec, drive, build_dir):
    args.traced = True
    args.seconds = 0
    out = Path(args.out) if args.out else build_dir / "smoke_results.json"
    args.out = str(out)
    rc = full_mode(args, spec, drive, build_dir)
    doc = load_json(out)
    errors = validate_results(doc, spec)
    for w in WORKLOADS:
        span_file = doc["workloads"].get(w, {}).get("span_file")
        checked = check_spans(span_file) if span_file else (False, "no span file")
        if not checked[0]:
            errors.append(f"{w}: span export: {checked[1]}")
    for e in errors:
        print(f"smoke: {e}")
    print("smoke: " + ("ok" if rc == 0 and not errors else "FAILED"))
    return 0 if rc == 0 and not errors else 1


def compare_mode(paths, spec):
    a, b = load_json(paths[0]), load_json(paths[1])
    bad = 0
    print(f"{'workload':22s} {'metric':22s} {'A':>14s} {'B':>14s} "
          f"{'change':>9s} {'bound':>7s}  verdict")
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        for m in spec["end_to_end"]:
            base = a["workloads"][w]["end_to_end"][m["name"]]
            cand = b["workloads"][w]["end_to_end"][m["name"]]
            v = verdict(base, cand, m["better"], m["bound"], NOISE_FLOOR.get(m["name"], 0.0))
            change = ((cand["value"] - base["value"]) / abs(base["value"]) * 100
                      if base["value"] else 0.0)
            print(f"{w:22s} {m['name']:22s} {base['value']:>14.6g} {cand['value']:>14.6g} "
                  f"{change:>+8.2f}% {m['bound'] * 100:>6.1f}%  {v}")
            bad += v in ("worse", "unresolved")
    return 1 if bad else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, help="Run wall time to measure per workload: one "
                   f"timed repeat per {REPEAT_SECONDS} s, at least {MIN_REPEATS} "
                   "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="with --workload: print end-to-end (0) or per-layer (1) metrics")
    p.add_argument("--traced", action="store_true", help="also run the traced runs")
    p.add_argument("--check", action="store_true", help="correctness pass only")
    p.add_argument("--smoke", action="store_true", help="tiny scale sanity run")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--binary", help="use this saturn_bench instead of building one")
    p.add_argument("--build-dir", default=str(ROOT / ".bench_build"))
    p.add_argument("--out", help="results JSON path")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare_mode(args.compare, spec)
        build_dir = Path(args.build_dir)
        binary = Path(args.binary) if args.binary else build(build_dir)
        drive = Launcher(binary, args.smoke, build_dir / "spans")
        if args.smoke:
            return smoke_mode(args, spec, drive, build_dir)
        if args.check:
            return check_mode(args, drive)
        if args.workload and args.trace is not None:
            if args.seconds is None:
                args.seconds = spec["run_seconds"]
            return workload_mode(args, spec, drive, build_dir)
        return full_mode(args, spec, drive, build_dir)
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError,
            KeyError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
