// Performance trajectory harness for the discrete-event simulation core.
//
// Unlike the fig*/table* benches (which reproduce the paper's *numbers*),
// perf_sim measures how fast the simulator itself executes: every figure and
// every chaos sweep is bottlenecked by events/second through the core, so
// this harness is the repo's recorded perf trajectory. It runs seven pinned
// workloads and writes BENCH_sim.json:
//
//   fig5_full  — Saturn on the 7-DC EC2 deployment, full replication, the
//                Fig. 5 default dynamic workload (2B values, 9:1 R:W).
//   partial    — Saturn, 7 DCs, genuine partial replication (degree 3,
//                uniform correlation, 5% remote reads → client migrations).
//   chaos      — 3-DC Saturn under a seeded chaos schedule with a backup
//                tree (lossy cuts, crashes, tree kill + auto failover).
//
//   reconfig   — 5-DC Saturn with the dynamic-topology plane live (probe
//                agents, adaptive detector, reconfiguration controller) and a
//                scripted latency drift forcing one live epoch switch inside
//                the measured window.
//
//   cure_cops  — Cure then COPS back-to-back on the 7-DC deployment, full
//                replication: the two baselines whose per-message metadata
//                (dependency vectors / explicit dep lists) dominates the
//                allocation plane. One timed window covers both runs.
//
//   batch      — the fig5_full deployment with metadata-link batching on
//                (1 ms window, delta-encoded label frames, piggybacked acks).
//                Gated against fig5_full: the metadata plane must shed ≥1.3x
//                wire bytes while p99 visibility grows ≤10%.
//
//   mmusers    — the million-user open-loop workload engine: Saturn on the
//                7-DC deployment driven by SessionMux actors (Poisson
//                arrivals, Zipf 0.9 session skew) over a streaming power-law
//                graph and a procedural replica map, so workload-side memory
//                is O(sessions) slab + O(1) graph state. 1M sessions at full
//                scale (400k in smoke). Runs LAST so its peak_rss_kb row is
//                the engine's own high-water mark: the process-wide peak RSS
//                is dominated by this workload, making the bench_diff.py RSS
//                gate a real bounded-memory check at production scale.
//
// Per workload it records wall-clock, executed simulation events, events/sec,
// peak RSS and the protocol-level throughput. The executed-event count is a
// determinism fingerprint: any core change that alters it changed simulation
// *behaviour*, not just speed, and must be treated as a correctness question
// before its perf delta means anything. Compare two runs (or a run against
// the committed baseline) with tools/bench_diff.py.
//
// The binary also replaces global operator new/delete with thin counting
// shims (relaxed atomics over malloc/free), so each workload additionally
// records the heap-allocation count and byte volume inside its timed window,
// plus allocs_per_event — the allocation tax per simulation event. Like the
// fingerprints, allocs_per_event is a gated quantity in bench_diff.py: an
// allocation regression on the message plane fails the perf gate.
//
// Four more sections follow the workloads in the JSON:
//
//   trace_overhead / attribution_overhead — fig5_full run with the trace
//       recorder (resp. the attribution profiler) off and on: fingerprints
//       must match, and the events/sec ratio is the observer's cost.
//   realtime_scaling — a 3-DC Saturn deployment on the wall-clock backend at
//       1, 2 and 4 workers; the 4-worker leg must reach 1.8x the 1-worker
//       ops/sec on hosts with at least 4 hardware threads. Each leg also
//       records where the workers' time went (lane-group batches, events per
//       batch, drift-window stops, lockouts, the busiest group's share). A
//       bare CPU-bound probe run just before the legs records how many of
//       those threads the host actually lent (usable_parallelism).
//   suite_wall_clock — the parallel sweep harness itself: a combined
//       figure+chaos suite of independent runs executes once serially
//       (jobs=1) and once on the worker pool (--jobs / SATURN_JOBS / hardware
//       concurrency), recording both wall-clocks, the speedup, and whether
//       the per-run executed-event fingerprints were identical across the two
//       legs (they must be: the sweep is share-nothing and ordered).
//
// Gates checked here: repeat and observer fingerprint equality, the batch
// workload's wire-byte and visibility ratios, the reconfig and mmusers
// sanity checks, and the realtime speedup. A failed gate does not stop the
// run: every leg runs and the JSON is written first — it carries the
// deterministic counters tools/bench_diff.py gates — and then perf_sim exits
// 1, listing every gate that failed. Any JSON already at --out is deleted
// before the first leg, so a run that dies early leaves none behind.
//
// Usage: perf_sim [--smoke] [--repeat N] [--jobs N] [--out PATH]
//   --smoke   tiny measurement windows; CI sanity check, numbers meaningless
//   --repeat  run each workload N times, keep the fastest (default 1)
//   --jobs    worker count for the suite's parallel leg (default: SATURN_JOBS
//             env or all hardware threads)
//   --out     output JSON path (default BENCH_sim.json in the CWD)
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/chaos.h"
#include "src/runtime/cluster.h"
#include "src/runtime/sweep.h"

// --- Global allocation counters --------------------------------------------
//
// Counting shims over malloc/free. Relaxed atomics: the counters are summed,
// never used for synchronization, and the suite's worker threads only need
// the totals to be exact, not ordered. Every replaceable form is overridden
// so new/delete stay a matched malloc/free pair throughout the binary.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

// GCC pairs delete-expressions with the *default* operator new when checking
// -Wmismatched-new-delete; with the replacement operators above, new/delete
// really are a malloc/free pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace saturn {
namespace {

struct PerfOptions {
  bool smoke = false;
  int repeat = 1;
  int jobs = 0;  // suite parallel leg; 0 = SATURN_JOBS env / hardware
  std::string out = "BENCH_sim.json";
};

struct WorkloadResult {
  std::string name;
  uint64_t executed_events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double throughput_ops = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  double allocs_per_event = 0;
  long peak_rss_kb = 0;
  // Wire-volume and visibility facts for the batching gate. Deterministic for
  // a given build (they follow the fingerprint), so repeats agree.
  uint64_t metadata_wire_bytes = 0;
  uint64_t total_wire_bytes = 0;
  double p99_visibility_ms = 0;
};

// Gate failures seen so far. A failing gate does not stop the run: every leg
// still runs and the JSON is still written (the deterministic fingerprints,
// allocation rates, wire bytes and RSS in it are what bench_diff.py gates),
// and Main exits 1 at the end, naming every gate that failed.
std::vector<std::string> g_gate_failures;

__attribute__((format(printf, 1, 2))) void GateFailed(const char* fmt, ...) {
  char text[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(text, sizeof(text), fmt, args);
  va_end(args);
  std::string message(text);
  while (!message.empty() && message.back() == '\n') {
    message.pop_back();
  }
  std::fprintf(stderr, "FATAL: %s\n", message.c_str());
  g_gate_failures.push_back(std::move(message));
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

struct PreparedRun {
  std::unique_ptr<Cluster> cluster;
  SimTime warmup = 0;
  SimTime measure = 0;
  SimTime drain = 0;
  // Post-run sanity hook (e.g. "the reconfiguration actually happened");
  // failures are fatal — a baseline recorded from a run that silently skipped
  // the interesting path would gate nothing.
  std::function<void(Cluster&)> verify;
};

// One timed workload: `build` constructs one or more clusters and returns
// them ready to Run; construction cost (keyspace generation, tree solving) is
// excluded from the timed window so events/sec reflects the event loop alone.
// Multi-run workloads (cure_cops) execute their runs back-to-back inside the
// same window; events and allocation counters sum across the runs.
//
// The allocation counters are taken from the repeat with the *fewest*
// allocations: the first repeat can pay one-time lazy initialization
// (allocator arenas, stdio) that is not the workload's own tax.
template <typename BuildFn>
WorkloadResult TimeWorkload(const std::string& name, int repeat, BuildFn build) {
  WorkloadResult best;
  best.name = name;
  for (int i = 0; i < repeat; ++i) {
    std::vector<PreparedRun> runs = build();
    uint64_t events = 0;
    double throughput = 0;
    uint64_t metadata_wire = 0;
    uint64_t total_wire = 0;
    double p99_vis = 0;
    uint64_t alloc0 = g_alloc_count.load(std::memory_order_relaxed);
    uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
    auto start = std::chrono::steady_clock::now();
    for (PreparedRun& run : runs) {
      ExperimentResult result = run.cluster->Run(run.warmup, run.measure, run.drain);
      events += run.cluster->sim().executed_events();
      throughput += result.throughput_ops;
      metadata_wire += result.metadata_wire_bytes;
      total_wire += result.net_bytes;
      if (result.p99_visibility_ms > p99_vis) {
        p99_vis = result.p99_visibility_ms;
      }
      if (run.verify) {
        run.verify(*run.cluster);
      }
    }
    auto stop = std::chrono::steady_clock::now();
    uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - alloc0;
    uint64_t bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
    double wall = std::chrono::duration<double>(stop - start).count();
    if (i == 0 || events / wall > best.events_per_sec) {
      best.executed_events = events;
      best.wall_s = wall;
      best.events_per_sec = static_cast<double>(events) / wall;
      best.throughput_ops = throughput;
      best.metadata_wire_bytes = metadata_wire;
      best.total_wire_bytes = total_wire;
      best.p99_visibility_ms = p99_vis;
    }
    if (i == 0 || allocs < best.allocs) {
      best.allocs = allocs;
      best.alloc_bytes = bytes;
    }
    if (best.executed_events != events) {
      GateFailed("%s is nondeterministic across repeats (%llu vs %llu)\n",
                 name.c_str(), static_cast<unsigned long long>(best.executed_events),
                 static_cast<unsigned long long>(events));
    }
  }
  best.allocs_per_event =
      best.executed_events > 0
          ? static_cast<double>(best.allocs) / static_cast<double>(best.executed_events)
          : 0;
  best.peak_rss_kb = PeakRssKb();
  return best;
}

// Workload 1: Saturn, 7 DCs, full replication, Fig. 5 defaults. `traced`
// builds the same cluster with the trace recorder attached (the
// trace_overhead section runs it both ways at identical scale).
// `batch_deadline` > 0 turns on metadata-link batching at that window (the
// `batch` workload is this cluster with a 1 ms window; everything else is
// byte-identical to fig5_full). `attribution` attaches the visibility-
// attribution profiler without the trace ring (the attribution_overhead
// section isolates the profiler's own cost).
PreparedRun BuildFig5Full(const PerfOptions& options, bool traced = false,
                          SimTime batch_deadline = 0, bool attribution = false) {
  PreparedRun run;
  ClusterConfig config;
  config.protocol = Protocol::kSaturn;
  config.dc_sites = Ec2Sites();
  config.latencies = Ec2Latencies();
  config.dc.num_gears = 4;
  config.seed = 42;
  config.trace.enabled = traced;
  config.trace.attribution = attribution;
  config.dc.batch_deadline = batch_deadline;

  KeyspaceConfig keyspace;
  keyspace.num_keys = 10000;
  keyspace.pattern = CorrelationPattern::kFull;
  ReplicaMap replicas = ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies);

  SyntheticOpGenerator::Config workload;
  workload.write_fraction = 0.1;
  workload.value_size = 2;

  uint32_t clients_per_dc = options.smoke ? 8 : 48;
  run.cluster = std::make_unique<Cluster>(std::move(config), std::move(replicas),
                                          UniformClientHomes(kNumEc2Regions, clients_per_dc),
                                          SyntheticGenerators(workload));
  run.warmup = options.smoke ? Millis(200) : Seconds(1);
  run.measure = options.smoke ? Millis(300) : Seconds(2);
  run.drain = options.smoke ? Millis(500) : Millis(1500);
  return run;
}

// Workload 2: Saturn, 7 DCs, partial replication with client migrations.
PreparedRun BuildPartial(const PerfOptions& options) {
  PreparedRun run;
  ClusterConfig config;
  config.protocol = Protocol::kSaturn;
  config.dc_sites = Ec2Sites();
  config.latencies = Ec2Latencies();
  config.dc.num_gears = 4;
  config.seed = 42;

  KeyspaceConfig keyspace;
  keyspace.num_keys = 10000;
  keyspace.pattern = CorrelationPattern::kUniform;
  keyspace.replication_degree = 3;
  ReplicaMap replicas = ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies);

  SyntheticOpGenerator::Config workload;
  workload.write_fraction = 0.1;
  workload.remote_read_fraction = 0.05;
  workload.value_size = 2;

  uint32_t clients_per_dc = options.smoke ? 8 : 48;
  run.cluster = std::make_unique<Cluster>(std::move(config), std::move(replicas),
                                          UniformClientHomes(kNumEc2Regions, clients_per_dc),
                                          SyntheticGenerators(workload));
  run.warmup = options.smoke ? Millis(200) : Seconds(1);
  run.measure = options.smoke ? Millis(300) : Seconds(2);
  run.drain = options.smoke ? Millis(500) : Millis(1500);
  return run;
}

// Workload 3: 3-DC Saturn under a seeded chaos schedule (mirrors the chaos
// property suite's setup: lossy faults allowed, backup tree pre-deployed,
// fast failure detector).
PreparedRun BuildChaos(const PerfOptions& options) {
  PreparedRun run;
  ClusterConfig config;
  config.protocol = Protocol::kSaturn;
  config.dc_sites = {kIreland, kFrankfurt, kTokyo};
  config.latencies = Ec2Latencies();
  config.dc.num_gears = 2;
  config.enable_oracle = true;
  config.seed = 1234;
  std::vector<SiteId> dc_sites = config.dc_sites;

  KeyspaceConfig keyspace;
  keyspace.num_keys = 600;
  keyspace.pattern = CorrelationPattern::kUniform;
  keyspace.replication_degree = 2;
  ReplicaMap replicas = ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies);

  SyntheticOpGenerator::Config workload;
  workload.write_fraction = 0.1;
  workload.value_size = 2;

  uint32_t clients_per_dc = options.smoke ? 2 : 6;
  run.cluster = std::make_unique<Cluster>(std::move(config), std::move(replicas),
                                          UniformClientHomes(3, clients_per_dc),
                                          SyntheticGenerators(workload));

  ChaosOptions chaos;
  chaos.seed = 7;
  chaos.start = Millis(1500);
  chaos.end = Millis(3300);
  chaos.allow_lossy = true;
  chaos.allow_crash = true;
  chaos.tree_kill_percent = 100;  // always exercise auto failover
  chaos.tree_epoch = 0;
  run.cluster->metadata_service()->DeployTree(1, StarTopology(dc_sites, kFrankfurt));
  for (DcId dc = 0; dc < 3; ++dc) {
    run.cluster->saturn_dc(dc)->set_fallback_timeout(Millis(150));
  }
  run.cluster->InstallFaultPlan(GenerateChaosPlan(chaos, dc_sites));
  run.cluster->StopClientsAt(Millis(4000));
  run.warmup = Seconds(1);
  run.measure = Seconds(2);
  run.drain = Seconds(2);
  return run;
}

// Workload 4: the dynamic-topology plane under load — 5-DC Saturn with probe
// agents, the adaptive failure detector and the reconfiguration controller
// running, plus a scripted latency drift that forces one live epoch switch
// inside the measured window. Events/sec here prices the whole control loop
// (probes, EWMA updates, controller evaluations, the solver re-run and the
// drain-and-handoff migration) riding on top of client traffic, and
// allocs_per_event gates the reconfiguration path against allocation creep.
PreparedRun BuildReconfig(const PerfOptions& options) {
  PreparedRun run;
  ClusterConfig config;
  config.protocol = Protocol::kSaturn;
  config.dc_sites = Ec2Sites(5);
  config.latencies = Ec2Latencies();
  config.dc.num_gears = 4;
  config.seed = 42;
  config.dynamic.enabled = true;
  if (options.smoke) {
    // Tight knobs so the trigger → solve → switch cycle fits the tiny window.
    config.dynamic.monitor.probe_interval = Millis(25);
    config.dynamic.controller.eval_interval = Millis(50);
    config.dynamic.controller.hysteresis_evals = 2;
    config.dynamic.controller.cooldown = Millis(300);
  }

  KeyspaceConfig keyspace;
  keyspace.num_keys = 10000;
  keyspace.pattern = CorrelationPattern::kFull;
  ReplicaMap replicas = ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies);

  SyntheticOpGenerator::Config workload;
  workload.write_fraction = 0.1;
  workload.value_size = 2;

  uint32_t clients_per_dc = options.smoke ? 8 : 48;
  run.cluster = std::make_unique<Cluster>(std::move(config), std::move(replicas),
                                          UniformClientHomes(5, clients_per_dc),
                                          SyntheticGenerators(workload));

  // Degrade the deployed tree's links mid-window; the controller re-solves on
  // the measured matrix and performs a live epoch switch under traffic.
  DriftPlan drift;
  std::string error;
  bool ok = options.smoke
                ? ParseDriftPlan("250:step:0-3:200;250:step:1-3:220", &drift, &error)
                : ParseDriftPlan("1500:ramp:0-3:200:500;1500:ramp:1-3:220:500", &drift,
                                 &error);
  if (!ok) {
    std::fprintf(stderr, "FATAL: reconfig drift plan: %s\n", error.c_str());
    std::exit(1);
  }
  run.cluster->InstallDriftPlan(drift);
  run.warmup = options.smoke ? Millis(200) : Seconds(1);
  run.measure = options.smoke ? Millis(500) : Seconds(2);
  run.drain = options.smoke ? Millis(500) : Millis(1500);
  run.verify = [](Cluster& cluster) {
    if (cluster.reconfig_controller()->reconfigs() < 1) {
      GateFailed("reconfig workload finished without a reconfiguration — the "
                 "timed window no longer covers a live epoch switch\n");
    }
  };
  return run;
}

// Workload 5: the metadata-heavy baselines, back-to-back. Cure's per-DC
// dependency vectors and COPS's explicit dependency lists ride on every
// client request, response and remote payload, so this workload is dominated
// by per-message container traffic — exactly where the allocation plane
// lives. Full replication with pruning keeps COPS contexts bounded (the
// paper-scale regime), so the allocation count measures the message plane,
// not unbounded context growth.
std::vector<PreparedRun> BuildCureCops(const PerfOptions& options) {
  std::vector<PreparedRun> runs;
  for (Protocol protocol : {Protocol::kCure, Protocol::kCops}) {
    PreparedRun run;
    ClusterConfig config;
    config.protocol = protocol;
    config.dc_sites = Ec2Sites();
    config.latencies = Ec2Latencies();
    config.dc.num_gears = 4;
    config.cops_prune = true;
    config.seed = 42;

    KeyspaceConfig keyspace;
    keyspace.num_keys = 10000;
    keyspace.pattern = CorrelationPattern::kFull;
    ReplicaMap replicas = ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies);

    SyntheticOpGenerator::Config workload;
    workload.write_fraction = 0.1;
    workload.value_size = 2;

    uint32_t clients_per_dc = options.smoke ? 8 : 48;
    run.cluster = std::make_unique<Cluster>(std::move(config), std::move(replicas),
                                            UniformClientHomes(kNumEc2Regions, clients_per_dc),
                                            SyntheticGenerators(workload));
    run.warmup = options.smoke ? Millis(200) : Seconds(1);
    run.measure = options.smoke ? Millis(300) : Seconds(2);
    run.drain = options.smoke ? Millis(500) : Millis(1500);
    runs.push_back(std::move(run));
  }
  return runs;
}

// Workload 6: the open-loop streaming workload engine at production scale.
// No closed-loop clients at all: the whole load plane is SessionMux actors
// multiplexing sessions as slab slots, the streaming social graph, and the
// procedural replica map. Events/sec prices the open-loop dispatch path;
// allocs_per_event gates it against per-arrival allocation creep; and
// peak_rss_kb — measured here, at the end of the binary's largest live set —
// gates the engine's bounded-memory contract (a change that materializes the
// graph or fattens the session slab shows up as an RSS regression).
PreparedRun BuildMmUsers(const PerfOptions& options) {
  PreparedRun run;
  ClusterConfig config;
  config.protocol = Protocol::kSaturn;
  config.dc_sites = Ec2Sites();
  config.latencies = Ec2Latencies();
  config.dc.num_gears = 4;
  config.seed = 42;
  config.open_loop.sessions = options.smoke ? 400000 : 1000000;
  config.open_loop.arrival_rate = 2000;  // per DC
  config.open_loop.zipf_theta = 0.9;
  config.open_loop.max_queue = 8;
  config.open_loop.mix.value_size = 2;

  KeyspaceConfig keyspace;
  keyspace.num_keys = config.open_loop.sessions;  // session ids double as keys
  keyspace.pattern = CorrelationPattern::kFull;
  ReplicaMap replicas =
      ReplicaMap::Procedural(keyspace, config.dc_sites, config.latencies);

  run.warmup = options.smoke ? Millis(200) : Seconds(1);
  run.measure = options.smoke ? Millis(300) : Seconds(2);
  run.drain = options.smoke ? Millis(500) : Millis(1500);
  run.cluster = std::make_unique<Cluster>(std::move(config), std::move(replicas),
                                          /*client_homes=*/std::vector<DcId>{},
                                          GeneratorFactory{});
  // Stop arrivals at the end of the measured window so the drain phase
  // actually drains: residual backlog after Run means sessions wedged.
  run.cluster->StopClientsAt(run.warmup + run.measure);
  run.verify = [](Cluster& cluster) {
    uint64_t arrivals = 0;
    uint64_t completed = 0;
    uint64_t backlog = 0;
    for (const auto& mux : cluster.session_muxes()) {
      arrivals += mux->arrivals();
      completed += mux->ops_completed();
      backlog += mux->backlog();
    }
    if (arrivals == 0 || completed < arrivals / 2) {
      GateFailed("mmusers open-loop plane delivered no load (%llu arrivals, "
                 "%llu completed) — the timed window no longer measures the engine\n",
                 static_cast<unsigned long long>(arrivals),
                 static_cast<unsigned long long>(completed));
    }
    if (backlog != 0) {
      GateFailed("mmusers finished with %llu queued ops after the drain — "
                 "sessions wedged mid-flight\n",
                 static_cast<unsigned long long>(backlog));
    }
  };
  return run;
}

// --- Parallel-suite measurement --------------------------------------------
//
// A combined figure+chaos suite of small, fully independent runs, executed
// twice through ParallelSweep: once with jobs=1 (serial leg) and once on the
// worker pool. Per-run executed-event fingerprints must match between the
// legs — a mismatch means a run's behaviour depended on its neighbours, which
// breaks the share-nothing contract, so it is fatal.

struct SuiteSpec {
  enum Kind { kFig, kChaos } kind = kFig;
  uint64_t seed = 42;
  uint32_t value_size = 2;
};

std::vector<SuiteSpec> BuildSuiteSpecs(const PerfOptions& options) {
  std::vector<SuiteSpec> specs;
  const uint64_t fig_seeds = options.smoke ? 2 : 6;
  for (uint64_t s = 0; s < fig_seeds; ++s) {
    specs.push_back({SuiteSpec::kFig, 42 + s, s % 2 == 0 ? 2u : 128u});
  }
  const uint64_t chaos_seeds = options.smoke ? 2 : 6;
  for (uint64_t s = 1; s <= chaos_seeds; ++s) {
    specs.push_back({SuiteSpec::kChaos, s, 2});
  }
  return specs;
}

// One suite run; returns the executed-event fingerprint.
uint64_t RunSuiteCase(const PerfOptions& options, const SuiteSpec& spec) {
  if (spec.kind == SuiteSpec::kFig) {
    ClusterConfig config;
    config.protocol = Protocol::kSaturn;
    config.dc_sites = Ec2Sites();
    config.latencies = Ec2Latencies();
    config.dc.num_gears = 4;
    config.seed = spec.seed;

    KeyspaceConfig keyspace;
    keyspace.num_keys = 10000;
    keyspace.pattern = CorrelationPattern::kFull;
    ReplicaMap replicas =
        ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies);

    SyntheticOpGenerator::Config workload;
    workload.write_fraction = 0.1;
    workload.value_size = spec.value_size;

    uint32_t clients_per_dc = options.smoke ? 4 : 16;
    Cluster cluster(std::move(config), std::move(replicas),
                    UniformClientHomes(kNumEc2Regions, clients_per_dc),
                    SyntheticGenerators(workload));
    cluster.Run(options.smoke ? Millis(200) : Millis(500),
                options.smoke ? Millis(300) : Seconds(1),
                options.smoke ? Millis(500) : Millis(1500));
    return cluster.sim().executed_events();
  }

  // Chaos case: the chaos property suite's small-cluster setup, one seed.
  ClusterConfig config;
  config.protocol = Protocol::kSaturn;
  config.dc_sites = {kIreland, kFrankfurt, kTokyo};
  config.latencies = Ec2Latencies();
  config.dc.num_gears = 2;
  config.enable_oracle = true;
  config.seed = 1234;
  std::vector<SiteId> dc_sites = config.dc_sites;

  KeyspaceConfig keyspace;
  keyspace.num_keys = 600;
  keyspace.pattern = CorrelationPattern::kUniform;
  keyspace.replication_degree = 2;
  ReplicaMap replicas =
      ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies);

  SyntheticOpGenerator::Config workload;
  workload.write_fraction = 0.1;
  workload.value_size = 2;

  Cluster cluster(std::move(config), std::move(replicas),
                  UniformClientHomes(3, options.smoke ? 2u : 6u),
                  SyntheticGenerators(workload));
  ChaosOptions chaos;
  chaos.seed = spec.seed;
  chaos.start = Millis(1500);
  chaos.end = Millis(3300);
  chaos.allow_lossy = true;
  chaos.allow_crash = true;
  chaos.tree_kill_percent = 100;
  chaos.tree_epoch = 0;
  cluster.metadata_service()->DeployTree(1, StarTopology(dc_sites, kFrankfurt));
  for (DcId dc = 0; dc < 3; ++dc) {
    cluster.saturn_dc(dc)->set_fallback_timeout(Millis(150));
  }
  cluster.InstallFaultPlan(GenerateChaosPlan(chaos, dc_sites));
  cluster.StopClientsAt(Millis(4000));
  cluster.Run(Seconds(1), options.smoke ? Millis(500) : Seconds(2), Seconds(2));
  return cluster.sim().executed_events();
}

struct SuiteResult {
  int runs = 0;
  int jobs = 1;
  unsigned hardware_concurrency = 0;
  double serial_wall_s = 0;
  double parallel_wall_s = 0;
  double speedup = 0;
  uint64_t total_events = 0;
  long peak_rss_kb = 0;
  bool fingerprints_identical = false;
};

SuiteResult RunSuite(const PerfOptions& options) {
  std::vector<SuiteSpec> specs = BuildSuiteSpecs(options);
  auto run_leg = [&](int jobs, double* wall_s) {
    auto start = std::chrono::steady_clock::now();
    std::vector<uint64_t> fp = ParallelSweep(
        specs, jobs, [&](const SuiteSpec& s) { return RunSuiteCase(options, s); });
    auto stop = std::chrono::steady_clock::now();
    *wall_s = std::chrono::duration<double>(stop - start).count();
    return fp;
  };

  SuiteResult suite;
  suite.runs = static_cast<int>(specs.size());
  suite.jobs = ResolveJobs(options.jobs);
  suite.hardware_concurrency = std::thread::hardware_concurrency();

  std::vector<uint64_t> serial_fp = run_leg(1, &suite.serial_wall_s);
  std::vector<uint64_t> parallel_fp = run_leg(suite.jobs, &suite.parallel_wall_s);

  suite.fingerprints_identical = serial_fp == parallel_fp;
  if (!suite.fingerprints_identical) {
    GateFailed("suite fingerprints differ between jobs=1 and jobs=%d —\n"
               "a run's behaviour depended on its neighbours (shared state?)\n",
               suite.jobs);
  }
  for (uint64_t events : serial_fp) {
    suite.total_events += events;
  }
  suite.speedup = suite.parallel_wall_s > 0
                      ? suite.serial_wall_s / suite.parallel_wall_s
                      : 0;
  suite.peak_rss_kb = PeakRssKb();
  return suite;
}

// --- Tracing-overhead measurement ------------------------------------------
//
// The fig5_full workload executed twice at identical scale: once untraced,
// once with the trace recorder attached (ring events + sampled label
// journeys). The executed-event fingerprints must match — the recorder only
// observes, so tracing must not change simulation behaviour — and the
// events/sec ratio is the recorder's whole-run cost, gated by bench_diff.py
// alongside the allocation budget.

struct TraceOverheadResult {
  uint64_t executed_events = 0;
  double off_wall_s = 0;
  double on_wall_s = 0;
  double events_off_per_sec = 0;
  double events_on_per_sec = 0;
  double overhead_pct = 0;
  uint64_t trace_events_recorded = 0;
  bool fingerprints_identical = false;
};

TraceOverheadResult RunTraceOverhead(const PerfOptions& options) {
  TraceOverheadResult result;
  auto leg = [&options](bool traced, double* best_wall, uint64_t* trace_events) {
    uint64_t events = 0;
    for (int i = 0; i < options.repeat; ++i) {
      PreparedRun run = BuildFig5Full(options, traced);
      auto start = std::chrono::steady_clock::now();
      run.cluster->Run(run.warmup, run.measure, run.drain);
      auto stop = std::chrono::steady_clock::now();
      double wall = std::chrono::duration<double>(stop - start).count();
      if (i == 0 || wall < *best_wall) {
        *best_wall = wall;
      }
      uint64_t fp = run.cluster->sim().executed_events();
      if (i == 0) {
        events = fp;
      } else if (events != fp) {
        GateFailed("trace_overhead leg nondeterministic across repeats\n");
      }
      if (traced && trace_events != nullptr) {
        *trace_events = run.cluster->trace()->events_recorded();
      }
    }
    return events;
  };

  uint64_t off_events = leg(false, &result.off_wall_s, nullptr);
  uint64_t on_events = leg(true, &result.on_wall_s, &result.trace_events_recorded);
  result.executed_events = off_events;
  result.fingerprints_identical = off_events == on_events;
  if (!result.fingerprints_identical) {
    GateFailed("tracing changed the executed-event fingerprint "
               "(%llu untraced vs %llu traced) — the recorder must only observe\n",
               static_cast<unsigned long long>(off_events),
               static_cast<unsigned long long>(on_events));
  }
  result.events_off_per_sec = static_cast<double>(off_events) / result.off_wall_s;
  result.events_on_per_sec = static_cast<double>(on_events) / result.on_wall_s;
  result.overhead_pct =
      (result.events_off_per_sec / result.events_on_per_sec - 1.0) * 100.0;
  return result;
}

// --- Attribution-overhead measurement ----------------------------------------
//
// The fig5_full workload executed twice at identical scale: once bare, once
// with the visibility-attribution profiler attached (journey hop records plus
// per-(src,dst) phase histograms) but no trace ring. Same contract as the
// trace recorder: the profiler only observes, so the executed-event
// fingerprints must match, and the events/sec ratio is its whole-run cost —
// gated in bench_diff.py against growing more than a fixed number of
// percentage points over the committed baseline.

struct AttributionOverheadResult {
  uint64_t executed_events = 0;
  double off_wall_s = 0;
  double on_wall_s = 0;
  double events_off_per_sec = 0;
  double events_on_per_sec = 0;
  double overhead_pct = 0;
  uint64_t attribution_samples = 0;
  bool fingerprints_identical = false;
};

AttributionOverheadResult RunAttributionOverhead(const PerfOptions& options) {
  AttributionOverheadResult result;
  auto leg = [&options](bool attribution, double* best_wall, uint64_t* samples) {
    uint64_t events = 0;
    for (int i = 0; i < options.repeat; ++i) {
      PreparedRun run = BuildFig5Full(options, /*traced=*/false,
                                      /*batch_deadline=*/0, attribution);
      auto start = std::chrono::steady_clock::now();
      run.cluster->Run(run.warmup, run.measure, run.drain);
      auto stop = std::chrono::steady_clock::now();
      double wall = std::chrono::duration<double>(stop - start).count();
      if (i == 0 || wall < *best_wall) {
        *best_wall = wall;
      }
      uint64_t fp = run.cluster->sim().executed_events();
      if (i == 0) {
        events = fp;
      } else if (events != fp) {
        GateFailed("attribution_overhead leg nondeterministic across repeats\n");
      }
      if (attribution && samples != nullptr) {
        *samples = run.cluster->attribution()->samples();
      }
    }
    return events;
  };

  uint64_t off_events = leg(false, &result.off_wall_s, nullptr);
  uint64_t on_events = leg(true, &result.on_wall_s, &result.attribution_samples);
  result.executed_events = off_events;
  result.fingerprints_identical = off_events == on_events;
  if (!result.fingerprints_identical) {
    GateFailed("attribution changed the executed-event fingerprint "
               "(%llu off vs %llu on) — the profiler must only observe\n",
               static_cast<unsigned long long>(off_events),
               static_cast<unsigned long long>(on_events));
  }
  if (result.attribution_samples == 0) {
    GateFailed("attribution_overhead measured zero decomposed journeys — "
               "the on leg no longer exercises the profiler\n");
  }
  result.events_off_per_sec = static_cast<double>(off_events) / result.off_wall_s;
  result.events_on_per_sec = static_cast<double>(on_events) / result.on_wall_s;
  result.overhead_pct =
      (result.events_off_per_sec / result.events_on_per_sec - 1.0) * 100.0;
  return result;
}

// --- Realtime-backend scaling measurement ------------------------------------
//
// The same Saturn deployment executed on the wall-clock backend at 1, 2 and 4
// workers. The virtual window is fixed, so the completed-op count is
// workload-determined and wall-clock ops/sec measures backend scaling
// directly. Realtime runs are not reproducible, so nothing here feeds the
// fingerprint gates; the numbers are timing quantities (bench_diff.py treats
// them like the suite wall-clock). The 4-worker leg must reach >= 1.8x the
// 1-worker leg's ops/sec — enforced only on machines with >= 4 hardware
// threads; on smaller machines the gate is skipped with a logged reason (the
// legs still run, oversubscribed, for the record).
//
// hardware_concurrency() counts the threads that exist, not the cores the
// host is lending right now, so a parallelism probe runs just before the
// legs: the same spin loop on 1 thread, then on 4, and the ratio of their
// aggregate rates. It is reported next to the speedup and named in a failed
// gate's message; it decides nothing.

struct RealtimeLeg {
  unsigned workers = 0;
  double wall_s = 0;
  uint64_t ops = 0;
  double ops_per_sec = 0;
  uint64_t executed_events = 0;
  std::vector<double> utilization;
  // Where the workers' time went: lane-group batches summed over groups,
  // lockouts, and the busiest group's share of all busy time (an Amdahl
  // bound shows up as a share near 1/speedup).
  size_t groups = 0;
  RealtimeScheduler::GroupStats batches;
  uint64_t lockouts = 0;
  double busiest_group_share = 0;
};

struct RealtimeScalingResult {
  unsigned hardware_concurrency = 0;
  double usable_parallelism = 0;  // ProbeUsableParallelism(kProbeThreads)
  double speedup_4x = 0;
  bool gate_enforced = false;
  std::string gate_reason;
  std::vector<RealtimeLeg> legs;
};

RealtimeLeg RunRealtimeLeg(const PerfOptions& options, unsigned workers) {
  RealtimeLeg best;
  best.workers = workers;
  for (int i = 0; i < options.repeat; ++i) {
    ClusterConfig config;
    config.protocol = Protocol::kSaturn;
    config.backend = ExecBackend::kRealtime;
    config.realtime.workers = workers;
    config.dc_sites = {kIreland, kFrankfurt, kTokyo};
    config.latencies = Ec2Latencies();
    config.dc.num_gears = 4;
    config.seed = 42;

    KeyspaceConfig keyspace;
    keyspace.num_keys = 2000;
    keyspace.pattern = CorrelationPattern::kFull;
    ReplicaMap replicas =
        ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies);

    SyntheticOpGenerator::Config workload;
    workload.write_fraction = 0.1;
    workload.value_size = 2;

    uint32_t clients_per_dc = options.smoke ? 4 : 16;
    Cluster cluster(std::move(config), std::move(replicas),
                    UniformClientHomes(3, clients_per_dc),
                    SyntheticGenerators(workload));
    auto start = std::chrono::steady_clock::now();
    cluster.Run(options.smoke ? Millis(200) : Seconds(1),
                options.smoke ? Millis(300) : Seconds(2),
                options.smoke ? Millis(300) : Seconds(1));
    auto stop = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(stop - start).count();
    uint64_t ops = 0;
    for (const auto& client : cluster.clients()) {
      ops += client->ops_completed();
    }
    double ops_per_sec = static_cast<double>(ops) / wall;
    if (i == 0 || ops_per_sec > best.ops_per_sec) {
      best.wall_s = wall;
      best.ops = ops;
      best.ops_per_sec = ops_per_sec;
      best.executed_events = cluster.executed_events();
      best.utilization = cluster.scheduler()->worker_utilization();
      const RealtimeScheduler& scheduler = *cluster.scheduler();
      best.groups = scheduler.num_groups();
      best.batches = scheduler.total_group_stats();
      best.lockouts = scheduler.lockouts();
      uint64_t busiest = 0;
      for (const auto& group : scheduler.group_stats()) {
        busiest = std::max(busiest, group.busy_ns);
      }
      best.busiest_group_share =
          best.batches.busy_ns > 0
              ? static_cast<double>(busiest) / static_cast<double>(best.batches.busy_ns)
              : 0;
    }
  }
  return best;
}

constexpr unsigned kProbeThreads = 4;
std::atomic<uint64_t> g_probe_sink{0};

// Aggregate spin rate of `threads` threads over the 1-thread rate: about
// `threads` when the host gives that many cores, about 1 when it gives one.
// Thread start-up counts against the many-thread leg, as it does in a
// realtime leg.
double ProbeUsableParallelism(unsigned threads) {
  auto spin = [] {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint64_t i = 0; i < 20'000'000; ++i) {  // ~20 ms on one core
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_probe_sink.fetch_add(x, std::memory_order_relaxed);  // keeps the loop
  };
  auto timed = [&](unsigned n) {
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> spinners;
    for (unsigned t = 0; t < n; ++t) {
      spinners.emplace_back(spin);
    }
    for (auto& spinner : spinners) {
      spinner.join();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  double one = timed(1);
  double many = timed(threads);
  return many > 0 ? threads * one / many : 0;
}

RealtimeScalingResult RunRealtimeScaling(const PerfOptions& options) {
  RealtimeScalingResult result;
  result.hardware_concurrency = std::thread::hardware_concurrency();
  result.usable_parallelism = ProbeUsableParallelism(kProbeThreads);
  std::printf("realtime: usable parallelism %.2f of %u (spin probe)\n",
              result.usable_parallelism, kProbeThreads);
  for (unsigned workers : {1u, 2u, 4u}) {
    result.legs.push_back(RunRealtimeLeg(options, workers));
    const RealtimeLeg& leg = result.legs.back();
    std::printf("realtime: workers=%u  wall %.3fs  %llu ops  %.0f ops/s  "
                "%llu events  util",
                leg.workers, leg.wall_s, static_cast<unsigned long long>(leg.ops),
                leg.ops_per_sec, static_cast<unsigned long long>(leg.executed_events));
    for (double u : leg.utilization) {
      std::printf(" %.2f", u);
    }
    std::printf("\n");
    std::printf("realtime:   %zu lane groups: %llu batches, %llu productive (%.1f events "
                "each), %llu horizon stops, %llu lockouts, busiest group %.0f%% of busy "
                "time\n",
                leg.groups, static_cast<unsigned long long>(leg.batches.batches),
                static_cast<unsigned long long>(leg.batches.productive),
                leg.batches.events_per_productive(),
                static_cast<unsigned long long>(leg.batches.horizon_stops),
                static_cast<unsigned long long>(leg.lockouts),
                leg.busiest_group_share * 100.0);
  }
  result.speedup_4x =
      result.legs.front().ops_per_sec > 0
          ? result.legs.back().ops_per_sec / result.legs.front().ops_per_sec
          : 0;
  result.gate_enforced = result.hardware_concurrency >= 4;
  if (!result.gate_enforced) {
    result.gate_reason = "skipped: need >= 4 hardware threads, have " +
                         std::to_string(result.hardware_concurrency);
    std::printf("realtime: speedup(4 workers) %.2fx — gate %s\n", result.speedup_4x,
                result.gate_reason.c_str());
    return result;
  }
  result.gate_reason = "enforced";
  std::printf("realtime: speedup(4 workers) %.2fx (gate: >= 1.8x on %u threads)\n",
              result.speedup_4x, result.hardware_concurrency);
  if (result.speedup_4x < 1.8) {
    GateFailed("realtime backend speedup %.2fx < 1.8x at 4 workers on %u hardware "
               "threads (usable parallelism %.2f of %u)\n",
               result.speedup_4x, result.hardware_concurrency, result.usable_parallelism,
               kProbeThreads);
  }
  return result;
}

void WriteJson(const PerfOptions& options, const std::vector<WorkloadResult>& results,
               const SuiteResult& suite, const TraceOverheadResult& trace,
               const AttributionOverheadResult& attribution,
               const RealtimeScalingResult& realtime) {
  std::FILE* f = std::fopen(options.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", options.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"harness\": \"perf_sim\",\n");
  std::fprintf(f, "  \"version\": 4,\n");
  std::fprintf(f, "  \"smoke\": %s,\n", options.smoke ? "true" : "false");
  std::fprintf(f, "  \"repeat\": %d,\n", options.repeat);
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"executed_events\": %llu,\n",
                 static_cast<unsigned long long>(r.executed_events));
    std::fprintf(f, "      \"wall_s\": %.4f,\n", r.wall_s);
    std::fprintf(f, "      \"events_per_sec\": %.0f,\n", r.events_per_sec);
    std::fprintf(f, "      \"throughput_ops\": %.0f,\n", r.throughput_ops);
    std::fprintf(f, "      \"allocs\": %llu,\n", static_cast<unsigned long long>(r.allocs));
    std::fprintf(f, "      \"alloc_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.alloc_bytes));
    std::fprintf(f, "      \"allocs_per_event\": %.4f,\n", r.allocs_per_event);
    std::fprintf(f, "      \"metadata_wire_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.metadata_wire_bytes));
    std::fprintf(f, "      \"total_wire_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.total_wire_bytes));
    std::fprintf(f, "      \"p99_visibility_ms\": %.3f,\n", r.p99_visibility_ms);
    std::fprintf(f, "      \"peak_rss_kb\": %ld\n", r.peak_rss_kb);
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"trace_overhead\": {\n");
  std::fprintf(f, "    \"workload\": \"fig5_full\",\n");
  std::fprintf(f, "    \"executed_events\": %llu,\n",
               static_cast<unsigned long long>(trace.executed_events));
  std::fprintf(f, "    \"events_off_per_sec\": %.0f,\n", trace.events_off_per_sec);
  std::fprintf(f, "    \"events_on_per_sec\": %.0f,\n", trace.events_on_per_sec);
  std::fprintf(f, "    \"overhead_pct\": %.2f,\n", trace.overhead_pct);
  std::fprintf(f, "    \"trace_events_recorded\": %llu,\n",
               static_cast<unsigned long long>(trace.trace_events_recorded));
  std::fprintf(f, "    \"fingerprints_identical\": %s\n",
               trace.fingerprints_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"attribution_overhead\": {\n");
  std::fprintf(f, "    \"workload\": \"fig5_full\",\n");
  std::fprintf(f, "    \"executed_events\": %llu,\n",
               static_cast<unsigned long long>(attribution.executed_events));
  std::fprintf(f, "    \"events_off_per_sec\": %.0f,\n", attribution.events_off_per_sec);
  std::fprintf(f, "    \"events_on_per_sec\": %.0f,\n", attribution.events_on_per_sec);
  std::fprintf(f, "    \"overhead_pct\": %.2f,\n", attribution.overhead_pct);
  std::fprintf(f, "    \"attribution_samples\": %llu,\n",
               static_cast<unsigned long long>(attribution.attribution_samples));
  std::fprintf(f, "    \"fingerprints_identical\": %s\n",
               attribution.fingerprints_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"realtime_scaling\": {\n");
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n", realtime.hardware_concurrency);
  std::fprintf(f, "    \"usable_parallelism\": %.2f,\n", realtime.usable_parallelism);
  std::fprintf(f, "    \"speedup_4x\": %.2f,\n", realtime.speedup_4x);
  std::fprintf(f, "    \"gate_enforced\": %s,\n", realtime.gate_enforced ? "true" : "false");
  std::fprintf(f, "    \"gate_reason\": \"%s\",\n", realtime.gate_reason.c_str());
  std::fprintf(f, "    \"legs\": [\n");
  for (size_t i = 0; i < realtime.legs.size(); ++i) {
    const RealtimeLeg& leg = realtime.legs[i];
    std::fprintf(f, "      {\n");
    std::fprintf(f, "        \"workers\": %u,\n", leg.workers);
    std::fprintf(f, "        \"wall_s\": %.4f,\n", leg.wall_s);
    std::fprintf(f, "        \"ops\": %llu,\n", static_cast<unsigned long long>(leg.ops));
    std::fprintf(f, "        \"ops_per_sec\": %.0f,\n", leg.ops_per_sec);
    std::fprintf(f, "        \"executed_events\": %llu,\n",
                 static_cast<unsigned long long>(leg.executed_events));
    std::fprintf(f, "        \"worker_utilization\": [");
    for (size_t u = 0; u < leg.utilization.size(); ++u) {
      std::fprintf(f, "%s%.3f", u > 0 ? ", " : "", leg.utilization[u]);
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "        \"lane_groups\": %zu,\n", leg.groups);
    std::fprintf(f, "        \"batches\": %llu,\n",
                 static_cast<unsigned long long>(leg.batches.batches));
    std::fprintf(f, "        \"productive_batches\": %llu,\n",
                 static_cast<unsigned long long>(leg.batches.productive));
    std::fprintf(f, "        \"events_per_productive_batch\": %.2f,\n",
                 leg.batches.events_per_productive());
    std::fprintf(f, "        \"horizon_stops\": %llu,\n",
                 static_cast<unsigned long long>(leg.batches.horizon_stops));
    std::fprintf(f, "        \"lockouts\": %llu,\n",
                 static_cast<unsigned long long>(leg.lockouts));
    std::fprintf(f, "        \"busiest_group_share\": %.3f\n", leg.busiest_group_share);
    std::fprintf(f, "      }%s\n", i + 1 < realtime.legs.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"suite_wall_clock\": {\n");
  std::fprintf(f, "    \"runs\": %d,\n", suite.runs);
  std::fprintf(f, "    \"jobs\": %d,\n", suite.jobs);
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n", suite.hardware_concurrency);
  std::fprintf(f, "    \"serial_wall_s\": %.4f,\n", suite.serial_wall_s);
  std::fprintf(f, "    \"parallel_wall_s\": %.4f,\n", suite.parallel_wall_s);
  std::fprintf(f, "    \"speedup\": %.2f,\n", suite.speedup);
  std::fprintf(f, "    \"total_events\": %llu,\n",
               static_cast<unsigned long long>(suite.total_events));
  std::fprintf(f, "    \"fingerprints_identical\": %s,\n",
               suite.fingerprints_identical ? "true" : "false");
  std::fprintf(f, "    \"peak_rss_kb\": %ld\n", suite.peak_rss_kb);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  PerfOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      options.repeat = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      options.jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      options.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_sim [--smoke] [--repeat N] [--jobs N] [--out PATH]\n");
      return 2;
    }
  }
  if (options.repeat < 1) {
    options.repeat = 1;
  }
  // A JSON left by an earlier run must not stand in for this one if this run
  // dies before writing its own.
  std::remove(options.out.c_str());

  auto single = [](PreparedRun run) {
    std::vector<PreparedRun> runs;
    runs.push_back(std::move(run));
    return runs;
  };
  std::vector<WorkloadResult> results;
  results.push_back(TimeWorkload("fig5_full", options.repeat,
                                 [&]() { return single(BuildFig5Full(options)); }));
  results.push_back(TimeWorkload("partial", options.repeat,
                                 [&]() { return single(BuildPartial(options)); }));
  results.push_back(TimeWorkload("chaos", options.repeat,
                                 [&]() { return single(BuildChaos(options)); }));
  results.push_back(TimeWorkload("reconfig", options.repeat,
                                 [&]() { return single(BuildReconfig(options)); }));
  results.push_back(TimeWorkload("cure_cops", options.repeat,
                                 [&]() { return BuildCureCops(options); }));
  results.push_back(TimeWorkload("batch", options.repeat, [&]() {
    return single(BuildFig5Full(options, /*traced=*/false, /*batch_deadline=*/Millis(1)));
  }));
  // mmusers stays last: its session slab is the binary's largest live set, so
  // running it at the end makes its peak_rss_kb row the process high-water
  // mark it is gated on (earlier, smaller workloads would otherwise hide an
  // engine RSS regression below their own peaks).
  results.push_back(TimeWorkload("mmusers", options.repeat,
                                 [&]() { return single(BuildMmUsers(options)); }));

  std::printf("%-10s  %14s  %8s  %14s  %12s  %12s  %10s  %10s\n", "workload", "events",
              "wall_s", "events/sec", "ops/sec", "allocs", "allocs/ev", "rss_mb");
  for (const WorkloadResult& r : results) {
    std::printf("%-10s  %14llu  %8.3f  %14.0f  %12.0f  %12llu  %10.4f  %10.1f\n",
                r.name.c_str(), static_cast<unsigned long long>(r.executed_events), r.wall_s,
                r.events_per_sec, r.throughput_ops,
                static_cast<unsigned long long>(r.allocs), r.allocs_per_event,
                static_cast<double>(r.peak_rss_kb) / 1024.0);
  }

  // Batching gate: the batch workload is fig5_full plus a 1 ms metadata
  // window, so the two are directly comparable. The ratios are deterministic
  // (wire bytes and visibility follow the fingerprint), so gating them here is
  // as stable as gating the fingerprint itself.
  {
    const WorkloadResult* fig5 = nullptr;
    const WorkloadResult* batch = nullptr;
    for (const WorkloadResult& r : results) {
      if (r.name == "fig5_full") fig5 = &r;
      if (r.name == "batch") batch = &r;
    }
    double wire_ratio = batch->metadata_wire_bytes > 0
                            ? static_cast<double>(fig5->metadata_wire_bytes) /
                                  static_cast<double>(batch->metadata_wire_bytes)
                            : 0;
    double p99_ratio = fig5->p99_visibility_ms > 0
                           ? batch->p99_visibility_ms / fig5->p99_visibility_ms
                           : 0;
    std::printf("batch: metadata wire bytes %llu -> %llu (%.2fx), p99 visibility "
                "%.2f ms -> %.2f ms (%.2fx), events/sec %.2fx\n",
                static_cast<unsigned long long>(fig5->metadata_wire_bytes),
                static_cast<unsigned long long>(batch->metadata_wire_bytes), wire_ratio,
                fig5->p99_visibility_ms, batch->p99_visibility_ms, p99_ratio,
                batch->events_per_sec / fig5->events_per_sec);
    if (wire_ratio < 1.3) {
      GateFailed("batching shed only %.2fx metadata wire bytes (need >= 1.3x) — "
                 "the batch plane stopped coalescing or the codec stopped compressing\n",
                 wire_ratio);
    }
    if (p99_ratio > 1.1) {
      GateFailed("batching grew p99 visibility %.2fx (budget 1.1x) — the flush "
                 "policy is holding labels too long\n",
                 p99_ratio);
    }
  }

  TraceOverheadResult trace = RunTraceOverhead(options);
  std::printf("trace: off %.0f ev/s, on %.0f ev/s, overhead %.2f%%, "
              "%llu trace events, fingerprints %s\n",
              trace.events_off_per_sec, trace.events_on_per_sec, trace.overhead_pct,
              static_cast<unsigned long long>(trace.trace_events_recorded),
              trace.fingerprints_identical ? "identical" : "DIFFER");

  AttributionOverheadResult attribution = RunAttributionOverhead(options);
  std::printf("attribution: off %.0f ev/s, on %.0f ev/s, overhead %.2f%%, "
              "%llu samples, fingerprints %s\n",
              attribution.events_off_per_sec, attribution.events_on_per_sec,
              attribution.overhead_pct,
              static_cast<unsigned long long>(attribution.attribution_samples),
              attribution.fingerprints_identical ? "identical" : "DIFFER");

  SuiteResult suite = RunSuite(options);
  std::printf("suite: %d runs, serial %.3fs, parallel %.3fs (jobs=%d, hw=%u), "
              "speedup %.2fx, fingerprints %s\n",
              suite.runs, suite.serial_wall_s, suite.parallel_wall_s, suite.jobs,
              suite.hardware_concurrency, suite.speedup,
              suite.fingerprints_identical ? "identical" : "DIFFER");

  RealtimeScalingResult realtime = RunRealtimeScaling(options);

  WriteJson(options, results, suite, trace, attribution, realtime);
  std::printf("wrote %s\n", options.out.c_str());
  if (!g_gate_failures.empty()) {
    std::fprintf(stderr, "perf_sim: %zu gate(s) failed:\n", g_gate_failures.size());
    for (const std::string& failure : g_gate_failures) {
      std::fprintf(stderr, "  - %s\n", failure.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace saturn

int main(int argc, char** argv) { return saturn::Main(argc, argv); }
