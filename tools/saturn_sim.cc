// saturn_sim — command-line experiment driver.
//
// Runs one deployment of any supported protocol on the simulated EC2 network
// and prints throughput, visibility statistics and (optionally) per-pair CDFs
// as CSV for plotting. Everything the figure benches do, parameterized.
//
// Examples:
//   saturn_sim --protocol=saturn --dcs=7 --seconds=3
//   saturn_sim --protocol=gentlerain --pattern=full --writes=0.25
//   saturn_sim --protocol=saturn --tree=star --hub=3 --csv=/tmp/vis.csv
//   saturn_sim --protocol=cops --prune=0 --degree=2 --oracle
//   saturn_sim --protocol=saturn --backup --oracle --fault-plan="1500:cut:3-5:drop;2100:heal:3-5"
//   saturn_sim --protocol=saturn --seeds=10 --jobs=4 --csv=/tmp/vis.csv
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/runtime/sweep.h"

namespace saturn {
namespace {

// Upper bound on --workers: the realtime backend starts one thread per worker.
constexpr long kMaxWorkers = 256;

// Strict numeric parsing: the whole string must be one number, so a typo
// such as `--dcs=abc` or `--seconds=3s` is an error rather than a silent 0.
bool ParseLong(const std::string& text, long* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

// Every flag Usage() documents. Anything else is rejected, so a mistyped
// flag cannot silently run with defaults.
const std::set<std::string> kKnownFlags = {
    "arrival-plan", "arrival-rate", "attribution", "backend", "backup",
    "batch-deadline", "batch-max-bytes", "batch-max-labels", "chain", "clients",
    "csv", "dcs", "degree", "drift-plan", "dynamic", "edges", "expected-keys",
    "fault-plan", "gears", "help", "hub", "jobs", "join", "keys", "leave",
    "leave-drain", "max-queue", "metrics-out", "open-loop", "oracle", "pattern",
    "probe-interval", "protocol", "prune", "reconfig-cooldown", "reconfig-degrade",
    "reconfig-eval", "reconfig-hysteresis", "remote-reads", "rtt-multiplier",
    "seconds", "seed", "seeds", "static-detector", "stop-clients",
    "timeseries-out", "timeseries-window", "trace-label", "trace-out", "trace-ring",
    "tree", "value", "warmup", "workers", "writes", "zipf", "zipf-sessions",
};

struct Flags {
  std::map<std::string, std::string> values;

  bool Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg);
        return false;
      }
      const char* eq = std::strchr(arg, '=');
      std::string name = eq == nullptr ? std::string(arg + 2) : std::string(arg + 2, eq - arg - 2);
      if (kKnownFlags.count(name) == 0) {
        std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
        return false;
      }
      values[name] = eq == nullptr ? "1" : eq + 1;  // bare flag = boolean "1"
    }
    return true;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  // Numeric getters exit 2 on a value strtod/strtol does not fully consume.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values.find(key);
    double value = fallback;
    if (it != values.end() && !ParseDouble(it->second, &value)) {
      BadNumber(key, it->second);
    }
    return value;
  }
  long GetInt(const std::string& key, long fallback) const {
    auto it = values.find(key);
    long value = fallback;
    if (it != values.end() && !ParseLong(it->second, &value)) {
      BadNumber(key, it->second);
    }
    return value;
  }
  bool Has(const std::string& key) const { return values.count(key) != 0; }

 private:
  [[noreturn]] static void BadNumber(const std::string& key, const std::string& value) {
    std::fprintf(stderr, "bad numeric value for --%s: '%s'\n", key.c_str(), value.c_str());
    std::exit(2);
  }
};

void Usage() {
  std::printf(
      "saturn_sim — run one simulated geo-replicated deployment\n\n"
      "  --protocol=eventual|saturn|saturn-p2p|gentlerain|cure|cops  (saturn)\n"
      "  --dcs=N             datacenters, 2..7 Table-1 regions          (7)\n"
      "  --pattern=exponential|proportional|uniform|full               (exponential)\n"
      "  --degree=N          replicas per key                           (3)\n"
      "  --keys=N            keyspace size                              (10000)\n"
      "  --writes=F          write fraction                             (0.1)\n"
      "  --remote-reads=F    remote-read fraction of reads              (0)\n"
      "  --zipf=F            key popularity skew theta                  (0)\n"
      "  --value=N           value size in bytes                        (2)\n"
      "  --clients=N         clients per datacenter (0 with --open-loop) (32)\n"
      "  --open-loop=N       open-loop engine: N logical sessions multiplexed\n"
      "                      onto one mux per DC over a streaming power-law\n"
      "                      social graph; session ids double as key ids, and\n"
      "                      with --clients=0 the keyspace is procedural (no\n"
      "                      per-key tables), so N can be millions         (off)\n"
      "  --arrival-rate=F    open-loop offered load per DC, ops/sec     (1000)\n"
      "  --arrival-plan=SPEC scripted traffic shape; `;`-separated timed events:\n"
      "                        <ms>:rate:<dc|*>:<ops>        set absolute rate\n"
      "                        <ms>:ramp:<dc|*>:<ops>:<durms> linear ramp to it\n"
      "                        <ms>:burst:<dc|*>:<mult>:<durms> flash crowd\n"
      "                        <ms>:diurnal:<dc|*>:<amp>:<periodms>[:<phasems>]\n"
      "                      rate/ramp replace the base rate; burst/diurnal\n"
      "                      multiply whatever is in effect\n"
      "  --zipf-sessions=F   session-popularity skew theta (hot users)     (0)\n"
      "  --max-queue=N       per-session queue before arrivals shed        (8)\n"
      "  --edges=N           streaming graph attachment m (mean degree 2m) (15)\n"
      "  --expected-keys=N   pre-size each DC's store for N distinct keys  (0)\n"
      "  --gears=N           storage servers per datacenter             (4)\n"
      "  --backend=sim|realtime  execution backend: deterministic simulator or\n"
      "                      wall-clock worker threads (non-reproducible;\n"
      "                      single-run only, no drift/trace/backup)     (sim)\n"
      "  --workers=N         realtime backend worker threads, 1..256     (2)\n"
      "  --seconds=N         measured simulated seconds                 (3)\n"
      "  --warmup=N          warm-up simulated seconds                  (1)\n"
      "  --tree=generated|star  Saturn tree configuration               (generated)\n"
      "  --hub=SITE          star hub region index (0=NV..6=S)          (3=Ireland)\n"
      "  --chain=N           chain replicas per serializer              (1)\n"
      "  --prune=0|1         COPS context pruning                       (1)\n"
      "  --batch-deadline=MS metadata-link batching window; 0 = per-label\n"
      "                      sends, byte-identical to no batching        (0)\n"
      "  --batch-max-labels=N  flush a batch at N labels                 (32)\n"
      "  --batch-max-bytes=N   flush a batch at N encoded bytes          (1024)\n"
      "  --seed=N            RNG seed                                   (42)\n"
      "  --oracle            enable the causality oracle\n"
      "  --csv=PATH          dump per-pair visibility CDFs (and fault events) as CSV\n"
      "  --fault-plan=SPEC   inject faults; `;`-separated timed events:\n"
      "                        <ms>:cut:<a>-<b>[:drop]   cut a site link (lossy w/ drop)\n"
      "                        <ms>:heal:<a>-<b>         heal it\n"
      "                        <ms>:lat:<a>-<b>:<ms>     extra one-way latency\n"
      "                        <ms>:unlat:<a>-<b>        clear the extra latency\n"
      "                        <ms>:crash:<dc>           crash a datacenter\n"
      "                        <ms>:recover:<dc>         recover it\n"
      "                        <ms>:killtree:<epoch>     kill an epoch's serializers\n"
      "                        <ms>:killchain:<e>:<r>    kill one chain replica\n"
      "  --drift-plan=SPEC   drift the world; `;`-separated timed events:\n"
      "                        <ms>:step:<a>-<b>:<ms>        set base one-way latency\n"
      "                        <ms>:stepone:<from>-<to>:<ms> directed variant\n"
      "                        <ms>:ramp:<a>-<b>:<ms>:<durms>    linear ramp\n"
      "                        <ms>:rampone:<from>-<to>:<ms>:<durms>\n"
      "                        <ms>:join:<dc>                datacenter joins the tree\n"
      "                        <ms>:leave:<dc>               datacenter leaves it\n"
      "                      joined DCs start deferred (no clients, no tree)\n"
      "  --join=MS:DC        shorthand for a single join event\n"
      "  --leave=MS:DC       shorthand for a single leave event\n"
      "  --dynamic           saturn: enable the dynamic-topology plane (probe\n"
      "                      agents, adaptive failure detector, online tree-\n"
      "                      reconfiguration controller); implied by join/leave\n"
      "  --probe-interval=MS probe cadence                              (100)\n"
      "  --reconfig-eval=MS  controller evaluation interval             (250)\n"
      "  --reconfig-degrade=F  mismatch ratio that arms the trigger     (1.25)\n"
      "  --reconfig-hysteresis=N  consecutive degraded evals required   (3)\n"
      "  --reconfig-cooldown=MS  quiet time after an operation          (2000)\n"
      "  --leave-drain=MS    grace between client stop and leave switch (500)\n"
      "  --static-detector   keep the static fallback timeout (no RTT scaling)\n"
      "  --rtt-multiplier=F  adaptive silence threshold = F * max RTT   (3)\n"
      "  --backup            saturn: pre-deploy a backup star tree as epoch 1\n"
      "  --stop-clients=MS   stop all clients at MS (quiescent recovery tail)\n"
      "  --seeds=N           sweep mode: run seeds seed..seed+N-1 concurrently\n"
      "                      on a worker pool; prints a per-seed table plus\n"
      "                      merged visibility statistics, and --csv dumps the\n"
      "                      CDFs of the per-pair histograms merged across seeds\n"
      "  --jobs=N            sweep worker threads (default: SATURN_JOBS env or\n"
      "                      all hardware threads); results are reported in seed\n"
      "                      order, so output is identical for every jobs value\n"
      "  --trace-out=PATH    record a structured trace and write it as Chrome\n"
      "                      trace-event JSON (load in Perfetto); single-run only\n"
      "  --trace-label[=N]   print the slowest N sampled label journeys,\n"
      "                      hop by hop (5); implies tracing; single-run only\n"
      "  --trace-ring=N      trace ring-buffer capacity in events (65536)\n"
      "  --metrics-out=PATH  write every run counter and histogram as JSON;\n"
      "                      with --seeds the snapshots are merged in seed order\n"
      "  --attribution       decompose sampled visibilities into phases\n"
      "                      (commit-sink, serializer, tree, buffer, stability)\n"
      "                      per DC pair and print the report; never perturbs\n"
      "                      the run (fingerprint-identical on or off); with\n"
      "                      --seeds the profiles merge in seed order\n"
      "  --timeseries-out=PATH  sample every registry metric on a fixed sim-time\n"
      "                      window into JSON (schema saturn-timeseries-v1);\n"
      "                      with --seeds the series merge in seed order, so the\n"
      "                      bytes are identical for every --jobs value; with\n"
      "                      --attribution the file embeds the phase profile\n"
      "  --timeseries-window=MS  time-series window size                (100)\n");
}

// Everything needed to assemble one cluster, parsed and validated once; the
// seed sweep re-stamps `config.seed` per run.
struct SimSetup {
  ClusterConfig config;
  KeyspaceConfig keyspace;
  SyntheticOpGenerator::Config workload;
  FaultPlan plan;
  DriftPlan drift;
  uint32_t dcs = 0;
  uint32_t clients = 0;
  SimTime warmup = 0;
  SimTime measure = 0;
  SimTime stop_clients = 0;  // 0 = never
  bool backup = false;
  bool capture_metrics = false;  // sweep workers snapshot the registry
  bool capture_timeseries = false;
};

// Parses flags into a SimSetup. Returns false (with *exit_code set) on bad
// input.
bool BuildSetup(const Flags& flags, SimSetup* setup, int* exit_code) {
  static const std::map<std::string, Protocol> kProtocols = {
      {"eventual", Protocol::kEventual},     {"saturn", Protocol::kSaturn},
      {"saturn-p2p", Protocol::kSaturnTimestamp}, {"gentlerain", Protocol::kGentleRain},
      {"cure", Protocol::kCure},             {"cops", Protocol::kCops},
  };
  static const std::map<std::string, CorrelationPattern> kPatterns = {
      {"exponential", CorrelationPattern::kExponential},
      {"proportional", CorrelationPattern::kProportional},
      {"uniform", CorrelationPattern::kUniform},
      {"full", CorrelationPattern::kFull},
  };

  std::string protocol_name = flags.Get("protocol", "saturn");
  auto protocol_it = kProtocols.find(protocol_name);
  if (protocol_it == kProtocols.end()) {
    std::fprintf(stderr, "unknown protocol: %s\n", protocol_name.c_str());
    *exit_code = 2;
    return false;
  }
  auto pattern_it = kPatterns.find(flags.Get("pattern", "exponential"));
  if (pattern_it == kPatterns.end()) {
    std::fprintf(stderr, "unknown pattern: %s\n", flags.Get("pattern", "").c_str());
    *exit_code = 2;
    return false;
  }

  setup->dcs = static_cast<uint32_t>(flags.GetInt("dcs", 7));
  if (setup->dcs < 2 || setup->dcs > kNumEc2Regions) {
    std::fprintf(stderr, "--dcs must be 2..%u\n", kNumEc2Regions);
    *exit_code = 2;
    return false;
  }

  ClusterConfig& config = setup->config;
  config.protocol = protocol_it->second;
  config.dc_sites = Ec2Sites(setup->dcs);
  config.latencies = Ec2Latencies();
  config.dc.num_gears = static_cast<uint32_t>(flags.GetInt("gears", 4));
  config.tree_kind = flags.Get("tree", "generated") == "star" ? SaturnTreeKind::kStar
                                                              : SaturnTreeKind::kGenerated;
  config.star_hub = static_cast<SiteId>(flags.GetInt("hub", kIreland));
  config.chain_replicas = static_cast<uint32_t>(flags.GetInt("chain", 1));
  config.cops_prune = flags.GetInt("prune", 1) != 0;
  config.dc.batch_deadline = Millis(flags.GetInt("batch-deadline", 0));
  config.dc.batch_max_labels = static_cast<uint32_t>(flags.GetInt("batch-max-labels", 32));
  config.dc.batch_max_bytes = static_cast<uint32_t>(flags.GetInt("batch-max-bytes", 1024));
  config.enable_oracle = flags.Has("oracle");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  setup->keyspace.num_keys = static_cast<uint64_t>(flags.GetInt("keys", 10000));
  setup->keyspace.pattern = pattern_it->second;
  setup->keyspace.replication_degree = static_cast<uint32_t>(flags.GetInt("degree", 3));

  setup->workload.write_fraction = flags.GetDouble("writes", 0.1);
  setup->workload.remote_read_fraction = flags.GetDouble("remote-reads", 0.0);
  setup->workload.zipf_theta = flags.GetDouble("zipf", 0.0);
  setup->workload.value_size = static_cast<uint32_t>(flags.GetInt("value", 2));

  if (flags.Has("open-loop")) {
    long sessions = flags.GetInt("open-loop", 0);
    if (sessions <= 0) {
      std::fprintf(stderr, "--open-loop needs a positive session count\n");
      *exit_code = 2;
      return false;
    }
    ClientProtocolMode mode = ClientModeFor(config.protocol);
    if (mode != ClientProtocolMode::kScalar && mode != ClientProtocolMode::kSaturn) {
      std::fprintf(stderr, "--open-loop supports label-only protocols "
                           "(eventual, gentlerain, saturn, saturn-p2p)\n");
      *exit_code = 2;
      return false;
    }
    config.open_loop.sessions = static_cast<uint64_t>(sessions);
    config.open_loop.arrival_rate = flags.GetDouble("arrival-rate", 1000);
    config.open_loop.zipf_theta = flags.GetDouble("zipf-sessions", 0.0);
    config.open_loop.max_queue = static_cast<uint32_t>(flags.GetInt("max-queue", 8));
    config.open_loop.edges_per_node = static_cast<uint32_t>(flags.GetInt("edges", 15));
    if (flags.Has("value")) {
      config.open_loop.mix.value_size = static_cast<uint32_t>(flags.GetInt("value", 256));
    }
    if (flags.Has("arrival-plan")) {
      std::string error;
      if (!ParseArrivalPlan(flags.Get("arrival-plan", ""), &config.open_loop.plan,
                            &error)) {
        std::fprintf(stderr, "bad --arrival-plan: %s\n", error.c_str());
        *exit_code = 2;
        return false;
      }
    }
    // Session user ids double as key ids: the keyspace must cover them.
    if (setup->keyspace.num_keys < config.open_loop.sessions) {
      setup->keyspace.num_keys = config.open_loop.sessions;
    }
  }
  config.dc.expected_keys = static_cast<uint64_t>(flags.GetInt("expected-keys", 0));

  setup->clients = static_cast<uint32_t>(
      flags.GetInt("clients", config.open_loop.sessions > 0 ? 0 : 32));
  setup->warmup = Seconds(flags.GetInt("warmup", 1));
  setup->measure = Seconds(flags.GetInt("seconds", 3));

  if (flags.Has("fault-plan")) {
    std::string error;
    if (!ParseFaultPlan(flags.Get("fault-plan", ""), &setup->plan, &error)) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", error.c_str());
      *exit_code = 2;
      return false;
    }
  }
  if (flags.Has("drift-plan")) {
    std::string error;
    if (!ParseDriftPlan(flags.Get("drift-plan", ""), &setup->drift, &error)) {
      std::fprintf(stderr, "bad --drift-plan: %s\n", error.c_str());
      *exit_code = 2;
      return false;
    }
  }
  // --join / --leave are shorthand for single-event drift plans.
  for (const char* kind : {"join", "leave"}) {
    if (!flags.Has(kind)) {
      continue;
    }
    std::string spec = flags.Get(kind, "");
    size_t colon = spec.find(':');
    long at_ms = 0;
    long dc = 0;
    if (colon == std::string::npos || !ParseLong(spec.substr(0, colon), &at_ms) ||
        !ParseLong(spec.substr(colon + 1), &dc)) {
      std::fprintf(stderr, "--%s needs MS:DC\n", kind);
      *exit_code = 2;
      return false;
    }
    DriftEvent ev;
    ev.at = Millis(at_ms);
    ev.kind = std::strcmp(kind, "join") == 0 ? DriftKind::kJoin : DriftKind::kLeave;
    ev.dc = static_cast<DcId>(dc);
    setup->drift.events.push_back(ev);
  }
  setup->drift.Normalize();

  bool has_membership = !setup->drift.JoinedDcs().empty();
  for (const DriftEvent& ev : setup->drift.events) {
    if (ev.kind == DriftKind::kLeave) {
      has_membership = true;
    }
    if ((ev.kind == DriftKind::kJoin || ev.kind == DriftKind::kLeave) &&
        ev.dc >= setup->dcs) {
      std::fprintf(stderr, "drift join/leave dc %u out of range (dcs=%u)\n",
                   static_cast<unsigned>(ev.dc), setup->dcs);
      *exit_code = 2;
      return false;
    }
  }
  if (flags.Has("dynamic") || has_membership) {
    if (config.protocol != Protocol::kSaturn) {
      std::fprintf(stderr, "--dynamic / drift join/leave require --protocol=saturn\n");
      *exit_code = 2;
      return false;
    }
    config.dynamic.enabled = true;
    config.dynamic.deferred_dcs = setup->drift.JoinedDcs();
    config.dynamic.monitor.probe_interval = Millis(flags.GetInt("probe-interval", 100));
    config.dynamic.controller.eval_interval = Millis(flags.GetInt("reconfig-eval", 250));
    config.dynamic.controller.degrade_ratio = flags.GetDouble("reconfig-degrade", 1.25);
    config.dynamic.controller.hysteresis_evals =
        static_cast<uint32_t>(flags.GetInt("reconfig-hysteresis", 3));
    config.dynamic.controller.cooldown = Millis(flags.GetInt("reconfig-cooldown", 2000));
    config.dynamic.controller.leave_drain = Millis(flags.GetInt("leave-drain", 500));
    config.dynamic.controller.chain_replicas = config.chain_replicas;
    config.dynamic.adaptive_detector = !flags.Has("static-detector");
    config.dynamic.rtt_multiplier = flags.GetDouble("rtt-multiplier", 3.0);
  }

  if (flags.Has("backup")) {
    if (config.protocol != Protocol::kSaturn) {
      std::fprintf(stderr, "--backup requires --protocol=saturn\n");
      *exit_code = 2;
      return false;
    }
    setup->backup = true;
  }
  if (flags.Has("stop-clients")) {
    setup->stop_clients = Millis(flags.GetInt("stop-clients", 0));
  }

  if (flags.Has("trace-out") || flags.Has("trace-label")) {
    if (flags.GetInt("seeds", 1) > 1) {
      std::fprintf(stderr, "--trace-out/--trace-label are single-run only\n");
      *exit_code = 2;
      return false;
    }
    config.trace.enabled = true;
  }
  if (flags.Has("trace-ring")) {
    config.trace.ring_capacity = static_cast<size_t>(flags.GetInt("trace-ring", 1 << 16));
  }
  config.trace.attribution = flags.Has("attribution");
  setup->capture_metrics = flags.Has("metrics-out");
  if (flags.Has("timeseries-out")) {
    long window_ms = flags.GetInt("timeseries-window", 100);
    if (window_ms <= 0) {
      std::fprintf(stderr, "--timeseries-window must be positive\n");
      *exit_code = 2;
      return false;
    }
    config.timeseries_window = Millis(window_ms);
    setup->capture_timeseries = true;
  } else if (flags.Has("timeseries-window")) {
    std::fprintf(stderr, "--timeseries-window needs --timeseries-out\n");
    *exit_code = 2;
    return false;
  }

  if (flags.Get("backend", "sim") == "realtime") {
    // The wall-clock backend is incompatible with the deterministic-sim-only
    // planes: latency trajectories and tracing refuse a lane router, the
    // backup tree deploys after lane binding closes, and a seed sweep's
    // merged output would not be reproducible anyway.
    if (flags.GetInt("seeds", 1) > 1 || config.trace.enabled || config.trace.attribution ||
        setup->capture_timeseries || !setup->drift.Empty() || setup->backup ||
        flags.Has("dynamic")) {
      std::fprintf(stderr,
                   "--backend=realtime is single-run only and cannot combine with "
                   "--drift-plan/--join/--leave/--dynamic, --trace-*, --attribution, "
                   "--timeseries-out, or --backup\n");
      *exit_code = 2;
      return false;
    }
    // Range-check the signed value: a cast would turn -1 into a 4-billion
    // thread pool.
    long workers = flags.GetInt("workers", 2);
    if (workers < 1 || workers > kMaxWorkers) {
      std::fprintf(stderr, "--workers must be 1..%ld\n", kMaxWorkers);
      *exit_code = 2;
      return false;
    }
    config.backend = ExecBackend::kRealtime;
    config.realtime.workers = static_cast<unsigned>(workers);
    // Wall-clock worker-utilization series (50 ms windows): realtime's
    // telemetry counterpart to --timeseries-out, printed after the run.
    config.realtime.utilization_sample_ns = 50ull * 1000 * 1000;
  } else if (flags.Get("backend", "sim") != "sim") {
    std::fprintf(stderr, "--backend must be sim or realtime\n");
    *exit_code = 2;
    return false;
  }
  return true;
}

// Builds the cluster for one run of `setup` (the backup tree, fault plan and
// client stop are applied; nothing is printed — both modes share this).
std::unique_ptr<Cluster> BuildCluster(const SimSetup& setup) {
  // Closed-loop clients need the materialized key lists (their op generator
  // enumerates local/remote keys); a pure open-loop run can use the
  // procedural keyspace, whose memory is O(dcs^2) however many keys exist.
  bool procedural = setup.config.open_loop.sessions > 0 && setup.clients == 0;
  ReplicaMap replicas =
      procedural
          ? ReplicaMap::Procedural(setup.keyspace, setup.config.dc_sites,
                                   setup.config.latencies)
          : ReplicaMap::Generate(setup.keyspace, setup.config.dc_sites,
                                 setup.config.latencies);
  auto cluster = std::make_unique<Cluster>(setup.config, std::move(replicas),
                                           UniformClientHomes(setup.dcs, setup.clients),
                                           SyntheticGenerators(setup.workload));
  if (!setup.plan.Empty()) {
    cluster->InstallFaultPlan(setup.plan);
  }
  if (!setup.drift.Empty()) {
    cluster->InstallDriftPlan(setup.drift);
  }
  if (setup.backup) {
    // A star rooted away from the primary hub: survives whatever killed it.
    SiteId hub = setup.config.dc_sites[0] != setup.config.star_hub
                     ? setup.config.dc_sites[0]
                     : setup.config.dc_sites[1];
    cluster->metadata_service()->DeployTree(1, StarTopology(setup.config.dc_sites, hub));
  }
  if (setup.stop_clients != 0) {
    cluster->StopClientsAt(setup.stop_clients);
  }
  return cluster;
}

// Writes the time-series JSON, splicing the attribution profile (when one was
// collected) in as a top-level "attribution" object. Both inputs are plain
// data merged in seed order, so the file bytes are jobs-independent.
void WriteTimeSeries(const std::string& path, const obs::TimeSeries& series,
                     const obs::AttributionProfiler::Snapshot* attribution) {
  std::string json = series.ToJson();
  if (attribution != nullptr) {
    size_t pos = json.rfind('}');
    std::string attr = ",\n  \"attribution\": ";
    attribution->AppendJson(&attr);
    attr += "\n";
    json.insert(pos, attr);
  }
  std::ofstream out(path);
  out << json;
  std::printf("\nwrote time series to %s (%zu windows)\n", path.c_str(),
              series.windows.size());
}

int Run(const Flags& flags, const SimSetup& setup) {
  const ClusterConfig& config = setup.config;
  const KeyspaceConfig& keyspace = setup.keyspace;
  const SyntheticOpGenerator::Config& workload = setup.workload;
  const uint32_t dcs = setup.dcs;
  const uint32_t clients = setup.clients;
  const FaultPlan& plan = setup.plan;

  std::unique_ptr<Cluster> cluster_ptr = BuildCluster(setup);
  Cluster& cluster = *cluster_ptr;
  if (setup.backup) {
    SiteId hub = config.dc_sites[0] != config.star_hub ? config.dc_sites[0]
                                                       : config.dc_sites[1];
    std::printf("backup tree (epoch 1): star hub %s\n", Ec2RegionName(hub));
  }

  std::printf("protocol=%s dcs=%u pattern=%s degree=%u keys=%llu writes=%.2f "
              "remote-reads=%.2f clients=%u seed=%llu\n",
              ProtocolName(config.protocol), dcs, CorrelationPatternName(keyspace.pattern),
              keyspace.replication_degree,
              static_cast<unsigned long long>(keyspace.num_keys), workload.write_fraction,
              workload.remote_read_fraction, clients,
              static_cast<unsigned long long>(config.seed));
  if (config.protocol == Protocol::kSaturn) {
    std::printf("tree: %s\n", cluster.tree().ToString().c_str());
  }
  if (!plan.Empty()) {
    std::printf("fault plan: %s\n", plan.ToString().c_str());
  }
  if (!setup.drift.Empty()) {
    std::printf("drift plan: %s\n", setup.drift.ToString().c_str());
  }
  if (config.open_loop.sessions > 0) {
    std::printf("open-loop: sessions=%llu arrival-rate=%.0f/s/DC zipf=%.2f "
                "max-queue=%u edges=%u plan=%s\n",
                static_cast<unsigned long long>(config.open_loop.sessions),
                config.open_loop.arrival_rate, config.open_loop.zipf_theta,
                config.open_loop.max_queue, config.open_loop.edges_per_node,
                config.open_loop.plan.ToString().c_str());
  }

  ExperimentResult result = cluster.Run(setup.warmup, setup.measure);

  std::printf("\nthroughput          %10.0f ops/s\n", result.throughput_ops);
  std::printf("op latency (mean)   %10.2f ms\n", result.mean_op_latency_ms);
  std::printf("visibility mean     %10.1f ms\n", result.mean_visibility_ms);
  std::printf("visibility p90/p99  %10.1f / %.1f ms\n", result.p90_visibility_ms,
              result.p99_visibility_ms);
  std::printf("remote updates      %10llu\n",
              static_cast<unsigned long long>(result.remote_updates));
  if (result.mean_attach_ms > 0) {
    std::printf("attach mean         %10.1f ms\n", result.mean_attach_ms);
  }

  if (!cluster.session_muxes().empty()) {
    // Every figure here is read back out of the unified metrics registry —
    // the same names --metrics-out and --timeseries-out export, so scripted
    // consumers need not scrape this stdout block.
    const obs::MetricsSnapshot snap = cluster.metrics_registry().Snapshot();
    std::printf("\nopen-loop load:\n");
    std::printf("  arrivals %lld, completed %lld, queued %lld, shed %lld, "
                "migrations %lld\n",
                static_cast<long long>(snap.Scalar("workload.arrivals")),
                static_cast<long long>(snap.Scalar("workload.ops_completed")),
                static_cast<long long>(snap.Scalar("workload.queued")),
                static_cast<long long>(snap.Scalar("workload.shed")),
                static_cast<long long>(snap.Scalar("workload.migrations")));
    std::printf("  residual backlog %lld, max queue depth %lld\n",
                static_cast<long long>(snap.Scalar("workload.backlog")),
                static_cast<long long>(snap.Scalar("workload.max_queue_depth")));
    LatencyHistogram queue_wait;
    for (DcId dc = 0; dc < dcs; ++dc) {
      const LatencyHistogram* h =
          snap.Histogram("workload.dc" + std::to_string(dc) + ".queue_wait");
      if (h != nullptr) {
        queue_wait.Merge(*h);
      }
    }
    if (queue_wait.count() > 0) {
      std::printf("  queue wait mean %.2f ms, p99 %.2f ms over %llu dequeues\n",
                  queue_wait.MeanMs(), queue_wait.PercentileMs(0.99),
                  static_cast<unsigned long long>(queue_wait.count()));
    }
  }

  if (cluster.scheduler() != nullptr &&
      !cluster.scheduler()->utilization_series().empty()) {
    const auto& series = cluster.scheduler()->utilization_series();
    size_t workers = series.front().busy_fraction.size();
    std::printf("\nrealtime worker utilization (%zu samples, 50 ms windows):\n",
                series.size());
    for (size_t w = 0; w < workers; ++w) {
      double mean = 0, peak = 0;
      for (const auto& s : series) {
        mean += s.busy_fraction[w];
        peak = std::max(peak, s.busy_fraction[w]);
      }
      mean /= static_cast<double>(series.size());
      std::printf("  worker %zu: mean %.0f%%, peak %.0f%%\n", w, mean * 100.0,
                  peak * 100.0);
    }
  }

  if (cluster.fault_injector() != nullptr) {
    // Everything printed here is read back out of the unified metrics
    // registry — the registry getters resolve the same live counters the
    // owners maintain, so this block is byte-identical to reading them
    // directly.
    const obs::MetricsSnapshot snap = cluster.metrics_registry().Snapshot();
    std::printf("\ndegraded-mode metrics:\n");
    std::printf("messages dropped    %10llu\n",
                static_cast<unsigned long long>(snap.Scalar("net.messages_dropped")));
    for (DcId dc = 0; dc < dcs; ++dc) {
      std::string prefix = "dc" + std::to_string(dc) + ".";
      std::printf("%4s fallback entries/exits %u/%u, timestamp-mode time %.1f ms%s\n",
                  Ec2RegionName(config.dc_sites[dc]),
                  static_cast<unsigned>(snap.Scalar(prefix + "fallback_entries")),
                  static_cast<unsigned>(snap.Scalar(prefix + "fallback_exits")),
                  static_cast<double>(snap.Scalar(prefix + "ts_mode_time_us")) / Millis(1),
                  snap.Scalar(prefix + "in_timestamp_mode") != 0 ? " (still degraded)"
                                                                 : "");
    }
    const LatencyHistogram* failover = snap.Histogram("failover_latency");
    if (failover != nullptr && failover->count() > 0) {
      std::printf("failover latency    %10.1f ms mean over %llu failovers\n",
                  failover->MeanMs(),
                  static_cast<unsigned long long>(failover->count()));
    }
    std::printf("fault trace:\n");
    for (const auto& [at, desc] : cluster.fault_injector()->log()) {
      std::printf("  [%7.1f ms] %s\n", static_cast<double>(at) / Millis(1), desc.c_str());
    }
  }

  if (cluster.reconfig_controller() != nullptr) {
    const ReconfigController* ctl = cluster.reconfig_controller();
    const obs::MetricsSnapshot snap = cluster.metrics_registry().Snapshot();
    std::printf("\ndynamic topology:\n");
    std::printf("probe samples       %10llu\n",
                static_cast<unsigned long long>(cluster.topology_monitor()->samples()));
    std::printf("controller evals    %10llu (reconfigs %llu, joins %llu, leaves %llu, "
                "rejected solves %llu)\n",
                static_cast<unsigned long long>(ctl->evals()),
                static_cast<unsigned long long>(ctl->reconfigs()),
                static_cast<unsigned long long>(ctl->joins()),
                static_cast<unsigned long long>(ctl->leaves()),
                static_cast<unsigned long long>(ctl->rejected_solves()));
    std::printf("mismatch objective  %10.3g measured vs %.3g baseline\n",
                ctl->last_measured_mismatch(), ctl->baseline_mismatch());
    std::printf("final epoch %u, active {", ctl->epoch());
    bool first = true;
    for (DcId dc : ctl->active()) {
      std::printf("%s%s", first ? "" : " ", Ec2RegionName(config.dc_sites[dc]));
      first = false;
    }
    std::printf("}%s\n", ctl->busy() ? " (operation still in flight)" : "");
    const LatencyHistogram* reconfig = snap.Histogram("reconfig_latency");
    if (reconfig != nullptr && reconfig->count() > 0) {
      std::printf("reconfig latency    %10.1f ms mean over %llu operations\n",
                  reconfig->MeanMs(), static_cast<unsigned long long>(reconfig->count()));
    }
    const LatencyHistogram* during = snap.Histogram("reconfig_visibility");
    if (during != nullptr && during->count() > 0) {
      std::printf("visibility during reconfig: mean %.1f ms, p99 %.1f ms (%llu samples)\n",
                  during->MeanMs(), during->PercentileMs(0.99),
                  static_cast<unsigned long long>(during->count()));
    }
  }

  std::printf("\nper-pair visibility means (ms, origin row -> destination column):\n     ");
  for (DcId to = 0; to < dcs; ++to) {
    std::printf(" %7s", Ec2RegionName(config.dc_sites[to]));
  }
  std::printf("\n");
  for (DcId from = 0; from < dcs; ++from) {
    std::printf("%4s ", Ec2RegionName(config.dc_sites[from]));
    for (DcId to = 0; to < dcs; ++to) {
      const LatencyHistogram& hist = cluster.metrics().Visibility(from, to);
      if (from == to || hist.count() == 0) {
        std::printf(" %7s", "-");
      } else {
        std::printf(" %7.1f", hist.MeanMs());
      }
    }
    std::printf("\n");
  }

  if (flags.Has("csv")) {
    std::ofstream csv(flags.Get("csv", ""));
    csv << "kind,origin,destination,visibility_ms,cdf\n";
    for (DcId from = 0; from < dcs; ++from) {
      for (DcId to = 0; to < dcs; ++to) {
        if (from == to) {
          continue;
        }
        for (auto [ms, frac] : cluster.metrics().Visibility(from, to).CdfPointsMs()) {
          csv << "visibility," << Ec2RegionName(config.dc_sites[from]) << ','
              << Ec2RegionName(config.dc_sites[to]) << ',' << ms << ',' << frac << '\n';
        }
      }
    }
    if (cluster.fault_injector() != nullptr) {
      // Fault events as rows so plots can overlay the fault timeline
      // (descriptions contain no commas).
      for (const auto& [at, desc] : cluster.fault_injector()->log()) {
        csv << "fault," << desc << ",," << static_cast<double>(at) / Millis(1) << ",\n";
      }
    }
    std::printf("\nwrote CDFs to %s\n", flags.Get("csv", "").c_str());
  }

  if (flags.Has("trace-out")) {
    std::ofstream out(flags.Get("trace-out", ""));
    out << cluster.trace()->ExportJson();
    std::printf("\nwrote trace to %s (%llu events recorded, %llu dropped)\n",
                flags.Get("trace-out", "").c_str(),
                static_cast<unsigned long long>(cluster.trace()->events_recorded()),
                static_cast<unsigned long long>(cluster.trace()->events_dropped()));
  }
  if (flags.Has("trace-label")) {
    // Bare --trace-label parses as "1"; treat anything below 2 as the default
    // count of 5.
    long n = flags.GetInt("trace-label", 5);
    if (n <= 1) {
      n = 5;
    }
    std::printf("\n%s", cluster.trace()->JourneyReport(static_cast<size_t>(n)).c_str());
  }
  if (flags.Has("metrics-out")) {
    std::ofstream out(flags.Get("metrics-out", ""));
    out << cluster.metrics_registry().Snapshot().ToJson();
    std::printf("\nwrote metrics to %s\n", flags.Get("metrics-out", "").c_str());
  }
  if (cluster.attribution() != nullptr) {
    std::printf("\n%s", cluster.attribution()->TakeSnapshot().Report().c_str());
  }
  if (setup.capture_timeseries) {
    obs::AttributionProfiler::Snapshot attr;
    if (cluster.attribution() != nullptr) {
      attr = cluster.attribution()->TakeSnapshot();
    }
    WriteTimeSeries(flags.Get("timeseries-out", ""), cluster.timeseries()->series(),
                    cluster.attribution() != nullptr ? &attr : nullptr);
  }

  if (cluster.oracle() != nullptr) {
    if (cluster.fault_injector() != nullptr) {
      auto missing = cluster.oracle()->MissingReplicas();
      if (!missing.empty()) {
        std::printf("\nreplication liveness: %zu updates missing replicas, first: %s\n",
                    missing.size(), missing.front().c_str());
        return 1;
      }
      std::printf("\nreplication liveness: complete\n");
    }
    if (cluster.oracle()->Clean()) {
      std::printf("\ncausality oracle: clean\n");
    } else {
      std::printf("\ncausality oracle: %zu VIOLATIONS, first: %s\n",
                  cluster.oracle()->violations().size(),
                  cluster.oracle()->violations().front().c_str());
      return 1;
    }
  }
  return 0;
}

// --- Seed sweep mode -------------------------------------------------------

// Plain data extracted from one seed's cluster on the worker; printing and
// CSV writing happen on the main thread afterwards, in seed order, so the
// output is identical whatever --jobs is.
struct SeedRun {
  uint64_t seed = 0;
  ExperimentResult result;
  LatencyHistogram all_visibility;
  std::vector<LatencyHistogram> pair_visibility;  // dcs*dcs, row-major
  obs::MetricsSnapshot metrics;  // empty unless --metrics-out
  obs::TimeSeries timeseries;    // empty unless --timeseries-out
  obs::AttributionProfiler::Snapshot attribution;  // empty unless --attribution
  bool oracle_clean = true;
  std::string first_violation;
};

SeedRun RunOneSeed(const SimSetup& base, uint64_t seed) {
  SimSetup setup = base;
  setup.config.seed = seed;
  std::unique_ptr<Cluster> cluster = BuildCluster(setup);
  SeedRun run;
  run.seed = seed;
  run.result = cluster->Run(setup.warmup, setup.measure);
  if (setup.capture_metrics) {
    // Snapshot before the destructive Take* accessors empty the histograms.
    run.metrics = cluster->metrics_registry().Snapshot();
  }
  if (setup.capture_timeseries) {
    run.timeseries = cluster->timeseries()->TakeSeries();
  }
  if (cluster->attribution() != nullptr) {
    run.attribution = cluster->attribution()->TakeSnapshot();
  }
  run.all_visibility = cluster->metrics().TakeAllVisibility();
  run.pair_visibility.reserve(static_cast<size_t>(setup.dcs) * setup.dcs);
  for (DcId from = 0; from < setup.dcs; ++from) {
    for (DcId to = 0; to < setup.dcs; ++to) {
      run.pair_visibility.push_back(from == to ? LatencyHistogram()
                                               : cluster->metrics().TakeVisibility(from, to));
    }
  }
  if (cluster->oracle() != nullptr && !cluster->oracle()->Clean()) {
    run.oracle_clean = false;
    run.first_violation = cluster->oracle()->violations().front();
  }
  return run;
}

int RunSeedSweep(const Flags& flags, const SimSetup& setup, uint64_t num_seeds) {
  const uint64_t base_seed = setup.config.seed;
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < num_seeds; ++i) {
    seeds.push_back(base_seed + i);
  }
  const int jobs = ResolveJobs(static_cast<int>(flags.GetInt("jobs", 0)));

  std::printf("protocol=%s dcs=%u pattern=%s degree=%u clients=%u "
              "seeds=%llu..%llu jobs=%d\n",
              ProtocolName(setup.config.protocol), setup.dcs,
              CorrelationPatternName(setup.keyspace.pattern),
              setup.keyspace.replication_degree, setup.clients,
              static_cast<unsigned long long>(seeds.front()),
              static_cast<unsigned long long>(seeds.back()), jobs);

  std::vector<SeedRun> runs = ParallelSweep(
      seeds, jobs, [&setup](uint64_t seed) { return RunOneSeed(setup, seed); });

  std::printf("\n%6s  %10s  %9s  %9s  %9s  %9s\n", "seed", "tput", "op (ms)",
              "vis mean", "vis p90", "vis p99");
  LatencyHistogram merged;
  int violations = 0;
  for (const SeedRun& run : runs) {
    std::printf("%6llu  %10.0f  %9.2f  %9.1f  %9.1f  %9.1f\n",
                static_cast<unsigned long long>(run.seed), run.result.throughput_ops,
                run.result.mean_op_latency_ms, run.result.mean_visibility_ms,
                run.result.p90_visibility_ms, run.result.p99_visibility_ms);
    merged.Merge(run.all_visibility);
    if (!run.oracle_clean) {
      ++violations;
      std::printf("        causality VIOLATION: %s\n", run.first_violation.c_str());
    }
  }

  std::printf("\nmerged visibility over %llu seeds (%llu samples):\n",
              static_cast<unsigned long long>(num_seeds),
              static_cast<unsigned long long>(merged.count()));
  std::printf("  mean %.1f ms, p50 %.1f, p90 %.1f, p99 %.1f\n", merged.MeanMs(),
              merged.PercentileMs(0.50), merged.PercentileMs(0.90),
              merged.PercentileMs(0.99));

  if (flags.Has("csv")) {
    // Per-pair histograms merged across all seeds, dumped in the same format
    // as single-run mode. Merge order is seed order: byte-identical output
    // for every --jobs value.
    std::ofstream csv(flags.Get("csv", ""));
    csv << "kind,origin,destination,visibility_ms,cdf\n";
    for (DcId from = 0; from < setup.dcs; ++from) {
      for (DcId to = 0; to < setup.dcs; ++to) {
        if (from == to) {
          continue;
        }
        LatencyHistogram pair_merged;
        for (const SeedRun& run : runs) {
          pair_merged.Merge(run.pair_visibility[from * setup.dcs + to]);
        }
        for (auto [ms, frac] : pair_merged.CdfPointsMs()) {
          csv << "visibility," << Ec2RegionName(setup.config.dc_sites[from]) << ','
              << Ec2RegionName(setup.config.dc_sites[to]) << ',' << ms << ',' << frac
              << '\n';
        }
      }
    }
    std::printf("\nwrote merged CDFs to %s\n", flags.Get("csv", "").c_str());
  }

  if (flags.Has("metrics-out")) {
    // Merge order is seed order: byte-identical output for every --jobs
    // value, same guarantee as the CSV path above.
    obs::MetricsSnapshot merged_metrics;
    for (const SeedRun& run : runs) {
      merged_metrics.Merge(run.metrics);
    }
    std::ofstream out(flags.Get("metrics-out", ""));
    out << merged_metrics.ToJson();
    std::printf("\nwrote merged metrics to %s\n", flags.Get("metrics-out", "").c_str());
  }

  const bool attribution = setup.config.trace.attribution;
  obs::AttributionProfiler::Snapshot merged_attr;
  if (attribution) {
    // Seed-order merge, like every sweep output above.
    for (const SeedRun& run : runs) {
      merged_attr.Merge(run.attribution);
    }
    std::printf("\n%s", merged_attr.Report().c_str());
  }
  if (setup.capture_timeseries) {
    obs::TimeSeries merged_series;
    for (const SeedRun& run : runs) {
      merged_series.Merge(run.timeseries);
    }
    WriteTimeSeries(flags.Get("timeseries-out", ""), merged_series,
                    attribution ? &merged_attr : nullptr);
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace saturn

int main(int argc, char** argv) {
  saturn::Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "run saturn_sim --help for the flag list\n");
    return 2;
  }
  if (flags.Has("help")) {
    saturn::Usage();
    return 0;
  }
  saturn::SimSetup setup;
  int exit_code = 0;
  if (!saturn::BuildSetup(flags, &setup, &exit_code)) {
    return exit_code;
  }
  long seeds = flags.GetInt("seeds", 1);
  if (seeds > 1) {
    return saturn::RunSeedSweep(flags, setup, static_cast<uint64_t>(seeds));
  }
  return saturn::Run(flags, setup);
}
