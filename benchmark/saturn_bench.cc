// saturn_bench: runs one workload of the benchmark of
// record, in one process, on one thread, and prints one JSON object on
// stdout. benchmark/run.py builds it, starts one fresh process per repeat and
// turns the objects into metrics (see benchmark/README.md).
//
// It measures the simulator from outside, through public entry points
// only: ReplicaMap::Generate/Procedural, FindConfiguration, the Cluster
// constructor and Cluster::Run, Metrics and metrics_registry() snapshots,
// Network counters, and, for the probes, direct calls into single layers
// (Simulator, Network, the label codec, Serializer, VersionedStore, the op
// generators, the streaming graph, ReplicaMap and LatencyHistogram).
//
// Usage: saturn_bench --workload NAME [--mode MODE] [--seed N] [--smoke]
//                     [--heap-depth N] [--spans PATH] [--run-id ID]
//   run       set up and run once, untraced: one timed repeat (default)
//   setup     set up only: one setup_s sample from a cold process
//   traced    run with visibility attribution and wall-clock phase markers
//   probe     time direct calls into each layer on workload-shaped inputs
//   check     short run with the causality oracle; exits 1 on a violation
//   describe  print the workload's parameters
// --smoke shrinks every window and population (sanity runs, not numbers).
// --spans writes the spans recorded in this process as Chrome-trace JSON.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/core/label_codec.h"
#include "src/kvstore/partitioned_store.h"
#include "src/runtime/cluster.h"
#include "src/saturn/config_generator.h"
#include "src/saturn/serializer.h"
#include "src/workload/op_generator.h"

// --- Allocation counters ----------------------------------------------------
//
// Counting shims over malloc/free for every replaceable operator new/delete,
// so each run reports the heap allocations made inside Cluster::Run. The
// program is single-threaded; relaxed atomics keep the counters exact anyway.

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

// With the replacements above, new/delete really are a malloc/free pair.
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

using SteadyClock = std::chrono::steady_clock;

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "saturn_bench: %s\n", message.c_str());
  std::exit(2);
}

// --- JSON output --------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Flat writer for one JSON object; nested objects are added as finished text.
class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const char* key, uint64_t v) { return Raw(key, std::to_string(v)); }
  Json& Str(const char* key, const std::string& v) { return Raw(key, Quote(v)); }
  Json& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  Json& Obj(const char* key, const Json& v) { return Raw(key, v.Text()); }
  std::string Text() const { return "{" + body_ + "}"; }
  // `value` must already be JSON text.
  Json& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += Quote(key) + ": " + value;
    return *this;
  }

 private:
  std::string body_;
};

// --- Spans ----------------------------------------------------------------------
//
// Wall-clock spans recorded around this program's calls into each layer. They
// stay in memory and are written once, at exit, as Chrome-trace async spans:
// name, start, end, parent span and run id. Timestamps are steady-clock
// microseconds, which every process on the host shares, so run.py can merge
// the files of several processes onto one timeline.

class Spans {
 public:
  struct Span {
    std::string name;
    SteadyClock::time_point start;
    SteadyClock::time_point end;
    int parent = -1;
  };

  // Opens a span nested under the innermost open one; closed by Scope.
  class Scope {
   public:
    Scope(Spans* spans, const char* name) : spans_(spans) {
      id_ = spans_->Add(name, SteadyClock::now(), SteadyClock::now(), spans_->Current());
      spans_->open_.push_back(id_);
    }
    ~Scope() {
      spans_->spans_[id_].end = SteadyClock::now();
      spans_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Spans* spans_;
    int id_ = -1;
  };

  int Add(const std::string& name, SteadyClock::time_point start, SteadyClock::time_point end,
          int parent) {
    spans_.push_back({name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  int Current() const { return open_.empty() ? -1 : open_.back(); }
  const Span& at(int id) const { return spans_[id]; }

  void Write(const std::string& path, const std::string& run_id) const {
    struct Event {
      int64_t ts;
      bool begin;
      int id;
    };
    std::vector<Event> events;
    for (size_t i = 0; i < spans_.size(); ++i) {
      events.push_back({Micros(spans_[i].start), true, static_cast<int>(i)});
      events.push_back({Micros(spans_[i].end), false, static_cast<int>(i)});
    }
    // Begins were pushed before their ends, so a stable sort keeps every
    // zero-length span well formed.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.ts < b.ts; });
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      Fatal("cannot write spans to " + path);
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f,
                 "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
                 "\"args\": {\"name\": \"saturn_bench\"}},\n");
    std::fprintf(f,
                 "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 0, "
                 "\"args\": {\"name\": %s}}",
                 Quote(run_id).c_str());
    for (const Event& e : events) {
      const Span& s = spans_[e.id];
      std::fprintf(f,
                   ",\n{\"ph\": \"%s\", \"cat\": \"span\", \"id\": %d, \"name\": %s, "
                   "\"ts\": %lld, \"pid\": 1, \"tid\": 0, \"args\": {\"parent\": %d, "
                   "\"run\": %s}}",
                   e.begin ? "b" : "e", e.id, Quote(s.name).c_str(),
                   static_cast<long long>(e.ts), s.parent, Quote(run_id).c_str());
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

 private:
  static int64_t Micros(SteadyClock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t.time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Workloads --------------------------------------------------------------------
//
// The four workloads of record (README.md says why each exists). Window
// lengths are fixed so one Run takes about five seconds of wall time on a
// 2.1 GHz Xeon vCPU: 2 s windows made sim_ops_per_wall_s swing more than 5 s
// ones, and mm_flash's peak RSS grows with the window.

struct Workload {
  std::string name;
  Protocol protocol = Protocol::kSaturn;
  CorrelationPattern pattern = CorrelationPattern::kFull;
  uint32_t replication_degree = 3;  // replicas per key; ignored by kFull
  uint64_t keys = 10000;
  uint32_t gears = 4;
  // Closed loop: clients per DC with zero think time, synthetic op mix.
  uint32_t clients_per_dc = 48;
  double write_fraction = 0.1;
  double remote_read_fraction = 0.0;
  uint32_t value_size = 2;
  SimTime batch_deadline = 0;  // metadata batching window; 0 = off
  // Open loop (sessions > 0): Poisson arrivals over SessionMux sessions.
  uint64_t sessions = 0;
  double arrival_rate = 0;  // ops/s per DC
  double session_zipf = 0;
  uint32_t max_queue = 0;
  std::string arrival_plan;
  SimTime warmup = Seconds(1);
  SimTime measure = 0;
  SimTime drain = Millis(1500);
  // Clients/arrivals stop when the measure window closes, so the drain
  // phase drains.
  bool stop_at_window_end = false;

  bool open_loop() const { return sessions > 0; }
};

enum class Scale { kTimed, kCheck };

bool MakeWorkload(const std::string& name, Scale scale, bool smoke, Workload* w) {
  w->name = name;
  if (name == "geo7_full") {
    w->measure = Seconds(14);
  } else if (name == "geo7_partial_batched") {
    w->pattern = CorrelationPattern::kUniform;
    w->remote_read_fraction = 0.05;
    w->batch_deadline = Millis(1);
    w->measure = Seconds(30);
  } else if (name == "geo7_cure") {
    w->protocol = Protocol::kCure;
    w->measure = Seconds(22);
  } else if (name == "mm_flash") {
    w->clients_per_dc = 0;
    w->write_fraction = 0;
    w->value_size = FacebookMixConfig().value_size;
    w->sessions = 1000000;
    w->keys = w->sessions;  // session user ids double as keys
    w->arrival_rate = 4000;
    w->session_zipf = 0.9;
    // The flash crowds saturate the gears and the hottest sessions queue
    // 100-120 deep; 255 (the most a session slot holds) absorbs them, so no
    // arrival is shed and the queueing shows in op_latency_p99_ms instead.
    w->max_queue = 255;
    w->arrival_plan = "6000:burst:*:3:250;16000:burst:*:3:250;26000:burst:*:3:250";
    w->measure = Seconds(30);
    w->stop_at_window_end = true;
  } else {
    return false;
  }
  if (scale == Scale::kCheck) {
    // Oracle scale: the oracle's per-client state is quadratic in sessions.
    // Clients stop when the window closes and the drain lets every update
    // reach every replica.
    w->warmup = Millis(500);
    w->measure = Seconds(2);
    w->drain = Seconds(2);
    w->stop_at_window_end = true;
    if (w->open_loop()) {
      w->sessions = 5000;
      w->keys = w->sessions;
      w->arrival_plan = "1000:burst:*:3:250";
    }
  }
  if (smoke) {
    w->warmup = Millis(200);
    w->measure = scale == Scale::kCheck ? Millis(500) : Seconds(1);
    w->drain = scale == Scale::kCheck ? Seconds(1) : Millis(500);
    if (w->open_loop()) {
      w->sessions = scale == Scale::kCheck ? 2000 : 20000;
      w->keys = w->sessions;
      w->arrival_plan = "300:burst:*:3:100";
    } else {
      w->clients_per_dc = scale == Scale::kCheck ? 8 : 16;
    }
  }
  return true;
}

Json Describe(const Workload& w) {
  Json j;
  j.Str("protocol", ProtocolName(w.protocol))
      .Int("dcs", kNumEc2Regions)
      .Int("gears_per_dc", w.gears)
      .Str("replication", CorrelationPatternName(w.pattern))
      .Int("replication_degree",
           w.pattern == CorrelationPattern::kFull ? kNumEc2Regions : w.replication_degree)
      .Int("keys", w.keys)
      .Str("replica_map", w.open_loop() ? "procedural" : "generated")
      .Str("tree", w.protocol == Protocol::kSaturn ? "generated M-conf (FindConfiguration)"
                                                   : "none")
      .Num("batch_deadline_ms", static_cast<double>(w.batch_deadline) / 1000.0)
      .Num("warmup_s", ToSeconds(w.warmup))
      .Num("measure_s", ToSeconds(w.measure))
      .Num("drain_s", ToSeconds(w.drain))
      .Bool("stop_at_window_end", w.stop_at_window_end);
  if (w.open_loop()) {
    j.Str("load", "open loop, Poisson arrivals")
        .Int("sessions", w.sessions)
        .Num("arrival_rate_per_dc", w.arrival_rate)
        .Num("session_zipf", w.session_zipf)
        .Int("max_queue", w.max_queue)
        .Str("arrival_plan", w.arrival_plan)
        .Str("mix", "facebook")
        .Int("value_size", w.value_size);
  } else {
    j.Str("load", "closed loop, zero think time")
        .Int("clients_per_dc", w.clients_per_dc)
        .Num("write_fraction", w.write_fraction)
        .Num("remote_read_fraction", w.remote_read_fraction)
        .Int("value_size", w.value_size);
  }
  return j;
}

// --- Deployment -------------------------------------------------------------------

// Counts the closed-loop ops the generators hand out, by kind.
struct OpTally {
  uint64_t reads = 0;
  uint64_t updates = 0;
};

class TallyingGenerator : public OpGenerator {
 public:
  TallyingGenerator(std::unique_ptr<OpGenerator> inner, OpTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  PlannedOp Next(DcId home, Rng& rng) override {
    PlannedOp op = inner_->Next(home, rng);
    if (op.kind == PlannedOp::Kind::kUpdate) {
      ++tally_->updates;
    } else {
      ++tally_->reads;
    }
    return op;
  }

 private:
  std::unique_ptr<OpGenerator> inner_;
  OpTally* tally_;
};

SyntheticOpGenerator::Config SyntheticConfig(const Workload& w) {
  SyntheticOpGenerator::Config c;
  c.write_fraction = w.write_fraction;
  c.remote_read_fraction = w.remote_read_fraction;
  c.value_size = w.value_size;
  return c;
}

KeyspaceConfig Keyspace(const Workload& w, uint64_t seed) {
  KeyspaceConfig ks;
  ks.num_keys = w.keys;
  ks.pattern = w.pattern;
  ks.replication_degree = w.replication_degree;
  ks.seed = seed;
  return ks;
}

ReplicaMap MakeReplicas(const Workload& w, uint64_t seed) {
  // Closed-loop generators enumerate local/remote key lists, which only a
  // materialized map has; the open loop names a million keys.
  return w.open_loop() ? ReplicaMap::Procedural(Keyspace(w, seed), Ec2Sites(), Ec2Latencies())
                       : ReplicaMap::Generate(Keyspace(w, seed), Ec2Sites(), Ec2Latencies());
}

struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<OpTally> tally = std::make_unique<OpTally>();
  double setup_s = 0;
  double replica_map_s = 0;
  double tree_solve_s = 0;
  double cluster_s = 0;
};

// Setup is three spans: the replica map, the serializer-tree solve, and the
// Cluster constructor. The tree is solved here, with the inputs the Cluster
// would use for a generated tree, and handed in as a custom tree, so the
// constructor does not solve it a second time and the spans sum to setup_s.
Deployment Deploy(const Workload& w, uint64_t seed, bool oracle, bool attribution,
                  Spans* spans) {
  Deployment d;
  auto start = SteadyClock::now();
  Spans::Scope setup(spans, "setup");

  ClusterConfig config;
  config.protocol = w.protocol;
  config.dc_sites = Ec2Sites();
  config.latencies = Ec2Latencies();
  config.dc.num_gears = w.gears;
  config.dc.batch_deadline = w.batch_deadline;
  config.seed = seed;
  config.enable_oracle = oracle;
  config.trace.attribution = attribution;
  if (w.open_loop()) {
    config.open_loop.sessions = w.sessions;
    config.open_loop.arrival_rate = w.arrival_rate;
    config.open_loop.zipf_theta = w.session_zipf;
    config.open_loop.max_queue = w.max_queue;
    config.open_loop.mix.value_size = w.value_size;
    std::string error;
    if (!ParseArrivalPlan(w.arrival_plan, &config.open_loop.plan, &error)) {
      Fatal("bad arrival plan: " + error);
    }
  }

  // Runs `fn` inside a span and returns its duration.
  auto timed = [spans](const char* name, auto&& fn) {
    Spans::Scope s(spans, name);
    fn();
    return SecondsBetween(spans->at(s.id()).start, SteadyClock::now());
  };
  std::unique_ptr<ReplicaMap> replicas;
  d.replica_map_s = timed("setup.replica_map", [&] {
    replicas = std::make_unique<ReplicaMap>(MakeReplicas(w, seed));
  });
  if (w.protocol == Protocol::kSaturn) {
    d.tree_solve_s = timed("setup.tree_solve", [&] {
      SolverInput input;
      input.dc_sites = config.dc_sites;
      input.candidate_sites = config.dc_sites;
      input.latencies = &config.latencies;
      input.weights = replicas->PairWeights();
      config.custom_tree = FindConfiguration(input).topology;
      config.tree_kind = SaturnTreeKind::kCustom;
    });
  }
  d.cluster_s = timed("setup.cluster", [&] {
    GeneratorFactory factory;
    if (!w.open_loop()) {
      OpTally* tally = d.tally.get();
      SyntheticOpGenerator::Config synthetic = SyntheticConfig(w);
      factory = [tally, synthetic](const ReplicaMap& map, DcId, uint32_t) {
        return std::make_unique<TallyingGenerator>(
            std::make_unique<SyntheticOpGenerator>(&map, synthetic), tally);
      };
    }
    d.cluster = std::make_unique<Cluster>(std::move(config), std::move(*replicas),
                                          UniformClientHomes(kNumEc2Regions, w.clients_per_dc),
                                          factory);
    if (w.stop_at_window_end) {
      d.cluster->StopClientsAt(w.warmup + w.measure);
    }
  });
  d.setup_s = SecondsBetween(start, SteadyClock::now());
  return d;
}

// --- Run outcome --------------------------------------------------------------------

struct OpCounts {
  uint64_t ops = 0;        // client ops completed during Run
  uint64_t attempted = 0;  // ops the load generator started or refused
  uint64_t failed = 0;     // refused (shed) or never finished (backlog)
  // Open loop only: arrivals still queued when the generator stopped, which
  // SessionMux::Stop drops before they are sent. Not attempts.
  uint64_t cancelled_at_stop = 0;
  uint64_t arrivals = 0;
  uint64_t shed = 0;
  uint64_t backlog = 0;
  uint64_t migrations = 0;
  uint32_t max_queue_depth = 0;
};

OpCounts CountOps(const Cluster& c) {
  OpCounts n;
  if (!c.session_muxes().empty()) {
    for (const auto& mux : c.session_muxes()) {
      n.ops += mux->ops_completed();
      n.arrivals += mux->arrivals();
      n.shed += mux->shed();
      n.backlog += mux->backlog();
      n.migrations += mux->migrations();
      n.max_queue_depth = std::max(n.max_queue_depth, mux->max_queue_depth());
    }
    n.attempted = n.ops + n.shed + n.backlog;
    n.failed = n.shed + n.backlog;
    n.cancelled_at_stop = n.arrivals - n.attempted;
    return n;
  }
  for (const auto& client : c.clients()) {
    n.ops += client->ops_completed();
    n.migrations += client->migrations();
  }
  // A closed-loop client waits for each reply: nothing is refused, and the
  // op in flight when Run ends is cut off by the end of the run, not lost.
  n.attempted = n.ops;
  return n;
}

// Share of ops that are updates: counted for the closed loop. SessionMux does
// not count its updates, so the open loop reports the Facebook mix's
// expected share.
double UpdateShare(const Cluster& c, const Deployment& d) {
  if (!c.session_muxes().empty()) {
    FacebookMixConfig mix;
    return (mix.write_own + mix.write_friend) /
           (mix.browse_friend + mix.browse_own + mix.universal_search + mix.write_own +
            mix.write_friend);
  }
  uint64_t total = d.tally->reads + d.tally->updates;
  return total == 0 ? 0.0 : static_cast<double>(d.tally->updates) / static_cast<double>(total);
}

// Quantile q, interpolated linearly inside the histogram bucket that holds
// it. LatencyHistogram::PercentileMs returns the bucket's upper bound; above
// 1 ms buckets are ~1.6% wide, so that bound would read the same for nearly
// every seed and hide any change smaller than a bucket.
double InterpolatedPercentileMs(const LatencyHistogram& h, double q) {
  double below = 0;
  for (const auto& [upper_ms, cumulative] : h.CdfPointsMs()) {
    if (cumulative >= q) {
      int64_t upper = std::llround(upper_ms * 1000.0);
      double lower =
          static_cast<double>(LatencyHistogram::BucketLowerBound(LatencyHistogram::BucketFor(upper)));
      double fraction = (q - below) / (cumulative - below);
      double value = lower + fraction * (static_cast<double>(upper + 1) - lower);
      return std::min(value, static_cast<double>(h.MaxUs())) / 1000.0;
    }
    below = cumulative;
  }
  return static_cast<double>(h.MaxUs()) / 1000.0;
}

Json Percentiles(const LatencyHistogram& h) {
  Json j;
  j.Num("p50_ms", InterpolatedPercentileMs(h, 0.50))
      .Num("p99_ms", InterpolatedPercentileMs(h, 0.99))
      .Int("n", h.count());
  return j;
}

// Everything the simulation decided. Deterministic for a seed, so run.py
// requires every repeat to report it byte for byte.
Json SimulatedOutcome(Cluster& c, const Deployment& d) {
  OpCounts n = CountOps(c);
  obs::MetricsSnapshot snap = c.metrics_registry().Snapshot();
  const Network& net = c.network();
  Json wire;
  for (uint32_t i = 0; i < kNumLinkClasses; ++i) {
    LinkClass cls = static_cast<LinkClass>(i);
    wire.Int(LinkClassName(cls), net.wire_bytes(cls));
  }
  int64_t retransmissions = snap.Scalar("tree.link_retransmissions");
  for (DcId dc = 0; dc < c.num_dcs(); ++dc) {
    retransmissions += snap.Scalar("dc" + std::to_string(dc) + ".link_retransmissions");
  }
  LatencyHistogram queue_wait;
  for (const auto& mux : c.session_muxes()) {
    queue_wait.Merge(*mux->queue_wait());
  }
  Json j;
  j.Int("executed_events", c.sim().executed_events())
      .Int("ops", n.ops)
      .Int("attempted", n.attempted)
      .Int("failed", n.failed)
      .Int("cancelled_at_stop", n.cancelled_at_stop)
      .Int("arrivals", n.arrivals)
      .Int("shed", n.shed)
      .Int("backlog", n.backlog)
      .Int("max_queue_depth", n.max_queue_depth)
      .Int("migrations", n.migrations)
      .Int("reads_generated", d.tally->reads)
      .Int("updates_generated", d.tally->updates)
      .Num("update_share", UpdateShare(c, d))
      .Num("mean_replication_degree", c.replicas().MeanDegree())
      .Num("throughput_ops", c.metrics().ThroughputOpsPerSec())
      .Obj("visibility", Percentiles(c.metrics().AllVisibility()))
      .Obj("op_latency", Percentiles(c.metrics().OpLatency()))
      .Obj("attach_latency", Percentiles(c.metrics().AttachLatency()))
      .Obj("queue_wait", Percentiles(queue_wait))
      .Int("net_messages", net.messages_sent())
      .Int("net_bytes", net.bytes_sent())
      .Obj("wire_bytes", wire)
      .Int("tree_labels_routed", static_cast<uint64_t>(snap.Scalar("tree.labels_routed")))
      .Int("link_retransmissions", static_cast<uint64_t>(retransmissions));
  return j;
}

Json SetupTimes(const Deployment& d) {
  Json j;
  j.Num("setup_s", d.setup_s)
      .Num("replica_map_s", d.replica_map_s)
      .Num("tree_solve_s", d.tree_solve_s)
      .Num("cluster_s", d.cluster_s);
  return j;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Modes ------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::string mode = "run";
  uint64_t seed = 42;
  bool smoke = false;
  size_t heap_depth = 0;
  std::string spans_path;
  std::string run_id;
};

// Wall-clock slice markers: an event every kSlice of simulated time reads the
// steady clock and the event-heap depth. The simulation is deterministic, so
// slice i does the same work in every repeat at one seed, and run.py compares
// repeats slice by slice. The markers change nothing else; the run and
// traced modes both add them, one executed event each.
constexpr SimTime kSlice = Millis(100);

struct TimedRun {
  std::vector<SteadyClock::time_point> marks;  // Run start, each marker, Run end
  std::vector<size_t> heap_depth;              // at each marker
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;

  double wall_s() const { return SecondsBetween(marks.front(), marks.back()); }
  // Wall seconds between consecutive marks, as a JSON array.
  std::string SliceWalls() const {
    std::string out = "[";
    for (size_t i = 1; i < marks.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.9f", i > 1 ? ", " : "",
                    SecondsBetween(marks[i - 1], marks[i]));
      out += buf;
    }
    return out + "]";
  }
};

void RunTimed(const Workload& w, Cluster& c, Spans* spans, TimedRun* t) {
  SimTime end = w.warmup + w.measure + w.drain;
  if (w.warmup % kSlice != 0 || w.measure % kSlice != 0) {
    Fatal("windows must be whole slices");
  }
  t->marks.reserve(static_cast<size_t>(end / kSlice) + 2);
  t->heap_depth.reserve(static_cast<size_t>(end / kSlice));
  Simulator* sim = &c.sim();
  for (SimTime at = kSlice; at < end; at += kSlice) {
    sim->At(at, [t, sim]() {
      t->marks.push_back(SteadyClock::now());
      t->heap_depth.push_back(sim->pending_events());
    });
  }
  uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  t->marks.push_back(SteadyClock::now());
  c.Run(w.warmup, w.measure, w.drain);
  t->marks.push_back(SteadyClock::now());
  t->allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  t->alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;

  SteadyClock::time_point measure_start = t->marks[static_cast<size_t>(w.warmup / kSlice)];
  SteadyClock::time_point drain_start =
      t->marks[static_cast<size_t>((w.warmup + w.measure) / kSlice)];
  int run = spans->Add("run", t->marks.front(), t->marks.back(), -1);
  spans->Add("run.warmup", t->marks.front(), measure_start, run);
  spans->Add("run.measure", measure_start, drain_start, run);
  spans->Add("run.drain", drain_start, t->marks.back(), run);
}

Json RunMode(const Workload& w, const Options& o, Spans* spans) {
  Deployment d = Deploy(w, o.seed, /*oracle=*/false, /*attribution=*/false, spans);
  TimedRun t;
  RunTimed(w, *d.cluster, spans, &t);
  Json j;
  j.Obj("setup", SetupTimes(d))
      .Num("run_wall_s", t.wall_s())
      .Num("peak_rss_mb", PeakRssMb())
      .Int("allocs", t.allocs)
      .Int("alloc_bytes", t.alloc_bytes)
      .Raw("slice_wall_s", t.SliceWalls())
      .Obj("sim", SimulatedOutcome(*d.cluster, d));
  return j;
}

Json SetupMode(const Workload& w, const Options& o, Spans* spans) {
  Deployment d = Deploy(w, o.seed, /*oracle=*/false, /*attribution=*/false, spans);
  Json j;
  j.Obj("setup", SetupTimes(d));
  return j;
}

// The same run with the attribution profiler on. It only observes, so the
// run executes exactly the events of an untraced one (run.py checks).
Json TracedMode(const Workload& w, const Options& o, Spans* spans) {
  Deployment d = Deploy(w, o.seed, /*oracle=*/false, /*attribution=*/true, spans);
  Cluster& c = *d.cluster;
  TimedRun t;
  RunTimed(w, c, spans, &t);
  const obs::AttributionProfiler& attr = *c.attribution();
  Json phases;
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    obs::Phase phase = static_cast<obs::Phase>(p);
    phases.Num(obs::PhaseKey(phase), InterpolatedPercentileMs(*attr.phase_histogram(phase), 0.99));
  }
  // The warm-up is slices [0, measure_slice), the measure window
  // [measure_slice, drain_slice), the drain the rest.
  Json j;
  j.Obj("setup", SetupTimes(d))
      .Num("run_wall_s", t.wall_s())
      .Raw("slice_wall_s", t.SliceWalls())
      .Int("measure_slice", static_cast<uint64_t>(w.warmup / kSlice))
      .Int("drain_slice", static_cast<uint64_t>((w.warmup + w.measure) / kSlice))
      .Int("heap_depth", t.heap_depth[static_cast<size_t>(w.warmup / kSlice) - 1])
      .Int("executed_events", c.sim().executed_events())
      .Int("attribution_samples", attr.samples())
      .Obj("attribution_p99_ms", phases);
  return j;
}

// Short run with the causality oracle. Clients stop at the end of the
// window and the drain lets every update reach every replica, so any
// violation, missing replica or leftover backlog is a bug.
Json CheckMode(const Workload& w, const Options& o, Spans* spans, bool* ok) {
  Deployment d = Deploy(w, o.seed, /*oracle=*/true, /*attribution=*/false, spans);
  Cluster& c = *d.cluster;
  {
    Spans::Scope s(spans, "run");
    c.Run(w.warmup, w.measure, w.drain);
  }
  OpCounts n = CountOps(c);
  const CausalityOracle& oracle = *c.oracle();
  std::vector<std::string> missing = oracle.MissingReplicas();
  *ok = oracle.Clean() && missing.empty() && n.backlog == 0 && n.ops > 0;
  Json j;
  j.Bool("ok", *ok)
      .Int("ops", n.ops)
      .Int("violations", oracle.violations().size())
      .Int("missing_replicas", missing.size())
      .Int("backlog", n.backlog)
      .Str("first_problem", !oracle.Clean() ? oracle.violations().front()
                            : !missing.empty() ? missing.front()
                                               : "");
  return j;
}

// --- Probes -----------------------------------------------------------------------
//
// Each probe times direct calls into one layer with inputs shaped by the
// workload, in batches, and reports the median batch's ns per call.

// Runs `batches` batches; `batch` returns the timed ns of one batch of `calls`.
template <typename BatchFn>
double MedianNsPerCall(int batches, uint64_t calls, BatchFn&& batch) {
  std::vector<double> per_call;
  for (int i = 0; i < batches; ++i) {
    per_call.push_back(batch() / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

template <typename Fn>
double TimeNs(Fn&& fn) {
  auto start = SteadyClock::now();
  fn();
  return std::chrono::duration<double, std::nano>(SteadyClock::now() - start).count();
}

// Drops every message: the destinations of the probes' direct sends.
class SinkActor : public Actor {
 public:
  void HandleMessage(NodeId, const Message&) override {}
};

// A serializer's tree neighbour: acknowledges every envelope and batch it
// receives, as a remote proxy or parent serializer would.
class AckingPeer : public Actor {
 public:
  explicit AckingPeer(Network* net) : net_(net) {}
  void HandleMessage(NodeId from, const Message& msg) override {
    if (const auto* env = std::get_if<LabelEnvelope>(&msg)) {
      net_->Send(node_id(), from, LinkAck{env->link_seq});
    } else if (const auto* batch = std::get_if<LabelBatch>(&msg)) {
      net_->Send(node_id(), from, LinkAck{batch->first_seq + batch->count - 1});
    }
  }

 private:
  Network* net_;
};

// Update-label envelopes as a serializer sees them: sources spread over the
// DCs' gears, timestamps a few hundred microseconds apart, interest sets from
// the workload's replica map.
std::vector<LabelEnvelope> WorkloadEnvelopes(const Workload& w, const ReplicaMap& replicas,
                                             size_t count, Rng& rng) {
  std::vector<LabelEnvelope> envs(count);
  int64_t ts = 1000000;
  for (size_t i = 0; i < count; ++i) {
    LabelEnvelope& e = envs[i];
    KeyId key = rng.NextBounded(replicas.num_keys());
    ts += static_cast<int64_t>(rng.NextBounded(400));
    e.label.type = LabelType::kUpdate;
    e.label.src = MakeSourceId(static_cast<DcId>(rng.NextBounded(kNumEc2Regions)),
                               static_cast<uint32_t>(rng.NextBounded(w.gears)));
    e.label.ts = ts;
    e.label.target_key = key;
    e.label.uid = (i + 1) * 8;
    e.interest = replicas.ReplicasOf(key);
  }
  return envs;
}

// Messages in the mix the workload puts on the wire: client requests and
// replies, bulk payloads, and metadata (labels, or label batches when the
// workload batches; Cure's stable vectors instead).
std::vector<Message> WorkloadMessages(const Workload& w, const std::vector<LabelEnvelope>& envs) {
  std::vector<Message> msgs;
  DcVec vec;
  if (w.protocol == Protocol::kCure) {
    vec.assign(kNumEc2Regions, 1000000);
  }
  for (size_t i = 0; i < 64; ++i) {
    ClientRequest req;
    req.op = i % 10 == 0 ? ClientOpType::kUpdate : ClientOpType::kRead;
    req.key = envs[i].label.target_key;
    req.value_size = w.value_size;
    req.client_vector = vec;
    msgs.emplace_back(req);
    ClientResponse resp;
    resp.value_size = w.value_size;
    resp.dep_vector = vec;
    msgs.emplace_back(resp);
    RemotePayload payload;
    payload.label = envs[i].label;
    payload.value_size = w.value_size;
    payload.dep_vector = vec;
    msgs.emplace_back(payload);
    if (w.protocol == Protocol::kCure) {
      StableVectorBroadcast sv;
      sv.stable = vec;
      msgs.emplace_back(sv);
    } else if (w.batch_deadline > 0) {
      LabelBatchEncoder enc;
      for (size_t k = 0; k < 8; ++k) {
        enc.Add(envs[(i + k) % envs.size()]);
      }
      LabelBatch batch;
      batch.first_seq = i + 1;
      batch.count = enc.count();
      batch.bytes = enc.Take();
      msgs.emplace_back(batch);
    } else {
      msgs.emplace_back(envs[i]);
    }
  }
  return msgs;
}

Json ProbeMode(const Workload& w, const Options& o, Spans* spans) {
  const int batches = o.smoke ? 3 : 9;
  const uint64_t calls = o.smoke ? 2000 : 20000;
  Rng rng(o.seed ^ 0x9e0be5u);
  ReplicaMap replicas = MakeReplicas(w, o.seed);
  std::vector<LabelEnvelope> envs = WorkloadEnvelopes(w, replicas, 4096, rng);
  volatile uint64_t sink = 0;  // keeps probed results observable
  Json j;

  // Simulator::At + Step at the heap depth the traced run saw when the
  // measure window opened, with delays spread over a wide-area round trip.
  {
    Spans::Scope s(spans, "probe.sim");
    size_t depth = o.heap_depth > 0 ? o.heap_depth : 1024;
    Simulator sim;
    uint64_t fired = 0;
    std::vector<SimTime> delays(4096);
    for (SimTime& d : delays) {
      d = 1 + static_cast<SimTime>(rng.NextBounded(Millis(200)));
    }
    for (size_t i = 0; i < depth; ++i) {
      sim.At(delays[i % delays.size()], [&fired]() { ++fired; });
    }
    double ns = MedianNsPerCall(batches, calls, [&]() {
      return TimeNs([&]() {
        for (uint64_t i = 0; i < calls; ++i) {
          sim.Step();
          sim.After(delays[i & 4095], [&fired]() { ++fired; });
        }
      });
    });
    sink = sink + fired;
    j.Num("sim.ns_per_event", ns);
  }

  // Network::Send of the workload's message mix between the seven sites;
  // deliveries run untimed between batches. Self time: Send schedules each
  // delivery with Simulator::At, which sim.ns_per_event already charges, so
  // each batch then times as many bare At calls with the same delays on an
  // empty simulator, and that child cost is subtracted.
  {
    Spans::Scope s(spans, "probe.net");
    Simulator sim;
    Simulator bare;
    LatencyMatrix latencies = Ec2Latencies();
    Network net(&sim, latencies);
    std::vector<SiteId> sites = Ec2Sites();
    std::vector<std::unique_ptr<SinkActor>> sinks;
    for (SiteId site : sites) {
      sinks.push_back(std::make_unique<SinkActor>());
      net.Attach(sinks.back().get(), site);
    }
    std::vector<Message> msgs = WorkloadMessages(w, envs);
    // Every ordered pair of distinct sites in turn.
    auto pair = [&sites](uint64_t n) {
      size_t a = n % sites.size();
      return std::make_pair(a, (a + 1 + (n / sites.size()) % (sites.size() - 1)) % sites.size());
    };
    uint64_t n = 0;
    uint64_t fired = 0;
    double ns = MedianNsPerCall(batches, calls, [&]() {
      uint64_t n0 = n;
      double inclusive = TimeNs([&]() {
        for (uint64_t i = 0; i < calls; ++i, ++n) {
          auto [a, b] = pair(n);
          net.Send(sinks[a]->node_id(), sinks[b]->node_id(), msgs[n % msgs.size()]);
        }
      });
      sim.RunAll();
      double child = TimeNs([&]() {
        for (uint64_t m = n0; m < n; ++m) {
          auto [a, b] = pair(m);
          bare.At(bare.Now() + latencies.Get(sites[a], sites[b]), [&fired]() { ++fired; });
        }
      });
      bare.RunAll();
      return inclusive - child;
    });
    sink = sink + fired;
    j.Num("net.ns_per_send", ns);
  }

  // Label codec: batches closed at the batching plane's default bounds.
  {
    Spans::Scope s(spans, "probe.codec");
    LinkBatchConfig limits;
    std::vector<BatchBytes> frames;
    double encode = MedianNsPerCall(batches, envs.size(), [&]() {
      frames.clear();
      return TimeNs([&]() {
        LabelBatchEncoder enc;
        for (const LabelEnvelope& env : envs) {
          enc.Add(env);
          if (enc.count() >= limits.max_labels || enc.size() >= limits.max_bytes) {
            frames.push_back(enc.Take());
          }
        }
        if (enc.count() > 0) {
          frames.push_back(enc.Take());
        }
      });
    });
    uint64_t decoded = 0;
    double decode = MedianNsPerCall(batches, envs.size(), [&]() {
      return TimeNs([&]() {
        LabelEnvelope env;
        for (const BatchBytes& frame : frames) {
          LabelBatchDecoder dec(frame.data(), frame.size());
          while (dec.Next(&env)) {
            ++decoded;
          }
        }
      });
    });
    sink = sink + decoded;
    j.Num("codec.ns_per_label_encode", encode).Num("codec.ns_per_label_decode", decode);
  }

  // Serializer: labels arrive on one tree link and are routed to the other
  // two by interest. Self time: each batch then times the same number of
  // sends of the same frame type straight through the network, and that
  // child cost is subtracted.
  {
    Spans::Scope s(spans, "probe.serializer");
    Simulator sim;
    Network net(&sim, Ec2Latencies());
    Serializer serializer(&sim, &net, kIreland, /*replicas=*/1);
    serializer.ConfigureBatching({32, 1024, w.batch_deadline});
    net.Attach(&serializer, kIreland);
    std::vector<std::unique_ptr<AckingPeer>> peers;
    const DcSet reach[3] = {DcSet::FirstN(3), DcSet::FirstN(5).Minus(DcSet::FirstN(3)),
                            DcSet::FirstN(7).Minus(DcSet::FirstN(5))};
    const SiteId peer_site[3] = {kNVirginia, kFrankfurt, kTokyo};
    for (int p = 0; p < 3; ++p) {
      peers.push_back(std::make_unique<AckingPeer>(&net));
      net.Attach(peers.back().get(), peer_site[p]);
      serializer.AddLink({peers.back()->node_id(), reach[p], 0});
    }
    SinkActor calibration_sink;
    net.Attach(&calibration_sink, kFrankfurt);
    Message frame = envs[0];
    if (w.batch_deadline > 0) {
      LabelBatchEncoder enc;
      for (size_t k = 0; k < 32; ++k) {
        enc.Add(envs[k]);
      }
      LabelBatch batch;
      batch.count = enc.count();
      batch.bytes = enc.Take();
      frame = batch;
    }
    NodeId ingress = peers[0]->node_id();
    uint64_t seq = 0;
    double ns = MedianNsPerCall(batches, calls, [&]() {
      uint64_t sent0 = net.messages_sent();
      double inclusive = TimeNs([&]() {
        for (uint64_t i = 0; i < calls; ++i) {
          LabelEnvelope env = envs[seq % envs.size()];
          env.link_seq = ++seq;
          serializer.HandleMessage(ingress, env);
        }
      });
      uint64_t sends = net.messages_sent() - sent0;
      sim.RunUntil(sim.Now() + Seconds(1));  // deliver, acknowledge, flush
      double child = TimeNs([&]() {
        for (uint64_t i = 0; i < sends; ++i) {
          net.Send(serializer.node_id(), calibration_sink.node_id(), frame);
        }
      });
      sim.RunUntil(sim.Now() + Seconds(1));
      return inclusive - child;
    });
    sink = sink + serializer.routed();
    j.Num("serializer.ns_per_label", ns);
  }

  // Store: Get/Put on one DC's partitioned store holding the whole keyspace
  // (10k keys for the geo7 workloads, 1M for mm_flash).
  {
    Spans::Scope s(spans, "probe.kvstore");
    PartitionedStore store(w.gears);
    for (KeyId k = 0; k < w.keys; ++k) {
      store.PartitionFor(k).Put(k, {w.value_size, Label{LabelType::kUpdate, 0, 0, k, 0, k}});
    }
    std::vector<KeyId> keys(65536);
    for (KeyId& k : keys) {
      k = rng.NextBounded(w.keys);
    }
    uint64_t found = 0;
    double get = MedianNsPerCall(batches, calls, [&]() {
      return TimeNs([&]() {
        for (uint64_t i = 0; i < calls; ++i) {
          KeyId k = keys[i & 65535];
          found += store.PartitionFor(k).Get(k) != nullptr;
        }
      });
    });
    int64_t ts = 1;
    double put = MedianNsPerCall(batches, calls, [&]() {
      return TimeNs([&]() {
        for (uint64_t i = 0; i < calls; ++i) {
          KeyId k = keys[i & 65535];
          Label label{LabelType::kUpdate, 0, ++ts, k, 0, k};
          found += store.PartitionFor(k).Put(k, {w.value_size, label});
        }
      });
    });
    sink = sink + found;
    j.Num("kvstore.ns_per_get", get).Num("kvstore.ns_per_put", put);
  }

  // Workload generation: the closed loop's op generator, or the open loop's
  // per-arrival work (Zipf session draw, mix draw, friend lookup). The graph
  // has one user per key.
  {
    Spans::Scope s(spans, "probe.workload");
    StreamingGraphConfig gc;
    gc.num_users = static_cast<uint32_t>(w.keys);
    gc.seed = o.seed ^ 0x57ea619eull;
    StreamingSocialGraph graph(gc);
    double generate = 0;
    if (w.open_loop()) {
      uint64_t slots = w.sessions / kNumEc2Regions;
      ZipfSampler zipf(slots, w.session_zipf);
      FacebookMixConfig mix;
      double browse_friend = mix.browse_friend /
                             (mix.browse_friend + mix.browse_own + mix.universal_search +
                              mix.write_own + mix.write_friend);
      generate = MedianNsPerCall(batches, calls, [&]() {
        return TimeNs([&]() {
          for (uint64_t i = 0; i < calls; ++i) {
            uint32_t user = static_cast<uint32_t>(zipf.Sample(rng) * kNumEc2Regions);
            KeyId key = user;
            if (rng.NextDouble() < browse_friend) {
              key = graph.NeighborOf(
                  user, static_cast<uint32_t>(rng.NextBounded(graph.DegreeOf(user))));
            }
            sink = sink + key;
          }
        });
      });
    } else {
      SyntheticOpGenerator gen(&replicas, SyntheticConfig(w));
      generate = MedianNsPerCall(batches, calls, [&]() {
        return TimeNs([&]() {
          for (uint64_t i = 0; i < calls; ++i) {
            sink = sink + gen.Next(static_cast<DcId>(i % kNumEc2Regions), rng).key;
          }
        });
      });
    }
    std::vector<uint32_t> friends;
    double friends_of = MedianNsPerCall(batches, calls / 10, [&]() {
      return TimeNs([&]() {
        for (uint64_t i = 0; i < calls / 10; ++i) {
          graph.FriendsOf(static_cast<uint32_t>(rng.NextBounded(gc.num_users)), &friends);
          sink = sink + friends.size();
        }
      });
    });
    double replicas_of = MedianNsPerCall(batches, calls, [&]() {
      return TimeNs([&]() {
        for (uint64_t i = 0; i < calls; ++i) {
          sink = sink + replicas.ReplicasOf(rng.NextBounded(w.keys)).Size();
        }
      });
    });
    j.Num("workload.ns_per_op_generated", generate)
        .Num("workload.ns_per_friends_of", friends_of)
        .Num("workload.ns_per_replicas_of", replicas_of);
  }

  // LatencyHistogram::Record of visibility-like latencies (tens to hundreds
  // of milliseconds, exponential tail).
  {
    Spans::Scope s(spans, "probe.stats");
    std::vector<int64_t> values(4096);
    for (int64_t& v : values) {
      v = Millis(10) + static_cast<int64_t>(rng.NextExponential(static_cast<double>(Millis(80))));
    }
    LatencyHistogram h;
    double record = MedianNsPerCall(batches, calls, [&]() {
      return TimeNs([&]() {
        for (uint64_t i = 0; i < calls; ++i) {
          h.Record(values[i & 4095]);
        }
      });
    });
    sink = sink + h.count();
    j.Num("stats.ns_per_record", record);
  }
  return j;
}

// --- Main -------------------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: saturn_bench --workload NAME [--mode run|setup|traced|probe|check|"
               "describe]\n"
               "                    [--seed N] [--smoke] [--heap-depth N] [--spans PATH]\n"
               "                    [--run-id ID]\n"
               "workloads: geo7_full geo7_partial_batched geo7_cure mm_flash\n");
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    uint64_t number = 0;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--mode" && has_value) {
      o.mode = argv[++i];
    } else if (arg == "--seed" && has_value && ParseUint(argv[i + 1], &number)) {
      o.seed = number;
      ++i;
    } else if (arg == "--heap-depth" && has_value && ParseUint(argv[i + 1], &number)) {
      o.heap_depth = number;
      ++i;
    } else if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (arg == "--run-id" && has_value) {
      o.run_id = argv[++i];
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      Usage();
      return 2;
    }
  }
  Scale scale = o.mode == "check" ? Scale::kCheck : Scale::kTimed;
  Workload w;
  if (!MakeWorkload(o.workload, scale, o.smoke, &w)) {
    Usage();
    return 2;
  }
  if (o.run_id.empty()) {
    o.run_id = w.name + ":" + o.mode + ":seed" + std::to_string(o.seed);
  }

  Spans spans;
  Json out;
  out.Str("workload", w.name).Str("mode", o.mode).Int("seed", o.seed).Bool("smoke", o.smoke);
  bool ok = true;
  if (o.mode == "run") {
    out.Obj("result", RunMode(w, o, &spans));
  } else if (o.mode == "setup") {
    out.Obj("result", SetupMode(w, o, &spans));
  } else if (o.mode == "traced") {
    out.Obj("result", TracedMode(w, o, &spans));
  } else if (o.mode == "probe") {
    out.Obj("result", ProbeMode(w, o, &spans));
  } else if (o.mode == "check") {
    out.Obj("result", CheckMode(w, o, &spans, &ok));
  } else if (o.mode == "describe") {
    out.Obj("result", Describe(w));
  } else {
    Usage();
    return 2;
  }
  if (!o.spans_path.empty()) {
    spans.Write(o.spans_path, o.run_id);
  }
  std::printf("%s\n", out.Text().c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace saturn

int main(int argc, char** argv) { return saturn::Main(argc, argv); }
