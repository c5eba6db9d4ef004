// Cluster builder: assembles a complete simulated deployment — network,
// datacenters running one of the consistency protocols, Saturn's metadata
// service when applicable, and closed-loop clients — and runs experiments
// with warm-up / measurement windows (paper section 7, "Setup").
#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/cops_dc.h"
#include "src/baselines/cure_dc.h"
#include "src/baselines/eventual_dc.h"
#include "src/baselines/gentlerain_dc.h"
#include "src/core/datacenter.h"
#include "src/core/metrics.h"
#include "src/core/oracle.h"
#include "src/fault/drift_plan.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/obs/attribution.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/runtime/realtime.h"
#include "src/runtime/regions.h"
#include "src/saturn/config_generator.h"
#include "src/saturn/metadata_service.h"
#include "src/saturn/reconfig_controller.h"
#include "src/saturn/saturn_dc.h"
#include "src/saturn/topology_monitor.h"
#include "src/workload/client.h"
#include "src/workload/replication.h"
#include "src/workload/session_mux.h"
#include "src/workload/streaming_graph.h"

namespace saturn {

enum class Protocol {
  kEventual,
  kSaturn,           // serializer tree
  kSaturnTimestamp,  // peer-to-peer Saturn, timestamp-order only (P-conf)
  kGentleRain,
  kCure,
  kCops,             // explicit dependency checking (COPS/Eiger style)
};

const char* ProtocolName(Protocol protocol);

enum class SaturnTreeKind {
  kGenerated,  // Algorithm 3 + solver (the M-configuration)
  kStar,       // single serializer at `star_hub` (the S-configuration)
  kCustom,     // caller-provided topology
};

// Dynamic geo-topology plane (Saturn protocol only): probe-based latency
// measurement, RTT-adaptive failure detection, and the online
// tree-reconfiguration control loop. Off by default — enabling it adds probe
// traffic and controller events, so static experiments (Fig. 5/6) keep their
// exact schedules.
struct DynamicTopologyConfig {
  bool enabled = false;
  TopologyMonitorConfig monitor;
  ReconfigControllerConfig controller;
  // When true, every Saturn datacenter's whole-stream-silence threshold
  // becomes max(fallback_timeout, rtt_multiplier * measured max RTT) instead
  // of the static fallback_timeout, so legitimate latency drift does not trip
  // false failovers.
  bool adaptive_detector = true;
  double rtt_multiplier = 3.0;
  // Datacenters deployed *deferred*: they replicate over the bulk channel
  // from t=0 (peer-to-peer timestamp mode, clients parked) but are not part
  // of the initial tree; a drift-plan join event (or RequestJoin on the
  // controller) brings them into the metadata service live.
  std::vector<DcId> deferred_dcs;
};

// Execution backend. kSim is the deterministic single-threaded simulator —
// the correctness oracle, with reproducible executed-event fingerprints.
// kRealtime drives the same actors wall-clock on a worker pool: every
// datacenter, client group and the serializer tree runs on its own scheduler
// lane. Realtime runs are not reproducible and reject tracing and dynamic
// topology.
enum class ExecBackend {
  kSim,
  kRealtime,
};

// Open-loop workload engine: one SessionMux per datacenter multiplexing
// `sessions` logical sessions (user u homed at DC u % n) over a streaming
// power-law social graph. Session user ids double as key ids, so the
// cluster's ReplicaMap must cover at least `sessions` keys. Off (sessions ==
// 0) leaves the closed-loop Client path byte-identical. Only label-only
// protocols (scalar / Saturn modes) are supported.
struct OpenLoopConfig {
  uint64_t sessions = 0;
  // Offered load per datacenter, ops/sec (open-loop: an input, not a result).
  double arrival_rate = 1000;
  // Session-popularity skew (0 = uniform arrivals over sessions).
  double zipf_theta = 0;
  // Per-session queue depth before arrivals are shed.
  uint32_t max_queue = 8;
  // Streaming graph attachment parameter (mean degree = 2m).
  uint32_t edges_per_node = 15;
  FacebookMixConfig mix;
  // Scripted traffic shape (flash crowds, diurnal curves, regional
  // imbalance); empty = steady arrival_rate.
  ArrivalPlan plan;
};

struct ClusterConfig {
  Protocol protocol = Protocol::kSaturn;
  ExecBackend backend = ExecBackend::kSim;
  RealtimeOptions realtime;  // used when backend == kRealtime
  std::vector<SiteId> dc_sites = Ec2Sites();
  LatencyMatrix latencies = Ec2Latencies();
  NetworkConfig net;
  DatacenterConfig dc;  // template; id is overwritten per datacenter

  SaturnTreeKind tree_kind = SaturnTreeKind::kGenerated;
  SiteId star_hub = kIreland;
  TreeTopology custom_tree;
  uint32_t chain_replicas = 1;
  // Weight the tree solver by shared-key traffic instead of uniformly.
  bool weighted_tree = true;

  // COPS: prune client contexts after updates (sound under full replication
  // only; the bench cops_metadata shows what happens when it must be off).
  bool cops_prune = true;

  bool enable_oracle = false;
  uint64_t seed = 42;

  // Observability: with trace.enabled the cluster owns a TraceRecorder and
  // threads it through every component. Tracing never schedules simulator
  // events, so enabling it cannot change the executed-event fingerprint.
  // trace.attribution additionally decomposes sampled journeys into
  // visibility phases (same recorder, same zero-cost contract).
  obs::TraceConfig trace;

  // Windowed time-series telemetry: > 0 samples the metrics registry every
  // `timeseries_window` of sim time (deterministic backend only). Sampling
  // observes event timestamps without scheduling anything, so the
  // executed-event fingerprint is identical with it on or off.
  SimTime timeseries_window = 0;

  DynamicTopologyConfig dynamic;

  OpenLoopConfig open_loop;
};

// Builds the op generator of one client. Invoked with the *cluster's* replica
// map (which outlives the clients), the client's home and its global index.
using GeneratorFactory =
    std::function<std::unique_ptr<OpGenerator>(const ReplicaMap&, DcId, uint32_t)>;

// One row of experiment output.
struct ExperimentResult {
  double throughput_ops = 0;         // reads+updates per second, all DCs
  double mean_visibility_ms = 0;     // remote-update visibility, mean
  double p90_visibility_ms = 0;
  double p99_visibility_ms = 0;
  double mean_op_latency_ms = 0;     // client-perceived
  double mean_attach_ms = 0;         // attach/migration round-trips
  uint64_t remote_updates = 0;
  uint64_t net_messages = 0;           // total messages delivered on the wire
  uint64_t net_bytes = 0;              // total wire bytes, every traffic class
  uint64_t metadata_wire_bytes = 0;    // labels + acks only (Saturn's metadata plane)
};

class Cluster {
 public:
  // `client_homes[i]` is the preferred datacenter of client i.
  Cluster(ClusterConfig config, ReplicaMap replicas, std::vector<DcId> client_homes,
          const GeneratorFactory& generator_factory);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs warm-up, measures for `measure`, then drains in-flight visibility.
  // May be called once per cluster.
  ExperimentResult Run(SimTime warmup, SimTime measure, SimTime drain = Seconds(2));

  // Installs a fault plan to be injected during Run(). Call before Run().
  void InstallFaultPlan(const FaultPlan& plan);

  // Installs a drift plan: latency trajectories are scheduled directly on the
  // network; join/leave events are handed to the reconfiguration controller
  // (which requires config.dynamic.enabled). Call before Run().
  void InstallDriftPlan(const DriftPlan& plan);

  // Stops every client (after its in-flight operation) at `when`. Fault
  // experiments use this to leave quiescent time for recovery and the
  // liveness check before the run ends.
  void StopClientsAt(SimTime when);

  // Null unless InstallFaultPlan was called.
  FaultInjector* fault_injector() { return injector_.get(); }

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  Network& network() { return *net_; }
  const Network& network() const { return *net_; }
  Metrics& metrics() { return *metrics_; }
  const Metrics& metrics() const { return *metrics_; }
  CausalityOracle* oracle() { return oracle_.get(); }
  const CausalityOracle* oracle() const { return oracle_.get(); }
  const ReplicaMap& replicas() const { return replicas_; }
  MetadataService* metadata_service() { return metadata_.get(); }
  const TreeTopology& tree() const { return tree_; }
  // Null unless config.dynamic.enabled (Saturn protocol).
  TopologyMonitor* topology_monitor() { return monitor_.get(); }
  ReconfigController* reconfig_controller() { return controller_.get(); }

  uint32_t num_dcs() const { return static_cast<uint32_t>(config_.dc_sites.size()); }
  DatacenterBase* dc(DcId id) { return datacenters_[id].get(); }
  SaturnDc* saturn_dc(DcId id);
  const std::vector<std::unique_ptr<Client>>& clients() const { return clients_; }
  // Empty unless config.open_loop.sessions > 0 (one mux per datacenter).
  const std::vector<std::unique_ptr<SessionMux>>& session_muxes() const { return muxes_; }
  // Null unless the open-loop engine is on.
  const StreamingSocialGraph* streaming_graph() const { return streaming_graph_.get(); }

  // Null unless backend == kRealtime.
  RealtimeScheduler* scheduler() { return scheduler_.get(); }
  // Total executed events, whichever backend ran.
  uint64_t executed_events() const {
    return scheduler_ != nullptr ? scheduler_->executed_events() : sim_.executed_events();
  }

  // Null unless config.trace.enabled or config.trace.attribution.
  obs::TraceRecorder* trace() { return trace_.get(); }
  // Null unless config.trace.attribution.
  obs::AttributionProfiler* attribution() { return attribution_.get(); }
  const obs::AttributionProfiler* attribution() const { return attribution_.get(); }
  // Null unless config.timeseries_window > 0 (created inside Run()).
  obs::TimeSeriesRecorder* timeseries() { return timeseries_.get(); }

  // Unified run metrics: every counter and histogram of the run, by name.
  // Built lazily on first use (getter registration resolves values at
  // Snapshot time), so runs that never snapshot pay nothing — not even the
  // registration allocations.
  obs::MetricsRegistry& metrics_registry();

  ExperimentResult Result() const;

 private:
  void BuildMetricsRegistry();
  // The simulator new actors should be built against: a fresh scheduler lane
  // under the realtime backend, the shared deterministic simulator otherwise.
  // `affinity` (a DcId) groups a datacenter's lanes — the datacenter node and
  // its home clients — onto one lane-group simulator, so their traffic stays
  // on one worker.
  Simulator* NewLaneSim(uint32_t affinity = RealtimeScheduler::kNoAffinity);

  ClusterConfig config_;
  ReplicaMap replicas_;
  std::unique_ptr<obs::TraceRecorder> trace_;  // created before any actor
  std::unique_ptr<obs::AttributionProfiler> attribution_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::TimeSeriesRecorder> timeseries_;
  Simulator sim_;
  std::unique_ptr<RealtimeScheduler> scheduler_;  // null unless kRealtime
  std::unique_ptr<Network> net_;
  std::unique_ptr<Metrics> metrics_;
  std::unique_ptr<CausalityOracle> oracle_;
  std::vector<std::unique_ptr<DatacenterBase>> datacenters_;
  std::unique_ptr<MetadataService> metadata_;
  TreeTopology tree_;
  std::unique_ptr<TopologyMonitor> monitor_;
  std::unique_ptr<ReconfigController> controller_;
  DcSet initial_active_;  // all DCs minus config.dynamic.deferred_dcs
  std::vector<DcId> client_homes_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<Simulator*> client_sims_;  // parallel to clients_ (realtime stops)
  std::unique_ptr<StreamingSocialGraph> streaming_graph_;
  std::vector<std::unique_ptr<SessionMux>> muxes_;  // one per DC when open-loop
  std::vector<Simulator*> mux_sims_;                // parallel to muxes_
  std::unique_ptr<FaultInjector> injector_;
  SimTime stop_clients_at_ = kSimTimeNever;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
};

// `per_dc` clients homed at every datacenter.
std::vector<DcId> UniformClientHomes(uint32_t num_dcs, uint32_t per_dc);

// Factory producing the paper's synthetic workload for every client.
GeneratorFactory SyntheticGenerators(const SyntheticOpGenerator::Config& workload);

// Maps each protocol to the client-library mode it needs.
ClientProtocolMode ClientModeFor(Protocol protocol);

}  // namespace saturn

#endif  // SRC_RUNTIME_CLUSTER_H_
