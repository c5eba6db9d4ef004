// The wall-clock multi-threaded backend, driven through the same Cluster
// builder as the deterministic simulator.
//
// Realtime runs are not reproducible — thread interleaving decides event
// order between lanes — so these tests assert exactly the properties that
// must hold on *every* interleaving:
//
//   1. Safety: the causality oracle stays clean (session guarantees and
//      causal prefixes hold whatever the schedule).
//   2. Liveness: the closed loop makes progress and no committed update is
//      stranded short of its replicas after the drain.
//
// Timing-dependent Saturn end-state (which epoch, stream vs timestamp mode at
// the instant the run stops) is deliberately NOT asserted here; those
// fixtures belong to the deterministic suites. The tsan_smoke ctest target
// reruns this binary under ThreadSanitizer to prove the lanes share nothing
// they do not lock.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/fault/chaos.h"
#include "tests/test_util.h"

namespace saturn {
namespace {

unsigned RealtimeWorkers() {
  // Oversubscription is legal (threads just multiplex), so the tests always
  // run multi-threaded even on small CI machines.
  return 2;
}

struct RealtimeVerdict {
  std::string context;
  bool oracle_clean = false;
  std::string first_violation;
  size_t missing = 0;
  std::string first_missing;
  uint64_t ops = 0;
  uint64_t executed_events = 0;
  size_t lanes = 0;
  size_t groups = 0;
  size_t utilization_entries = 0;
};

void CheckSafetyAndProgress(const RealtimeVerdict& v) {
  EXPECT_TRUE(v.oracle_clean) << v.context << "\nfirst violation: " << v.first_violation;
  EXPECT_EQ(v.missing, 0u) << v.context << "\nfirst missing: " << v.first_missing;
  EXPECT_GT(v.ops, 0u) << v.context;
  EXPECT_GT(v.executed_events, 0u) << v.context;
}

RealtimeVerdict RunRealtime(Protocol protocol, uint64_t seed,
                            const ChaosOptions* chaos = nullptr,
                            unsigned workers = RealtimeWorkers()) {
  ClusterConfig config = SmallClusterConfig(protocol);
  config.seed = seed;
  config.backend = ExecBackend::kRealtime;
  config.realtime.workers = workers;
  Cluster cluster(config, SmallReplicas(config, CorrelationPattern::kFull),
                  UniformClientHomes(3, 3), SyntheticGenerators(DefaultWorkload()));

  FaultPlan plan;
  if (chaos != nullptr) {
    plan = GenerateChaosPlan(*chaos, config.dc_sites);
    cluster.InstallFaultPlan(plan);
  }
  // Stop the closed loop before the run ends so the drain can finish
  // replicating the tail — MissingReplicas() is only meaningful quiesced.
  cluster.StopClientsAt(Millis(4000));
  cluster.Run(Seconds(1), Seconds(2), /*drain=*/Seconds(2));

  RealtimeVerdict v;
  v.context = std::string("protocol=") + ProtocolName(protocol) + " seed=" +
              std::to_string(seed) +
              (chaos != nullptr ? " plan=[" + plan.ToString() + "]" : "");
  v.oracle_clean = cluster.oracle() != nullptr && cluster.oracle()->Clean();
  if (!v.oracle_clean && cluster.oracle() != nullptr &&
      !cluster.oracle()->violations().empty()) {
    v.first_violation = cluster.oracle()->violations().front();
  }
  auto missing = cluster.oracle()->MissingReplicas();
  v.missing = missing.size();
  if (!missing.empty()) {
    v.first_missing = missing.front();
  }
  for (const auto& client : cluster.clients()) {
    v.ops += client->ops_completed();
  }
  v.executed_events = cluster.executed_events();
  v.lanes = cluster.scheduler()->num_lanes();
  v.groups = cluster.scheduler()->num_groups();
  v.utilization_entries = cluster.scheduler()->worker_utilization().size();
  return v;
}

TEST(Realtime, SaturnSmoke) {
  RealtimeVerdict v = RunRealtime(Protocol::kSaturn, 1234);
  CheckSafetyAndProgress(v);
  // One lane per DC, one per client home-group, one for the metadata
  // service: 3 + 3 + 1 here. Closed-loop clients bundle per home.
  EXPECT_EQ(v.lanes, 7u) << v.context;
  // A datacenter's lanes share a group; the metadata lane has its own.
  EXPECT_EQ(v.groups, 4u) << v.context;
  EXPECT_EQ(v.utilization_entries, RealtimeWorkers()) << v.context;
}

TEST(Realtime, AffinityHoldsWithSpareWorkers) {
  // More workers than lane groups: the groups stay per datacenter (splitting
  // them would send intra-DC traffic across threads) and the spare workers
  // idle. Safety and liveness hold with the extra threads sweeping.
  RealtimeVerdict v =
      RunRealtime(Protocol::kSaturn, 1234, /*chaos=*/nullptr, /*workers=*/6);
  CheckSafetyAndProgress(v);
  EXPECT_EQ(v.lanes, 7u) << v.context;
  EXPECT_EQ(v.groups, 4u) << v.context;
  EXPECT_EQ(v.utilization_entries, 6u) << v.context;
}

TEST(Realtime, UtilizationSeriesSampledOverWallClock) {
  // Windowed per-worker utilization telemetry. Wall-clock sampling is not
  // reproducible, so this asserts shape and bounds only: samples exist, the
  // clock is monotone, every sample covers every worker, and fractions are
  // nonnegative (they may slightly exceed 1.0 — busy time is accumulated with
  // relaxed atomics).
  ClusterConfig config = SmallClusterConfig(Protocol::kSaturn);
  config.seed = 1234;
  config.backend = ExecBackend::kRealtime;
  config.realtime.workers = RealtimeWorkers();
  config.realtime.utilization_sample_ns = 10ull * 1000 * 1000;  // 10ms
  Cluster cluster(config, SmallReplicas(config, CorrelationPattern::kFull),
                  UniformClientHomes(3, 3), SyntheticGenerators(DefaultWorkload()));
  cluster.StopClientsAt(Millis(4000));
  cluster.Run(Seconds(1), Seconds(2), /*drain=*/Seconds(2));

  const auto& series = cluster.scheduler()->utilization_series();
  ASSERT_FALSE(series.empty());
  uint64_t prev_ns = 0;
  for (const auto& sample : series) {
    EXPECT_GT(sample.wall_ns, prev_ns);
    prev_ns = sample.wall_ns;
    ASSERT_EQ(sample.busy_fraction.size(), RealtimeWorkers());
    for (double fraction : sample.busy_fraction) {
      EXPECT_GE(fraction, 0.0);
    }
  }
}

TEST(Realtime, GentleRainSmoke) {
  // The backend is protocol-agnostic: a non-Saturn datacenter on lanes.
  RealtimeVerdict v = RunRealtime(Protocol::kGentleRain, 99);
  CheckSafetyAndProgress(v);
}

TEST(Realtime, SurvivesChaosSchedules) {
  // The chaos workload on the realtime backend: link cuts, lossy cuts,
  // latency spikes, DC crashes. No tree kill — the backup tree would be
  // deployed after lane binding closes, and failover timing is a fixture of
  // the deterministic suite anyway. Safety and liveness only.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    ChaosOptions options;
    options.seed = seed;
    options.start = Millis(1500);
    options.end = Millis(3300);
    options.allow_lossy = true;
    options.allow_crash = true;
    options.tree_kill_percent = 0;
    RealtimeVerdict v = RunRealtime(Protocol::kSaturn, seed, &options);
    CheckSafetyAndProgress(v);
  }
}

}  // namespace
}  // namespace saturn
