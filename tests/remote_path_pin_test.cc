// Exact-fingerprint pins for the remote-update paths that perf_sim does not
// cover: GentleRain's GST prefix drain and Saturn's peer-to-peer timestamp
// drain (no tree, pure timestamp mode), plus Cure's per-origin drain and COPS's
// dependency-gated apply. Each case runs a small seed-42 deployment and
// asserts the executed-event count and the number of recorded visibility
// samples. Any change to when, or in which order, a remote update is buffered,
// applied or made visible moves these numbers; a pure refactor must not.
//
// None of these runs migrates clients, so attach handling is exercised only
// through the immediate (non-waiting) path.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace saturn {
namespace {

struct Pin {
  uint64_t executed_events = 0;
  uint64_t visibility_samples = 0;
};

Pin RunPinned(Protocol protocol, CorrelationPattern pattern, double remote_reads) {
  ClusterConfig config = SmallClusterConfig(protocol);
  config.seed = 42;
  Cluster cluster(config, SmallReplicas(config, pattern, 2), UniformClientHomes(3, 4),
                  SyntheticGenerators(DefaultWorkload(remote_reads)));
  cluster.Run(Millis(500), Seconds(1));
  EXPECT_TRUE(cluster.oracle()->Clean()) << cluster.oracle()->violations().front();
  return Pin{cluster.sim().executed_events(), cluster.metrics().AllVisibility().count()};
}

TEST(RemotePathPin, GentleRainFullReplication) {
  Pin pin = RunPinned(Protocol::kGentleRain, CorrelationPattern::kFull, 0.0);
  EXPECT_EQ(pin.executed_events, 180343u);
  EXPECT_EQ(pin.visibility_samples, 2638u);
}

TEST(RemotePathPin, SaturnPeerToPeerFullReplication) {
  Pin pin = RunPinned(Protocol::kSaturnTimestamp, CorrelationPattern::kFull, 0.0);
  EXPECT_EQ(pin.executed_events, 192833u);
  EXPECT_EQ(pin.visibility_samples, 2704u);
}

TEST(RemotePathPin, SaturnPeerToPeerPartialWithRemoteReads) {
  // Remote reads make clients migrate, so attaches wait on timestamp
  // stability in the peer-to-peer drain.
  Pin pin = RunPinned(Protocol::kSaturnTimestamp, CorrelationPattern::kUniform, 0.1);
  EXPECT_EQ(pin.executed_events, 33057u);
  EXPECT_EQ(pin.visibility_samples, 53u);
}

TEST(RemotePathPin, CureFullReplication) {
  Pin pin = RunPinned(Protocol::kCure, CorrelationPattern::kFull, 0.0);
  EXPECT_EQ(pin.executed_events, 186185u);
  EXPECT_EQ(pin.visibility_samples, 2596u);
}

TEST(RemotePathPin, CopsFullReplication) {
  Pin pin = RunPinned(Protocol::kCops, CorrelationPattern::kFull, 0.0);
  EXPECT_EQ(pin.executed_events, 174037u);
  EXPECT_EQ(pin.visibility_samples, 2750u);
}

}  // namespace
}  // namespace saturn
