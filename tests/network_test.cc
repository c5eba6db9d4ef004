#include <gtest/gtest.h>

#include <vector>

#include "src/sim/network.h"

namespace saturn {
namespace {

// Collects received heartbeat messages with their delivery times.
class Sink : public Actor {
 public:
  explicit Sink(Simulator* sim) : sim_(sim) {}

  void HandleMessage(NodeId from, const Message& msg) override {
    (void)from;
    if (const auto* hb = std::get_if<BulkHeartbeat>(&msg)) {
      received.push_back({sim_->Now(), hb->ts});
    }
  }

  std::vector<std::pair<SimTime, int64_t>> received;

 private:
  Simulator* sim_;
};

BulkHeartbeat Hb(int64_t ts) {
  BulkHeartbeat hb;
  hb.ts = ts;
  return hb;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : matrix_(3) {
    matrix_.Set(0, 1, Millis(10));
    matrix_.Set(0, 2, Millis(50));
    matrix_.Set(1, 2, Millis(30));
  }

  LatencyMatrix matrix_;
};

TEST_F(NetworkTest, DeliversWithConfiguredLatency) {
  Simulator sim;
  NetworkConfig config;
  config.bandwidth_bytes_per_us = 1e9;  // transmission time negligible
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.Send(a.node_id(), b.node_id(), Hb(1));
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, Millis(10));
}

TEST_F(NetworkTest, IntraSiteLatencyApplies) {
  Simulator sim;
  NetworkConfig config;
  config.intra_site_latency = Micros(250);
  config.bandwidth_bytes_per_us = 1e9;
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 2);
  net.Attach(&b, 2);

  net.Send(a.node_id(), b.node_id(), Hb(1));
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, Micros(250));
}

TEST_F(NetworkTest, FifoPerChannelEvenWithJitter) {
  Simulator sim;
  NetworkConfig config;
  config.jitter_fraction = 0.5;
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 2);

  for (int i = 0; i < 100; ++i) {
    net.Send(a.node_id(), b.node_id(), Hb(i));
  }
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(b.received[i].second, i);  // order preserved
  }
}

TEST_F(NetworkTest, InjectedLatencyAddsAndClears) {
  Simulator sim;
  NetworkConfig config;
  config.bandwidth_bytes_per_us = 1e9;
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.InjectExtraLatency(0, 1, Millis(25));
  EXPECT_EQ(net.BaseLatency(0, 1), Millis(35));
  net.Send(a.node_id(), b.node_id(), Hb(1));
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, Millis(35));

  net.InjectExtraLatency(0, 1, 0);
  EXPECT_EQ(net.BaseLatency(0, 1), Millis(10));
}

TEST_F(NetworkTest, AsymmetricInjectedLatencyTouchesOneDirection) {
  Simulator sim;
  NetworkConfig config;
  config.bandwidth_bytes_per_us = 1e9;
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.InjectExtraLatencyOneWay(0, 1, Millis(25));
  EXPECT_EQ(net.BaseLatency(0, 1), Millis(35));
  EXPECT_EQ(net.BaseLatency(1, 0), Millis(10));  // reverse path untouched

  net.Send(a.node_id(), b.node_id(), Hb(1));
  net.Send(b.node_id(), a.node_id(), Hb(2));
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, Millis(35));
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].first, Millis(10));

  net.InjectExtraLatencyOneWay(0, 1, 0);
  EXPECT_EQ(net.BaseLatency(0, 1), Millis(10));
  // The symmetric injector still writes both directions at once (Fig. 6).
  net.InjectExtraLatency(0, 1, Millis(5));
  EXPECT_EQ(net.BaseLatency(0, 1), Millis(15));
  EXPECT_EQ(net.BaseLatency(1, 0), Millis(15));
}

TEST_F(NetworkTest, ScheduledStepRewritesBaseLatency) {
  Simulator sim;
  NetworkConfig config;
  config.bandwidth_bytes_per_us = 1e9;
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.ScheduleLatencyStep(Millis(100), 0, 1, Millis(40), /*symmetric=*/false);
  sim.At(Millis(99), [&] { net.Send(a.node_id(), b.node_id(), Hb(1)); });
  sim.At(Millis(101), [&] { net.Send(a.node_id(), b.node_id(), Hb(2)); });
  sim.At(Millis(101), [&] { net.Send(b.node_id(), a.node_id(), Hb(3)); });
  sim.RunAll();

  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].first, Millis(99) + Millis(10));   // pre-step latency
  EXPECT_EQ(b.received[1].first, Millis(101) + Millis(40));  // post-step latency
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].first, Millis(101) + Millis(10));  // directed: reverse keeps base
  EXPECT_EQ(net.CurrentBaseLatency(0, 1), Millis(40));
  EXPECT_EQ(net.CurrentBaseLatency(1, 0), Millis(10));
}

TEST_F(NetworkTest, ScheduledRampInterpolatesAndComposesWithInjection) {
  Simulator sim;
  NetworkConfig config;
  config.bandwidth_bytes_per_us = 1e9;
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  // 10ms -> 50ms over 200ms, both directions, starting at t=100ms.
  net.ScheduleLatencyRamp(Millis(100), 0, 1, Millis(50), Millis(200), /*symmetric=*/true);
  net.InjectExtraLatency(0, 1, Millis(5));  // chaos overlay rides on top
  sim.At(Millis(200), [&] { net.Send(a.node_id(), b.node_id(), Hb(1)); });  // mid-ramp
  sim.At(Millis(400), [&] { net.Send(a.node_id(), b.node_id(), Hb(2)); });  // post-ramp
  sim.At(Millis(400), [&] { net.Send(b.node_id(), a.node_id(), Hb(3)); });
  sim.RunAll();

  // Mid-ramp (t=200ms, halfway): base is ~30ms, discretized in kRampTick
  // slices, plus the 5ms overlay.
  ASSERT_EQ(b.received.size(), 2u);
  SimTime mid = b.received[0].first - Millis(200) - Millis(5);
  EXPECT_GE(mid, Millis(20));
  EXPECT_LE(mid, Millis(40));
  EXPECT_EQ(b.received[1].first, Millis(400) + Millis(50) + Millis(5));
  // Symmetric ramp: the reverse direction landed on the target too (and the
  // symmetric overlay covers both directions).
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].first, Millis(400) + Millis(50) + Millis(5));
  EXPECT_EQ(net.CurrentBaseLatency(0, 1), Millis(50));
  EXPECT_EQ(net.CurrentBaseLatency(1, 0), Millis(50));
}

TEST_F(NetworkTest, LargeMessagesPayTransmissionTime) {
  Simulator sim;
  NetworkConfig config;
  config.bandwidth_bytes_per_us = 1.0;  // 1 byte per microsecond
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  RemotePayload payload;
  payload.value_size = 1000;
  net.Send(a.node_id(), b.node_id(), payload);
  sim.RunAll();
  // 10ms latency + (104 + 1000) bytes at 1 B/us.
  EXPECT_EQ(sim.Now(), Millis(10) + 1104);
}

TEST_F(NetworkTest, DownLinkBuffersAndFlushesInOrder) {
  Simulator sim;
  Network net(&sim, matrix_);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.SetLinkDown(0, 1, true);
  net.Send(a.node_id(), b.node_id(), Hb(1));
  net.Send(a.node_id(), b.node_id(), Hb(2));
  sim.RunUntil(Millis(100));
  EXPECT_TRUE(b.received.empty());

  net.SetLinkDown(0, 1, false);
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].second, 1);
  EXPECT_EQ(b.received[1].second, 2);
  EXPECT_GE(b.received[0].first, Millis(100));
}

TEST_F(NetworkTest, LossyCutDropsInsteadOfBuffering) {
  Simulator sim;
  Network net(&sim, matrix_);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.CutLink(0, 1, /*drop_messages=*/true);
  EXPECT_TRUE(net.LinkDown(0, 1));
  net.Send(a.node_id(), b.node_id(), Hb(1));
  net.Send(a.node_id(), b.node_id(), Hb(2));
  net.HealLink(0, 1);
  net.Send(a.node_id(), b.node_id(), Hb(3));
  sim.RunAll();

  // Nothing buffered: only the post-heal message arrives.
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 3);
  EXPECT_EQ(net.dropped_on_cut(), 2u);
  EXPECT_EQ(net.messages_dropped(), 2u);
}

TEST_F(NetworkTest, LossyCutEatsMessagesAlreadyInFlight) {
  Simulator sim;
  Network net(&sim, matrix_);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  // Sent on a healthy link (10ms one way), but the cut lands at 5ms — before
  // delivery — so the in-flight message is lost too.
  net.Send(a.node_id(), b.node_id(), Hb(1));
  sim.At(Millis(5), [&net]() { net.CutLink(0, 1, /*drop_messages=*/true); });
  sim.RunAll();

  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.dropped_on_cut(), 1u);
}

TEST_F(NetworkTest, BufferedCutLeavesInFlightAlone) {
  Simulator sim;
  Network net(&sim, matrix_);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.Send(a.node_id(), b.node_id(), Hb(1));
  sim.At(Millis(5), [&net]() { net.CutLink(0, 1, /*drop_messages=*/false); });
  sim.RunUntil(Millis(100));
  // TCP semantics: the cut only stops *new* traffic; the in-flight segment
  // still lands.
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(net.messages_dropped(), 0u);
}

TEST_F(NetworkTest, DownBufferCapDropsOldestFirst) {
  Simulator sim;
  NetworkConfig config;
  config.down_buffer_cap = 2;
  Network net(&sim, matrix_, config);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.CutLink(0, 1, /*drop_messages=*/false);
  for (int64_t ts = 1; ts <= 4; ++ts) {
    net.Send(a.node_id(), b.node_id(), Hb(ts));
  }
  EXPECT_EQ(net.dropped_overflow(), 2u);
  net.HealLink(0, 1);
  sim.RunAll();

  // The two newest survived, in order.
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].second, 3);
  EXPECT_EQ(b.received[1].second, 4);
}

TEST_F(NetworkTest, CrashedNodeDropsTrafficBothWays) {
  Simulator sim;
  Network net(&sim, matrix_);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.SetNodeDown(b.node_id(), true);
  EXPECT_TRUE(net.NodeDown(b.node_id()));
  net.Send(a.node_id(), b.node_id(), Hb(1));  // into the crash: dropped
  net.Send(b.node_id(), a.node_id(), Hb(2));  // out of the crash: dropped
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(net.dropped_node_down(), 2u);

  // Recovery replays nothing, but new traffic flows again.
  net.SetNodeDown(b.node_id(), false);
  net.Send(a.node_id(), b.node_id(), Hb(3));
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 3);
}

TEST_F(NetworkTest, CrashEatsMessagesInFlightToTheNode) {
  Simulator sim;
  Network net(&sim, matrix_);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.Send(a.node_id(), b.node_id(), Hb(1));
  sim.At(Millis(5), [&net, &b]() { net.SetNodeDown(b.node_id(), true); });
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.dropped_node_down(), 1u);
}

TEST_F(NetworkTest, EscalatingBufferedCutToLossyDropsTheBuffer) {
  Simulator sim;
  Network net(&sim, matrix_);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);

  net.CutLink(0, 1, /*drop_messages=*/false);
  net.Send(a.node_id(), b.node_id(), Hb(1));
  net.CutLink(0, 1, /*drop_messages=*/true);  // escalate: partition now lossy
  net.HealLink(0, 1);
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.dropped_on_cut(), 1u);
}

TEST_F(NetworkTest, CountsTraffic) {
  Simulator sim;
  Network net(&sim, matrix_);
  Sink a(&sim);
  Sink b(&sim);
  net.Attach(&a, 0);
  net.Attach(&b, 1);
  net.Send(a.node_id(), b.node_id(), Hb(1));
  net.Send(b.node_id(), a.node_id(), Hb(2));
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_GT(net.bytes_sent(), 0u);
}

// A LaneRouter with a single lane: every post lands on the one simulator.
// It drives the network's multi-lane code paths (per-node FIFO clamps and
// counter shards, reader slots, the locked fault writers) single-threaded,
// where their results can be compared with the plain path exactly.
class OneLaneRouter : public LaneRouter {
 public:
  explicit OneLaneRouter(Simulator* sim) : sim_(sim) {}
  SimTime Now() const override { return sim_->Now(); }
  void PostAt(NodeId to, SimTime when, InlineTask task) override {
    (void)to;
    sim_->At(when, std::move(task));
  }

 private:
  Simulator* sim_;
};

TEST_F(NetworkTest, RouterPathMatchesSingleSimulatorPath) {
  struct Outcome {
    std::vector<std::pair<SimTime, int64_t>> at_b;
    std::vector<std::pair<SimTime, int64_t>> at_c;
    uint64_t sent, bytes, dropped_on_cut, dropped_overflow, dropped_node_down;
    uint64_t metadata_bytes;
  };
  auto run = [this](bool routed) {
    Simulator sim;
    NetworkConfig config;
    config.down_buffer_cap = 3;
    Network net(&sim, matrix_, config);
    OneLaneRouter router(&sim);
    if (routed) {
      net.SetRouter(&router);
    }
    Sink a(&sim);
    Sink b(&sim);
    Sink c(&sim);
    net.Attach(&a, 0);
    net.Attach(&b, 1);
    net.Attach(&c, 2);
    int64_t ts = 0;
    auto send = [&](Sink& to) { net.Send(a.node_id(), to.node_id(), Hb(++ts)); };
    send(b);
    send(c);
    // Buffered cut 0-1 overflowing its buffer, healed later: the survivors
    // flush in order ahead of anything sent after the heal.
    sim.At(Millis(1), [&] { net.CutLink(0, 1, /*drop_messages=*/false); });
    for (int i = 0; i < 5; ++i) {
      sim.At(Millis(2 + i), [&] { send(b); });
    }
    sim.At(Millis(20), [&] {
      net.HealLink(0, 1);
      send(b);
    });
    // Lossy cut 0-2 (50 ms one way) at 40 ms eats the two messages still in
    // flight (sent at 0 and 30 ms) and one sent into it.
    sim.At(Millis(30), [&] { send(c); });
    sim.At(Millis(40), [&] {
      net.CutLink(0, 2, /*drop_messages=*/true);
      send(c);
    });
    sim.At(Millis(100), [&] {
      net.HealLink(0, 2);
      send(c);
    });
    // A crash drops traffic into the node.
    sim.At(Millis(200), [&] {
      net.SetNodeDown(c.node_id(), true);
      send(c);
    });
    sim.RunAll();
    return Outcome{b.received,          c.received,
                   net.messages_sent(), net.bytes_sent(),
                   net.dropped_on_cut(), net.dropped_overflow(),
                   net.dropped_node_down(), net.metadata_wire_bytes()};
  };
  Outcome plain = run(false);
  Outcome routed = run(true);
  EXPECT_EQ(routed.at_b, plain.at_b);
  EXPECT_EQ(routed.at_c, plain.at_c);
  EXPECT_EQ(routed.sent, plain.sent);
  EXPECT_EQ(routed.bytes, plain.bytes);
  EXPECT_EQ(routed.dropped_on_cut, plain.dropped_on_cut);
  EXPECT_EQ(routed.dropped_overflow, plain.dropped_overflow);
  EXPECT_EQ(routed.dropped_node_down, plain.dropped_node_down);
  EXPECT_EQ(routed.metadata_bytes, plain.metadata_bytes);
  // The scenario exercised every path it meant to.
  EXPECT_EQ(plain.dropped_overflow, 2u);
  EXPECT_EQ(plain.dropped_on_cut, 3u);
  EXPECT_EQ(plain.dropped_node_down, 1u);
  ASSERT_EQ(plain.at_b.size(), 5u);  // 1 before the cut, 3 flushed, 1 after
  for (size_t i = 1; i < plain.at_b.size(); ++i) {
    EXPECT_LT(plain.at_b[i - 1].second, plain.at_b[i].second) << "FIFO across the heal";
  }
}

TEST(LatencyMatrixTest, SymmetricWithZeroDiagonal) {
  LatencyMatrix m(4, Millis(20));
  EXPECT_EQ(m.Get(1, 1), 0);
  m.Set(1, 2, Millis(5));
  EXPECT_EQ(m.Get(1, 2), Millis(5));
  EXPECT_EQ(m.Get(2, 1), Millis(5));
  EXPECT_EQ(m.Get(0, 3), Millis(20));  // default preserved elsewhere
}

}  // namespace
}  // namespace saturn
