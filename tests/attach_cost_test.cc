// Every attach pays the frontend's attach cost, whether it completes at once
// or is parked until stabilization admits it. One datacenter of a two-DC
// GentleRain / Cure deployment is driven directly: an attach whose causal
// past is already stable, and one that must wait for a remote heartbeat to
// move the GST / stable vector past it. The waited attach must reach the
// client no sooner after its release than the immediate one after its
// request.
#include <gtest/gtest.h>

#include <map>

#include "src/baselines/cure_dc.h"
#include "src/baselines/gentlerain_dc.h"

namespace saturn {
namespace {

constexpr int64_t kNeedTs = Millis(1);    // remote timestamp the waiter needs
constexpr SimTime kHeartbeatAt = Millis(7);

class ResponseRecorder : public Actor {
 public:
  explicit ResponseRecorder(Simulator* sim) : sim_(sim) {}
  void HandleMessage(NodeId, const Message& msg) override {
    if (const auto* resp = std::get_if<ClientResponse>(&msg)) {
      arrived_at[resp->request_id] = sim_->Now();
    }
  }
  std::map<uint64_t, SimTime> arrived_at;

 private:
  Simulator* sim_;
};

// Runs both attaches against DC 0 and returns {immediate latency, waited
// attach's arrival minus its release}. `covered(dc)` says whether the waiter
// is admissible; `make_waiter` fills the request's causal past.
template <typename Dc, typename Covered, typename MakeWaiter>
std::pair<SimTime, SimTime> RunAttaches(Covered covered, MakeWaiter make_waiter) {
  Simulator sim;
  Network net(&sim, LatencyMatrix(1));
  Metrics metrics(2);
  DatacenterConfig config;
  config.id = 0;
  config.num_gears = 1;
  config.stabilization_interval = Millis(5);
  Dc dc(&sim, &net, config, 2, [](KeyId) { return DcSet::FirstN(2); }, &metrics, nullptr);
  ResponseRecorder client(&sim);
  net.Attach(&dc, 0);
  net.Attach(&client, 0);
  dc.Start();

  ClientRequest immediate;
  immediate.op = ClientOpType::kAttach;
  immediate.request_id = 1;
  ClientRequest waiter = immediate;
  waiter.request_id = 2;
  make_waiter(&waiter);
  dc.HandleMessage(client.node_id(), immediate);
  dc.HandleMessage(client.node_id(), waiter);
  EXPECT_FALSE(covered(dc));

  sim.At(kHeartbeatAt, [&]() {
    BulkHeartbeat hb;
    hb.origin = 1;
    hb.gear = 0;
    hb.ts = 2 * kNeedTs;
    dc.HandleMessage(kInvalidNode, hb);
  });
  // Step one microsecond at a time so the release instant is exact.
  SimTime released = -1;
  for (SimTime t = 1; t <= Millis(40); ++t) {
    sim.RunUntil(t);
    if (released < 0 && covered(dc)) {
      released = t;
    }
  }
  EXPECT_GT(released, kHeartbeatAt);
  EXPECT_EQ(client.arrived_at.count(1), 1u);
  EXPECT_EQ(client.arrived_at.count(2), 1u);
  return {client.arrived_at[1], client.arrived_at[2] - released};
}

TEST(AttachCost, GentleRainWaitedAttachPaysFrontendCost) {
  auto [immediate, after_release] = RunAttaches<GentleRainDc>(
      [](const GentleRainDc& dc) { return dc.gst() >= kNeedTs; },
      [](ClientRequest* req) {
        req->client_label = Label{LabelType::kUpdate, MakeSourceId(1, 0), kNeedTs, 0,
                                  kInvalidDc, 7};
      });
  EXPECT_GE(immediate, CostModel::AsTime(CostModel{}.attach_base_us));
  EXPECT_GE(after_release, immediate);
}

TEST(AttachCost, CureWaitedAttachPaysFrontendCost) {
  auto [immediate, after_release] = RunAttaches<CureDc>(
      [](const CureDc& dc) { return dc.stable_vector()[1] >= kNeedTs; },
      [](ClientRequest* req) { req->client_vector = DcVec{-1, kNeedTs}; });
  EXPECT_GE(immediate, CostModel::AsTime(CostModel{}.attach_base_us));
  EXPECT_GE(after_release, immediate);
}

}  // namespace
}  // namespace saturn
