// GentleRain-style datacenter (Du et al., SoCC'14), one of the paper's two
// state-of-the-art comparison points.
//
// Causality is compressed into a single scalar per update. Each datacenter
// tracks, per remote gear, the highest timestamp received (updates double as
// progress markers; idle gears send heartbeats). A periodic stabilization
// round (5 ms, the authors' setting) computes the Global Stable Time
//
//   GST = min over remote DCs, min over their gears, of the last timestamp
//
// and remote updates become visible in timestamp order once GST covers them.
// Consequence (paper section 7.3.1): visibility latency tends to the distance
// to the *furthest* datacenter, regardless of the update's origin — the false
// dependencies Saturn is designed to avoid.
//
// The gear timestamps, the pending buffer, the visibility chain and the
// two-stage stabilization round are DatacenterBase's; this class supplies
// only the GST rule. The GST advances expose a timestamp-prefix of the
// label-sorted buffer, so a drain is one ApplyPendingUpTo(GST).
#ifndef SRC_BASELINES_GENTLERAIN_DC_H_
#define SRC_BASELINES_GENTLERAIN_DC_H_

#include "src/core/datacenter.h"

namespace saturn {

class GentleRainDc : public DatacenterBase {
 public:
  GentleRainDc(Simulator* sim, Network* net, const DatacenterConfig& config, uint32_t num_dcs,
               ReplicaResolver resolver, Metrics* metrics, CausalityOracle* oracle)
      : DatacenterBase(sim, net, config, num_dcs, resolver, metrics, oracle) {}

  void Start() override;

  int64_t gst() const { return gst_; }

 protected:
  void HandleAttach(NodeId from, const ClientRequest& req) override;
  void OnRemotePayload(const RemotePayload& payload) override;

  SimTime ExtraUpdateCost(const ClientRequest&) const override {
    return CostModel::AsTime(config_.costs.scalar_meta_us);
  }
  SimTime ExtraReadCost(const ClientRequest&) const override {
    return CostModel::AsTime(config_.costs.scalar_meta_us);
  }
  SimTime ExtraRemoteApplyCost(const RemotePayload&) const override {
    return CostModel::AsTime(config_.costs.scalar_meta_us);
  }

 private:
  void StabilizationRound();
  void DrainVisible();

  // GST = min over remote datacenters of stable_ (see Stabilize), kept
  // monotone; the one-round lag of the staged minima mirrors the tree-based
  // GST computation of the original system.
  int64_t gst_ = -1;
};

}  // namespace saturn

#endif  // SRC_BASELINES_GENTLERAIN_DC_H_
