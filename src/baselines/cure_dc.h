// Cure-style datacenter (Akkoorath et al., ICDCS'16), the paper's
// fine-grained-metadata comparison point.
//
// Causality is tracked with a vector clock with one entry per datacenter:
// clients carry a vector, updates carry their dependency vector, and a
// periodic stabilization round (5 ms) computes the stable vector SV. A remote
// update from origin o becomes visible once SV[o] covers its timestamp and SV
// covers its dependency vector — so visibility is bounded by the distance to
// the *origin* (plus stabilization), unlike GentleRain's global minimum, but
// every operation pays O(#DCs) metadata costs, which is what hurts Cure's
// throughput in the paper's experiments.
//
// Hot-path state is allocation-free in steady state: vectors are DcVec
// (inline small-buffers, messages.h) and the per-key dependency table is an
// open-addressed FlatMap. The gear timestamps, the pending buffer, the
// visibility chain and the two-stage stabilization round (which yields SV)
// are DatacenterBase's; this class supplies the per-origin drain predicate.
#ifndef SRC_BASELINES_CURE_DC_H_
#define SRC_BASELINES_CURE_DC_H_

#include "src/common/flat_map.h"
#include "src/core/datacenter.h"

namespace saturn {

class CureDc : public DatacenterBase {
 public:
  CureDc(Simulator* sim, Network* net, const DatacenterConfig& config, uint32_t num_dcs,
         ReplicaResolver resolver, Metrics* metrics, CausalityOracle* oracle)
      : DatacenterBase(sim, net, config, num_dcs, resolver, metrics, oracle) {}

  void Start() override;

  const DcVec& stable_vector() const { return stable_; }

 protected:
  void HandleAttach(NodeId from, const ClientRequest& req) override;
  void OnRemotePayload(const RemotePayload& payload) override;
  void FillPayloadMetadata(const ClientRequest& req, RemotePayload* payload) override;
  void AugmentReadResponse(const ClientRequest& req, const VersionedValue* version,
                           ClientResponse* resp) override;
  void OnLocalUpdateCommitted(const ClientRequest& req, const Label& label) override;

  SimTime ExtraUpdateCost(const ClientRequest&) const override {
    return CostModel::AsTime(config_.costs.vector_entry_update_us * num_dcs_);
  }
  SimTime ExtraReadCost(const ClientRequest&) const override {
    return CostModel::AsTime(config_.costs.vector_entry_read_us * num_dcs_);
  }
  SimTime ExtraRemoteApplyCost(const RemotePayload&) const override {
    return CostModel::AsTime(config_.costs.vector_entry_update_us * num_dcs_);
  }

 private:
  // Dependency vector of the latest stored version of a key.
  struct KeyDeps {
    Label label{};
    DcVec deps;
  };

  bool Covers(const DcVec& need) const {
    for (uint32_t k = 0; k < num_dcs_; ++k) {
      int64_t bound = k == config_.id ? clock_.Now() : stable_[k];
      if (k < need.size() && need[k] > bound) {
        return false;
      }
    }
    return true;
  }

  void StabilizationRound();
  void DrainVisible();
  void RecordKeyDeps(const Label& label, KeyId key, const DcVec& deps);

  // The dependency vector of the latest version of each locally stored key,
  // returned with reads so clients can merge full causal pasts.
  FlatMap<KeyId, KeyDeps> key_deps_;
};

}  // namespace saturn

#endif  // SRC_BASELINES_CURE_DC_H_
