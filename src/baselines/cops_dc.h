// COPS/Eiger-style datacenter: explicit dependency checking
// (Lloyd et al., SOSP'11 / NSDI'13).
//
// Instead of compressed timestamps, every update carries an explicit list of
// (key, source, timestamp) dependencies — the client's causal context — and a
// remote datacenter applies the update only after every locally-replicated
// dependency has been applied. Under FULL replication the context can be
// pruned after each update thanks to the transitivity of causality (a new
// update subsumes everything the client saw before). The paper's section
// 7.3.1 explains why this breaks under partial geo-replication: a dependency
// that is not replicated at a target datacenter cannot stand in for its own
// transitive dependencies, so pruning is unsound and client contexts grow
// without bound — this engine implements both modes so the effect is
// measurable (bench/cops_metadata.cc).
//
// The dependency-tracking tables are the COPS hot path (one lookup per dep
// per update), so they are open-addressed FlatMap/FlatSet rather than
// node-based std::unordered_*, and the per-uid blocked lists are inline
// small-vectors — steady-state dependency checking touches no allocator.
#ifndef SRC_BASELINES_COPS_DC_H_
#define SRC_BASELINES_COPS_DC_H_

#include "src/common/flat_map.h"
#include "src/common/inline_vec.h"
#include "src/core/datacenter.h"
#include "src/stats/histogram.h"

namespace saturn {

class CopsDc : public DatacenterBase {
 public:
  CopsDc(Simulator* sim, Network* net, const DatacenterConfig& config, uint32_t num_dcs,
         ReplicaResolver resolver, Metrics* metrics, CausalityOracle* oracle)
      : DatacenterBase(sim, net, config, num_dcs, resolver, metrics, oracle) {}

  void Start() override;

  // Diagnostics: dependency list sizes seen on incoming remote updates.
  const Accumulator& dep_list_sizes() const { return dep_sizes_; }
  size_t buffered_updates() const { return waiting_.size(); }

 protected:
  void HandleAttach(NodeId from, const ClientRequest& req) override;
  void OnRemotePayload(const RemotePayload& payload) override;
  void FillPayloadMetadata(const ClientRequest& req, RemotePayload* payload) override;
  void OnLocalUpdateCommitted(const ClientRequest& req, const Label& label) override;

  // Dependency management costs scale with the context size — the throughput
  // half of the paper's argument against explicit checking.
  SimTime ExtraUpdateCost(const ClientRequest& req) const override {
    return CostModel::AsTime(config_.costs.scalar_meta_us +
                             config_.costs.dep_check_us * req.explicit_deps.size());
  }
  SimTime ExtraRemoteApplyCost(const RemotePayload& payload) const override {
    return CostModel::AsTime(config_.costs.scalar_meta_us +
                             config_.costs.dep_check_us * payload.explicit_deps.size());
  }

 private:
  struct Waiter {
    RemotePayload payload;
    uint32_t missing = 0;  // unapplied local dependencies
  };
  // Dependencies on keys this DC replicates that have not been applied yet.
  uint32_t CountMissing(const DepVec& deps) const;
  void OnDependencyApplied(uint64_t uid);
  void Apply(const RemotePayload& payload);

  FlatSet<uint64_t> applied_;
  // uid -> uids of waiting updates blocked on it. Most uids block at most a
  // handful of updates, so the list stays inline.
  FlatMap<uint64_t, InlineVec<uint64_t, 4>> blocked_on_;
  FlatMap<uint64_t, Waiter> waiting_;  // keyed by update uid
  Accumulator dep_sizes_;
};

}  // namespace saturn

#endif  // SRC_BASELINES_COPS_DC_H_
