// Closed-loop simulated clients (Basho Bench substitute).
//
// Each client is co-located with its preferred datacenter and issues requests
// with zero think time (section 7, "Setup"). The client library behaviour of
// section 4.1 lives here: the client carries the greatest label it has
// observed (a vector for Cure), merges labels returned by reads and updates,
// and migrates between datacenters to reach keys its preferred datacenter
// does not replicate — with Saturn's migration-label fast path when attached
// to Saturn, or a plain attach with its causal past otherwise.
#ifndef SRC_WORKLOAD_CLIENT_H_
#define SRC_WORKLOAD_CLIENT_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/label.h"
#include "src/common/flat_map.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/core/oracle.h"
#include "src/sim/actor.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/workload/op_generator.h"
#include "src/workload/replication.h"

namespace saturn {

enum class ClientProtocolMode {
  kScalar,    // eventual consistency, GentleRain: attach with the scalar label
  kVector,    // Cure: attach with the client vector
  kSaturn,    // Saturn: migration labels speed up attachment (section 4.4)
  kExplicit,  // COPS/Eiger: attach with the explicit dependency context
};

struct ClientConfig {
  ClientId id = 0;
  DcId home = 0;
  ClientProtocolMode mode = ClientProtocolMode::kScalar;
  uint32_t num_dcs = 1;
  // COPS: collapse the context to the last update after each write. Sound
  // under full replication only (section 7.3.1); with pruning off the
  // context carries the full (deduplicated) causal past.
  bool prune_context = true;
  uint64_t seed = 1;
};

class Client : public Actor {
 public:
  Client(Simulator* sim, Network* net, const ReplicaMap* replicas,
         std::unique_ptr<OpGenerator> generator, Metrics* metrics, CausalityOracle* oracle,
         const ClientConfig& config, std::vector<NodeId> dc_nodes,
         std::function<DcId(KeyId, DcId)> remote_target);

  // Begins the closed loop.
  void Start();

  // Ends the closed loop: the in-flight operation (if any) completes, then
  // the client goes idle. Fault experiments stop clients before the end of
  // the run so recovery can quiesce.
  void Stop() { stopped_ = true; }

  void HandleMessage(NodeId from, const Message& msg) override;

  uint64_t ops_completed() const { return ops_completed_; }
  uint64_t migrations() const { return migrations_; }
  const Label& label() const { return label_; }
  // COPS mode: current explicit-context size and its running maximum.
  size_t context_size() const { return context_.size(); }
  size_t max_context_size() const { return max_context_; }

 private:
  enum class Phase {
    kIdle,
    kLocalOp,
    kMigrateOut,
    kAttachTarget,
    kRemoteOp,
    kMigrateBack,
    kAttachHome,
  };

  void NextOp();
  void SendOp(DcId dc, const PlannedOp& op, Phase phase);
  void Send(DcId dc, ClientRequest req);
  void OnResponse(const ClientResponse& resp);
  void MergeReadResult(const ClientResponse& resp);
  ClientRequest BaseRequest(ClientOpType op);

  Simulator* sim_;
  Network* net_;
  const ReplicaMap* replicas_;
  std::unique_ptr<OpGenerator> generator_;
  Metrics* metrics_;
  CausalityOracle* oracle_;
  ClientConfig config_;
  std::vector<NodeId> dc_nodes_;
  std::function<DcId(KeyId, DcId)> remote_target_;

  void AddDep(const ExplicitDep& dep);

  Rng rng_;
  Label label_ = kBottomLabel;
  // Inline small-vectors (messages.h): copying these into each outgoing
  // request is a flat store, not a heap allocation per operation.
  DcVec vector_;    // Cure mode only
  DepVec context_;  // COPS mode only
  FlatSet<uint64_t> context_uids_;
  size_t max_context_ = 0;

  Phase phase_ = Phase::kIdle;
  bool stopped_ = false;
  PlannedOp current_op_;
  DcId target_dc_ = kInvalidDc;
  uint64_t next_request_ = 0;
  uint64_t inflight_request_ = 0;
  SimTime issued_at_ = 0;

  uint64_t ops_completed_ = 0;
  uint64_t migrations_ = 0;
};

}  // namespace saturn

#endif  // SRC_WORKLOAD_CLIENT_H_
