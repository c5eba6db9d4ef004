// Open-loop session multiplexer: a million logical client sessions per run.
//
// The closed-loop Client is one actor per session — fine at paper scale,
// hopeless at a million users (an actor, a generator allocation, an Rng and a
// node id each). A SessionMux is *one* actor per datacenter that multiplexes
// every session homed there: per-session state shrinks to a compact POD slot
// (greatest observed label, phase, in-flight op, queue count) in one
// pre-sized slab, and the actor drives arrivals from a seeded Poisson
// schedule instead of a response-triggered loop — open-loop load, where
// offered rate is an input and queue growth/shedding is an observable output,
// which is how production systems are actually judged.
//
// Traffic shapes compose on the arrival process: an ArrivalPlan scripts rate
// steps/ramps (regional imbalance, load sweeps), flash-crowd bursts and
// diurnal curves, all deterministic; Zipf session popularity skews arrivals
// toward hub users, whose keys the streaming graph also makes hot. Operations
// follow the Facebook interaction mix (Benevenuto et al.) over the streaming
// power-law graph, so friend reads hit hub keys without materializing any
// adjacency.
//
// The migration machinery mirrors Client exactly (Saturn migration labels,
// operate-and-migrate composites, attach round trips), so open-loop runs
// exercise the same protocol paths the paper's benches pin. Supported client
// modes are the label-only ones (kScalar, kSaturn): Cure vectors and COPS
// contexts grow per-session state past a flat slot, and closed-loop Client
// remains the tool for those protocols.
#ifndef SRC_WORKLOAD_SESSION_MUX_H_
#define SRC_WORKLOAD_SESSION_MUX_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/label.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/core/oracle.h"
#include "src/sim/actor.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/random.h"
#include "src/stats/histogram.h"
#include "src/workload/arrival_plan.h"
#include "src/workload/client.h"
#include "src/workload/facebook_workload.h"
#include "src/workload/replication.h"
#include "src/workload/streaming_graph.h"

namespace saturn {

struct SessionMuxConfig {
  DcId home = 0;
  uint32_t num_dcs = 1;
  ClientProtocolMode mode = ClientProtocolMode::kScalar;  // kScalar / kSaturn only
  // Sessions across the whole deployment; user u is a session homed at DC
  // u % num_dcs, so this mux owns slots for users with u % num_dcs == home.
  uint64_t total_sessions = 0;
  // Steady arrival rate for *this* DC's sessions, ops/sec. An ArrivalPlan
  // reshapes it over time (plan rate/ramp values are absolute per-DC rates).
  double arrival_rate = 1000;
  // Session-popularity skew (Zipf theta over this mux's slots; 0 = uniform).
  // Hot sessions are hub users: slot rank follows user id, and low ids hold
  // the streaming graph's attachment mass.
  double zipf_theta = 0;
  // Arrivals for a busy session queue up to this depth; excess is shed (and
  // counted). Queued arrivals store no payload — ops are generated at
  // dispatch — so a slot's queue costs one byte regardless of depth.
  uint32_t max_queue = 8;
  FacebookMixConfig mix;
  uint64_t seed = 1;
};

class SessionMux : public Actor {
 public:
  SessionMux(Simulator* sim, Network* net, const ReplicaMap* replicas,
             const StreamingSocialGraph* graph, const ArrivalPlan* plan, Metrics* metrics,
             CausalityOracle* oracle, const SessionMuxConfig& config,
             std::vector<NodeId> dc_nodes, std::function<DcId(KeyId, DcId)> remote_target);

  // Begins the arrival schedule.
  void Start();

  // Stops new arrivals and drops queued ones; in-flight operations complete.
  void Stop() { stopped_ = true; }

  void HandleMessage(NodeId from, const Message& msg) override;

  uint64_t num_slots() const { return slots_.size(); }
  uint64_t arrivals() const { return arrivals_; }
  uint64_t ops_completed() const { return ops_completed_; }
  uint64_t queued_total() const { return queued_total_; }
  uint64_t shed() const { return shed_; }
  uint64_t migrations() const { return migrations_; }
  uint32_t max_queue_depth() const { return max_queue_depth_; }
  // Arrivals queued or in flight right now (0 after a drained stop).
  uint64_t backlog() const { return backlog_; }
  // Time arrivals spent queued behind a busy session before dispatch, sampled
  // at the dequeue. Published into the cluster's metrics registry.
  const LatencyHistogram* queue_wait() const { return &queue_wait_; }

 private:
  // Client's phase machine, flattened into one byte per session.
  enum Phase : uint8_t {
    kIdle = 0,
    kLocalOp,
    kMigrateOut,
    kAttachTarget,
    kRemoteOp,
    kAttachHome,
  };

  // One logical session. Plain data; the slab is sized once at construction.
  struct Slot {
    Label label = kBottomLabel;  // greatest observed label (section 4.1)
    SimTime issued_at = 0;       // start of the in-flight round trip
    SimTime queued_since = 0;    // arrival time of the oldest queued op
    KeyId op_key = 0;
    uint32_t seq = 0;  // per-session request counter (low 24 request-id bits)
    uint8_t phase = kIdle;
    uint8_t op_is_update = 0;
    uint8_t target_dc = 0;
    uint8_t queued = 0;  // arrivals waiting behind the in-flight op
  };

  uint32_t UserOf(uint64_t slot) const {
    return static_cast<uint32_t>(slot * config_.num_dcs + config_.home);
  }

  void ScheduleNextArrival();
  void OnArrival();
  void StartOp(uint64_t slot, SimTime issued_at);
  void SendOp(uint64_t slot, Phase phase);
  void Send(DcId dc, ClientRequest req);
  ClientRequest BaseRequest(uint64_t slot, ClientOpType op);
  void OnResponse(uint64_t slot, const ClientResponse& resp);
  void CompleteOp(uint64_t slot);
  // Facebook-mix op generation over the streaming graph; fills the slot's
  // op_key / op_is_update.
  void GenerateOp(uint64_t slot);

  Simulator* sim_;
  Network* net_;
  const ReplicaMap* replicas_;
  const StreamingSocialGraph* graph_;
  const ArrivalPlan* plan_;  // may be null (steady rate)
  Metrics* metrics_;
  CausalityOracle* oracle_;
  SessionMuxConfig config_;
  std::vector<NodeId> dc_nodes_;
  std::function<DcId(KeyId, DcId)> remote_target_;

  Rng rng_;
  std::unique_ptr<ZipfSampler> session_zipf_;  // null = uniform
  std::vector<Slot> slots_;
  double mix_cum_[4];  // cumulative mix fractions (browse_friend..write_own)
  bool stopped_ = false;

  uint64_t arrivals_ = 0;
  uint64_t ops_completed_ = 0;
  uint64_t queued_total_ = 0;
  uint64_t shed_ = 0;
  uint64_t migrations_ = 0;
  uint64_t backlog_ = 0;
  uint32_t max_queue_depth_ = 0;
  LatencyHistogram queue_wait_;
};

}  // namespace saturn

#endif  // SRC_WORKLOAD_SESSION_MUX_H_
