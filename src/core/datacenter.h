// Datacenter fabric shared by every consistency protocol.
//
// This class implements the paper's abstract datacenter decomposition
// (section 4): stateless frontends intercept client requests, gears generate
// labels and ship update payloads to replicas, and a protocol-specific policy
// decides when remote updates become visible. Saturn, GentleRain, Cure, COPS
// and the eventually-consistent baseline are subclasses that differ *only* in
// metadata handling and visibility gating, so performance differences between
// them are protocol differences, exactly as in the paper's testbed.
//
// The remote-update path the gated protocols share lives here once: the bulk
// channel records every payload label and heartbeat into one per-(dc, gear)
// progress table before any protocol hook runs, payloads wait in one
// label-sorted pending buffer, applies run on one monotone visibility chain,
// and attaches complete through one helper. A protocol contributes only its
// visibility rule: which pending payloads are eligible, and when.
#ifndef SRC_CORE_DATACENTER_H_
#define SRC_CORE_DATACENTER_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/dc_set.h"
#include "src/common/flat_map.h"
#include "src/common/seq_window.h"
#include "src/common/types.h"
#include "src/core/cost_model.h"
#include "src/core/gear.h"
#include "src/core/label.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/core/oracle.h"
#include "src/kvstore/partitioned_store.h"
#include "src/sim/actor.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/random.h"
#include "src/sim/timer.h"

namespace saturn {

// Maps a key to the set of datacenters replicating it.
using ReplicaResolver = std::function<DcSet(KeyId)>;

struct DatacenterConfig {
  DcId id = 0;
  uint32_t num_gears = 4;
  SimTime clock_skew = 0;
  CostModel costs;

  // GentleRain / Cure stabilization period (paper: 5 ms, authors' setting).
  SimTime stabilization_interval = Millis(5);
  // Saturn label-sink flush period (labels are collected asynchronously and
  // periodically ordered by timestamp, section 4).
  SimTime sink_flush_interval = Millis(1);
  // Bulk-channel heartbeat period (timestamp-order stability progress).
  SimTime bulk_heartbeat_interval = Millis(5);
  // Reliable bulk channel: retransmission margin added on top of two round
  // trips to the peer before an unacked message is resent.
  SimTime bulk_retransmit_margin = Millis(25);
  // Metadata-plane batching on Saturn's reliable links (reliable_link.h):
  // labels pending on a serializer/DC link coalesce into one delta-encoded
  // frame, flushed at batch_max_labels entries / batch_max_bytes encoded
  // bytes or when batch_deadline elapses, whichever first. batch_deadline 0
  // (the default) disables batching entirely and preserves per-label
  // behaviour bit-for-bit.
  uint32_t batch_max_labels = 32;
  uint32_t batch_max_bytes = 1024;
  SimTime batch_deadline = 0;
  // Expected distinct keys this datacenter will store (workload config hint).
  // Non-zero pre-sizes the partitioned store's hash tables so million-key
  // runs skip the rehash cascade; zero keeps lazy growth.
  uint64_t expected_keys = 0;
  uint64_t rng_seed = 1;
};

class DatacenterBase : public Actor {
 public:
  DatacenterBase(Simulator* sim, Network* net, const DatacenterConfig& config,
                 uint32_t num_dcs, ReplicaResolver resolver, Metrics* metrics,
                 CausalityOracle* oracle);
  ~DatacenterBase() override = default;

  // Bulk-data address of a peer datacenter. Must be called for every peer
  // before Start().
  void RegisterPeer(DcId dc, NodeId node);

  // Schedules periodic activities. Subclasses extend.
  virtual void Start();

  void HandleMessage(NodeId from, const Message& msg) override;

  DcId id() const { return config_.id; }
  uint32_t num_dcs() const { return num_dcs_; }
  const DatacenterConfig& config() const { return config_; }
  PartitionedStore& store() { return store_; }

  // Aggregate gear utilization over the run (diagnostics).
  double MeanGearUtilization() const;

  // Observation only: local commits, remote visibility and bulk-channel
  // retransmissions are recorded onto `track` (plus label journeys for
  // sampled uids). Null disables; simulation behaviour is unchanged either
  // way.
  virtual void SetTrace(obs::TraceRecorder* trace, uint32_t track) {
    trace_ = trace;
    trace_track_ = track;
  }

 protected:
  // --- Protocol hooks ----------------------------------------------------

  // Attach handling is fully protocol-specific (paper section 4.1).
  virtual void HandleAttach(NodeId from, const ClientRequest& req) = 0;

  // A remote update payload arrived on the bulk-data channel.
  virtual void OnRemotePayload(const RemotePayload& payload) = 0;

  // Migration requests; the default treats migration as a plain attach
  // round-trip (protocols without migration labels).
  virtual void HandleMigrate(NodeId from, const ClientRequest& req);

  // Fired when a locally issued update has been committed: `label` is the
  // freshly generated label, `payload` the replica-bound message (metadata
  // fields already filled by FillPayloadMetadata). Saturn publishes the label
  // to its label sink here.
  virtual void OnLocalUpdateCommitted(const ClientRequest& req, const Label& label) {
    (void)req;
    (void)label;
  }

  // Adds protocol metadata (dependency scalar / vector) to outgoing payloads.
  virtual void FillPayloadMetadata(const ClientRequest& req, RemotePayload* payload) {
    (void)req;
    (void)payload;
  }

  // Extra service cost charged for protocol metadata management.
  virtual SimTime ExtraUpdateCost(const ClientRequest& req) const {
    (void)req;
    return 0;
  }
  virtual SimTime ExtraReadCost(const ClientRequest& req) const {
    (void)req;
    return 0;
  }
  virtual SimTime ExtraRemoteApplyCost(const RemotePayload& payload) const {
    (void)payload;
    return 0;
  }

  // Called at operation completion when the request asked to migrate away
  // afterwards (composite operate-and-migrate). `floor` is the greatest label
  // the operation exposed to the client (its causal past merged with the
  // result); protocols supporting migration labels return one dominating it.
  virtual Label MakeMigrationLabel(const ClientRequest& req, const Label& floor) {
    (void)req;
    (void)floor;
    return Label{LabelType::kHeartbeat, 0, -1, 0, kInvalidDc, 0};
  }

  // Lets protocols attach extra metadata to read responses (Cure returns the
  // version's dependency vector). `version` may be null (key never written).
  virtual void AugmentReadResponse(const ClientRequest& req, const VersionedValue* version,
                                   ClientResponse* resp) {
    (void)req;
    (void)version;
    (void)resp;
  }

  // Messages not understood by the base (stabilization broadcasts, labels).
  virtual void OnOtherMessage(NodeId from, const Message& msg);

  // Lets protocols piggyback state on outgoing bulk heartbeats (Saturn's
  // failover gossip).
  virtual void DecorateHeartbeat(BulkHeartbeat* hb) { (void)hb; }

  // Timestamp floor gear `g` promises never to go below, as used by outbound
  // bulk heartbeats.
  int64_t GearHeartbeatFloor(uint32_t g) { return gears_[g]->HeartbeatTimestamp(); }

  // --- Facilities for subclasses -----------------------------------------

  // Runs `fn` once every `interval`, starting one interval from now. The
  // callback is stored once in a PeriodicTimer owned by this datacenter;
  // steady-state ticks schedule only a pointer-sized event (see timer.h).
  void EveryInterval(SimTime interval, std::function<void()> fn);

  // Applies a remote update: charges the gear, installs the version, records
  // visibility and notifies the oracle. The update becomes visible at
  // max(gear completion, min_visible). Unordered: only the eventual baseline
  // calls this directly; gated protocols go through ApplyOrdered.
  void ApplyRemoteUpdate(const RemotePayload& payload, SimTime min_visible) {
    ApplyRemoteUpdateImpl(payload, min_visible);
  }

  // --- Remote-update path shared by the gated protocols ------------------

  // Highest timestamp received from remote (dc, gear) on the bulk channel,
  // from payload labels and heartbeats alike; -1 before the first. The own
  // row stays -1.
  int64_t GearFloor(DcId dc, uint32_t gear) const {
    return gear_floor_[static_cast<size_t>(dc) * config_.num_gears + gear];
  }
  // Minimum GearFloor over `dc`'s gears: every payload `dc` sends from now
  // on carries a greater timestamp.
  int64_t OriginFloor(DcId dc) const;
  // Bumped whenever a GearFloor advances, so subclasses can cache minima.
  uint64_t bulk_progress_version() const { return bulk_progress_version_; }

  // Inserts `payload` into pending_ in label order — an exact duplicate
  // replaces the buffered copy — and records the payload.buffered hop.
  void BufferRemote(const RemotePayload& payload);
  // Position of the pending payload carrying exactly `label`, or
  // pending_.end().
  std::vector<RemotePayload>::iterator FindPending(const Label& label);

  // Applies `payload` on the monotone visibility chain: it becomes visible
  // no earlier than every update applied through the chain before it. The
  // visibility time is passed to `done`, synchronously; templated so
  // per-apply continuations never pay a std::function heap allocation.
  template <typename DoneFn>
  void ApplyOrdered(const RemotePayload& payload, DoneFn&& done) {
    last_visible_ = ApplyRemoteUpdateImpl(payload, VisibilityFloor());
    std::forward<DoneFn>(done)(last_visible_);
  }
  void ApplyOrdered(const RemotePayload& payload) {
    last_visible_ = ApplyRemoteUpdateImpl(payload, VisibilityFloor());
  }
  // Applies, in label order, every pending payload with ts <= bound and
  // drops them from pending_. Labels order by timestamp first, so the
  // eligible set is a prefix; ApplyOrdered never mutates pending_
  // (visibility is deferred through the event queue), so the prefix is
  // applied in order and erased in one shift. `on_apply(payload)` runs
  // before each apply.
  template <typename OnApply>
  void ApplyPendingUpTo(int64_t bound, OnApply&& on_apply) {
    size_t eligible = 0;
    while (eligible < pending_.size() && pending_[eligible].label.ts <= bound) {
      on_apply(pending_[eligible]);
      ApplyOrdered(pending_[eligible]);
      ++eligible;
    }
    if (eligible > 0) {
      pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(eligible));
    }
  }
  void ApplyPendingUpTo(int64_t bound) {
    ApplyPendingUpTo(bound, [](const RemotePayload&) {});
  }

  // An attach parked until the protocol's visibility rule admits it.
  struct AttachWaiter {
    NodeId from;
    ClientRequest req;
    uint32_t missing = 0;  // COPS: local dependencies not yet applied
  };
  // Completes an attach once everything the client may have observed is
  // visible: the response leaves at the visibility chain's tail (or now, if
  // later) plus the frontend's attach cost. Every attach, immediate or
  // released from a wait, pays that cost.
  void CompleteAttach(NodeId from, const ClientRequest& req);
  // Completes every parked attach for which `ready(waiter)` holds, in
  // arrival order, and compacts the survivors in place.
  template <typename Ready>
  void ReleaseAttachWaiters(Ready&& ready) {
    size_t keep = 0;
    for (size_t i = 0; i < attach_waiters_.size(); ++i) {
      AttachWaiter& w = attach_waiters_[i];
      if (ready(w)) {
        CompleteAttach(w.from, w.req);
      } else {
        if (keep != i) {
          attach_waiters_[keep] = std::move(w);
        }
        ++keep;
      }
    }
    attach_waiters_.resize(keep);
  }

  // One two-stage stabilization round (GentleRain, Cure): charges the round's
  // CPU at every gear, promotes the per-origin minima staged last round into
  // stable_, then re-stages every OriginFloor. The one-round lag models the
  // partitions aggregating before the datacenter combines their results.
  // Staged minima of monotone floors are monotone, so stable_ only grows.
  // Returns whether any remote entry advanced.
  bool Stabilize();

  // Sends a heartbeat from every gear to every peer over the bulk channel.
  void SendBulkHeartbeats();

  // Reliable DC<->DC bulk channel (payloads and heartbeats). Messages get a
  // per-destination sequence number, are retransmitted until cumulatively
  // acked, and are delivered to the protocol hooks in sending order with
  // duplicates suppressed. This is the TCP connection the paper assumes for
  // the bulk-data layer, made explicit so lossy faults cannot silently lose
  // an update — or let a heartbeat overtake the payload it vouches for,
  // which would advance timestamp stability (or the GST / stable vector)
  // past an undelivered update.
  void SendBulk(DcId dest, Message msg);

  Gear& GearFor(KeyId key) { return *gears_[store_.PartitionOf(key)]; }
  Gear& RandomGear() { return *gears_[rng_.NextBounded(gears_.size())]; }

  Simulator* sim_;
  Network* net_;
  DatacenterConfig config_;
  uint32_t num_dcs_;
  ReplicaResolver resolver_;
  Metrics* metrics_;
  CausalityOracle* oracle_;  // may be null (benchmarks)

  PhysicalClock clock_;
  PartitionedStore store_;
  std::vector<std::unique_ptr<Gear>> gears_;
  std::vector<NodeId> peer_nodes_;  // indexed by DcId; self = kInvalidNode
  Rng rng_;
  obs::TraceRecorder* trace_ = nullptr;  // null = tracing disabled
  uint32_t trace_track_ = 0;

  // Remote payloads awaiting visibility, sorted by label. A sorted vector
  // (not a multiset) so steady-state traffic recycles the same slots, and
  // the label total order (ts, src) makes exact-label lookup a binary
  // search.
  std::vector<RemotePayload> pending_;
  std::vector<AttachWaiter> attach_waiters_;
  // Tail of the visibility chain: when the last ordered apply lands.
  SimTime last_visible_ = 0;
  // Stable per-origin timestamps from Stabilize (Cure's SV; GentleRain's GST
  // is their minimum over remote datacenters). Own entry unused.
  DcVec stable_;

 private:
  // Sent but not yet cumulatively acked; lives in the peer's send window.
  struct BulkOutEntry {
    Message msg;
    SimTime sent_at = 0;  // last (re)transmission time
  };

  struct BulkPeerState {
    uint64_t next_out = 1;                 // next sequence number to assign
    SeqWindow<BulkOutEntry> unacked;       // contiguous [acked+1, next_out)
    uint64_t next_in = 1;                  // next sequence expected from the peer
    uint64_t acked_in = 0;                 // highest in-seq we have acked back
    FlatMap<uint64_t, Message> reorder;    // arrived ahead of a gap
  };

  // First pending_ position whose label is not below `label`.
  std::vector<RemotePayload>::iterator PendingSlot(const Label& label);
  // Earliest instant anything may become visible now: the visibility chain's
  // tail or the present, whichever is later.
  SimTime VisibilityFloor() const {
    return last_visible_ > sim_->Now() ? last_visible_ : sim_->Now();
  }
  // Shared body of ApplyRemoteUpdate; returns the visibility time.
  SimTime ApplyRemoteUpdateImpl(const RemotePayload& payload, SimTime min_visible);
  // Last step of CompleteAttach: notifies the oracle and responds to the
  // client.
  void FinishAttach(NodeId from, const ClientRequest& req);

  void HandleClientRequest(NodeId from, const ClientRequest& req);
  void HandleRead(NodeId from, const ClientRequest& req);
  void HandleUpdate(NodeId from, const ClientRequest& req);

  void ReceiveBulk(DcId origin, uint64_t seq, const Message& msg);
  void DeliverBulk(DcId origin, const Message& msg);
  void HandleBulkAck(const BulkAck& ack);
  void BulkChannelTick();  // acks delivered prefixes, retransmits unacked
  void ScheduleBulkTick();
  bool BulkWorkPending() const;
  void SendBulkAck(DcId dest);
  SimTime BulkRto(DcId dest) const;

  std::vector<BulkPeerState> bulk_peers_;  // indexed by DcId
  // GearFloor table, flattened to [dc * num_gears + gear].
  std::vector<int64_t> gear_floor_;
  uint64_t bulk_progress_version_ = 0;
  DcVec staged_;  // per-origin floors awaiting the next Stabilize
  LazyTimer bulk_tick_;
  std::vector<std::unique_ptr<PeriodicTimer>> periodic_;  // EveryInterval handles
};

}  // namespace saturn

#endif  // SRC_CORE_DATACENTER_H_
