// Saturn-attached datacenter (paper sections 2-4 and 6).
//
// Local side: gears hand every generated label to the label sink, which
// periodically orders its batch by timestamp — a causality-compliant serial
// stream — and feeds it to the adjacent serializer of the current tree.
//
// Remote side: the remote proxy consumes the label stream Saturn delivers and
// applies each remote update when both its label (from the stream, in order)
// and its payload (from the bulk-data channel) have arrived. When the stream
// goes silent (serializer outage), a watchdog switches the datacenter to
// timestamp mode, where a drain applies updates once they are
// *timestamp-stable* (every remote gear has passed their timestamp, via
// payload-piggybacked labels and bulk heartbeats) — the section 6.1 fallback
// that keeps data available through a Saturn outage. The two mechanisms never
// run concurrently in steady state: applying timestamp-stable data ahead of
// its label at one datacenter would let a dependent update's label overtake
// it in another datacenter's stream. Both share one monotone visibility
// floor, so visibility order respects causality across mode transitions.
//
// With no tree attached the datacenter runs in pure timestamp mode: this is
// the paper's peer-to-peer "P-configuration" (section 7.1).
#ifndef SRC_SATURN_SATURN_DC_H_
#define SRC_SATURN_SATURN_DC_H_

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/ring_buffer.h"
#include "src/core/datacenter.h"
#include "src/saturn/reliable_link.h"

namespace saturn {

class SaturnDc : public DatacenterBase {
 public:
  SaturnDc(Simulator* sim, Network* net, const DatacenterConfig& config, uint32_t num_dcs,
           ReplicaResolver resolver, Metrics* metrics, CausalityOracle* oracle);

  // Wires this datacenter to its adjacent serializer for `epoch`. Not calling
  // this at all yields the peer-to-peer timestamp-mode configuration.
  void AttachToTree(uint32_t epoch, NodeId serializer_node);

  void Start() override;

  // --- Reconfiguration (section 6.2) -------------------------------------

  // Fast path: the current tree is healthy. Emits an epoch-change label via
  // the old tree and moves label emission to `new_epoch`'s tree. The remote
  // proxy switches once epoch-change labels from every datacenter have been
  // processed and everything before them applied.
  void BeginEpochSwitch(uint32_t new_epoch);

  // Generalized fast switch for membership changes. `participants` is the set
  // of datacenters attached to the *old* tree (whose epoch-change labels must
  // drain before the switch completes); `next_active` is the metadata-service
  // membership once the new tree is live — a superset of the old active set
  // on a join, a subset on a leave. The plain overload above delegates with
  // participants = next_active = the current active set.
  void BeginEpochSwitch(uint32_t new_epoch, DcSet participants, DcSet next_active);

  // Joiner bootstrap: this datacenter was not part of any earlier epoch (it
  // was deployed deferred) and enters the service directly at `epoch`, whose
  // tree must already be attached. It runs in timestamp mode — applying
  // everything timestamp-stable on the bulk channel — until every active
  // remote origin's new-epoch stream has begun (resync fences) and stability
  // passes the fences, then flips to stream mode fully caught up. Bootstrap
  // is not a degraded mode: no fallback accounting.
  void JoinAtEpoch(uint32_t epoch, DcSet active);

  // Graceful decommission of the metadata-service role: emits an epoch-change
  // label through the old tree like a fast switch, drains the old stream, and
  // then *detaches* instead of installing a successor epoch — the datacenter
  // keeps replicating over the bulk channel in pure timestamp mode (the
  // paper's P-configuration). `participants` is the old tree's membership.
  void BeginLeaveSwitch(DcSet participants);

  // Current metadata-service membership as this datacenter sees it. Defaults
  // to all datacenters; Cluster overrides it before Start() when some are
  // deployed deferred.
  void SetActiveSet(DcSet active);
  DcSet active_set() const { return active_; }

  // Declares `dc` live on the *bulk* plane: its gear floors join the
  // timestamp-stability minimum. Must be called on every running datacenter
  // before a joiner's clients can commit updates — once a new origin can
  // produce timestamped updates, stability must wait on its heartbeats, or
  // the drain could apply around an in-flight update of lower timestamp.
  // Monotone: origins are added on join and never removed (a datacenter that
  // left the tree keeps replicating and heartbeating over bulk).
  void AddStabilityOrigin(DcId dc);

  bool switching() const { return switching_; }
  bool failover_pending() const { return failover_pending_; }
  bool attached_to_tree() const { return has_tree_; }

  // Failure path: the current tree is unusable. Runs on timestamp-order
  // stability until epoch-change labels from every datacenter have been
  // delivered by the new tree and everything up to them is stable, then
  // resumes stream mode on the new tree. Invoked by the failure detector
  // (auto failover) or explicitly by an operator / test. Idempotent: calls
  // for an epoch we already reached (or are already failing over to) are
  // no-ops, so the detector racing an operator is harmless.
  void BeginFailoverSwitch(uint32_t new_epoch);

  bool in_timestamp_mode() const { return ts_mode_; }
  uint32_t current_epoch() const { return epoch_; }
  SimTime fallback_timeout() const { return fallback_timeout_; }
  void set_fallback_timeout(SimTime t) { fallback_timeout_ = t; }
  // Extra silence beyond fallback_timeout_ before the failure detector gives
  // up on the current tree and fails over to a deployed backup epoch.
  SimTime failover_grace() const { return failover_grace_; }
  void set_failover_grace(SimTime t) { failover_grace_ = t; }
  void set_auto_failover(bool enabled) { auto_failover_ = enabled; }

  // Adaptive failure detection: when a provider is set, the whole-stream
  // silence threshold becomes max(fallback_timeout_, multiplier * provider())
  // where provider() returns the current max measured RTT to any active peer
  // (see TopologyMonitor::MaxRttFrom). A link that legitimately slows raises
  // the estimate — and the threshold with it — instead of tripping a false
  // failover. fallback_timeout_ stays as the floor.
  using RttProvider = std::function<SimTime()>;
  void SetRttProvider(RttProvider provider, double multiplier) {
    rtt_provider_ = std::move(provider);
    rtt_multiplier_ = multiplier;
  }
  SimTime effective_fallback_timeout() const;

  void SetTrace(obs::TraceRecorder* trace, uint32_t track) override {
    DatacenterBase::SetTrace(trace, track);
    links_.SetTrace(trace, track);  // retransmits show on this DC's track
  }

  uint64_t link_retransmissions() const { return links_.retransmissions(); }
  uint64_t link_retransmit_storms() const { return links_.retransmit_storms(); }
  uint64_t link_retransmit_coalesced() const { return links_.retransmit_coalesced(); }

 protected:
  void HandleAttach(NodeId from, const ClientRequest& req) override;
  void HandleMigrate(NodeId from, const ClientRequest& req) override;
  Label MakeMigrationLabel(const ClientRequest& req, const Label& floor) override;
  void OnRemotePayload(const RemotePayload& payload) override;
  void OnOtherMessage(NodeId from, const Message& msg) override;
  void OnLocalUpdateCommitted(const ClientRequest& req, const Label& label) override;
  void DecorateHeartbeat(BulkHeartbeat* hb) override;

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
  using LabelKey = std::pair<SourceId, int64_t>;

  static LabelKey KeyOf(const Label& label) { return {label.src, label.ts}; }

  // --- Label sink ---------------------------------------------------------
  void EmitLabel(const Label& label, DcSet interest);
  void FlushSink();
  // Membership the labels we are *emitting now* belong to: the post-switch
  // set while a switch or failover is in flight, the live set otherwise.
  DcSet EmitActive() const {
    return (switching_ || failover_pending_) ? next_active_ : active_;
  }

  // --- Remote proxy -------------------------------------------------------
  void OnStreamEnvelope(NodeId from, const LabelEnvelope& env);
  void PumpStream();
  void ProcessStreamLabel(const LabelEnvelope& env);
  void TimestampDrain();
  int64_t TimestampStable() const;
  int64_t MinRemoteStreamProgress() const;
  // ApplyPendingUpTo callback recording each timestamp-drained uid, so the
  // stream skips the label when it arrives.
  auto MarkApplied() {
    return [this](const RemotePayload& p) { applied_uids_.Insert(p.label.uid); };
  }
  void OrphanRepair();
  void CheckAttachWaiters();
  bool WaiterReady(const ClientRequest& req) const;

  // --- Failure detection and recovery -------------------------------------
  void ArmWatchdog();
  void Watchdog();
  void EnterTimestampMode();
  void ExitTimestampMode();
  void TryResyncExit();
  void EmitFailoverChange();
  void MaybeResumeAfterFailover();
  void FinishEpochSwitch();

  // Reliable (TCP-like) metadata links to and from the serializer tree; see
  // reliable_link.h for why label traffic must never be silently lost.
  ReliableLinks links_;

  // Tree attachment per epoch.
  std::map<uint32_t, NodeId> tree_neighbor_;
  uint32_t epoch_ = 0;
  uint32_t emit_epoch_ = 0;
  bool has_tree_ = false;

  // Label sink state.
  std::vector<LabelEnvelope> sink_;
  int64_t last_heartbeat_ts_ = -1;

  // Stream state. Ring-backed queues recycle their slots: steady-state label
  // traffic stops paying std::deque's block allocations.
  RingQueue<LabelEnvelope> stream_;
  RingQueue<LabelEnvelope> buffered_next_epoch_;
  std::vector<int64_t> stream_progress_;  // per origin DC: max processed label ts
  SimTime last_stream_activity_ = 0;
  std::vector<SimTime> last_label_seen_;  // per origin DC: last stream label time

  // Both drains share DatacenterBase's pending buffer and visibility chain:
  // the stream pops exact labels (FindPending), the timestamp drain pops the
  // smallest-label prefix (ApplyPendingUpTo). Every uid applied either way is
  // recorded here, so a late stream label or a duplicate payload is skipped.
  FlatSet<uint64_t> applied_uids_;

  // Timestamp-stability state.
  bool ts_mode_ = false;
  // Lazily recomputed minima for the hot stability predicates: the bulk
  // floors (DatacenterBase::GearFloor, invalidated through
  // bulk_progress_version) and the stream progress (PumpStream). Membership
  // changes set the dirty flags. TimestampStable and WaiterReady run once per
  // stream/bulk event and would otherwise rescan O(dcs * gears) state every
  // time.
  mutable int64_t ts_stable_cache_ = -1;
  mutable bool ts_stable_dirty_ = true;
  mutable uint64_t ts_stable_version_ = 0;
  mutable int64_t min_remote_progress_cache_ = -1;
  mutable bool min_remote_progress_dirty_ = true;
  SimTime fallback_timeout_ = Millis(300);
  SimTime outage_started_ = 0;
  // Resync-to-stream fence: per remote origin, the timestamp of the first
  // current-epoch label that arrived after entering fallback (-1 = none yet).
  // Anything the outage lost from that origin precedes its fence, so once
  // everything up to every fence is timestamp-stable (hence applied), the
  // buffered stream suffix is gap-free and stream mode can resume.
  std::vector<int64_t> resync_fence_;

  // Metadata-service membership. `active_` is the set of datacenters whose
  // streams / bulk heartbeats the stability and completion predicates wait
  // on; `next_active_` is the membership after an in-flight switch completes
  // (== active_ except during a join/leave). Heartbeat-label interest follows
  // the *emit* epoch's membership so a joiner starts receiving per-origin
  // liveness on the new tree before the stayers' switch completes.
  DcSet active_;
  DcSet next_active_;
  // Bulk-plane origin set: every datacenter whose timestamped updates can
  // reach us, whether or not it is attached to a tree. Drives the
  // timestamp-stability minimum; grows on joins, never shrinks (see
  // AddStabilityOrigin).
  DcSet stability_origins_;

  // Reconfiguration state.
  bool switching_ = false;
  bool failover_pending_ = false;
  bool leaving_ = false;        // this switch detaches us instead of moving epochs
  bool bootstrapping_ = false;  // joiner catching up through timestamp mode
  bool started_ = false;
  bool watchdog_armed_ = false;  // the 10ms failure-detector tick is running
  uint32_t next_epoch_ = 0;
  DcSet epoch_change_seen_;
  DcSet switch_participants_;  // old-tree members whose change labels must drain

  // Failure detector / automatic failover state.
  RttProvider rtt_provider_;
  double rtt_multiplier_ = 3.0;
  bool auto_failover_ = true;
  SimTime failover_grace_ = Millis(500);
  SimTime last_change_emit_ = 0;
  Label failover_change_label_ = kBottomLabel;
  DcSet failover_change_seen_;   // remote DCs whose change label arrived
  int64_t failover_fence_ = -1;  // max change-label ts seen (incl. our own)

  // Migration labels delivered to this datacenter by the stream.
  std::set<LabelKey> completed_migrations_;
};

}  // namespace saturn

#endif  // SRC_SATURN_SATURN_DC_H_
