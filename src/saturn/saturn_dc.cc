#include "src/saturn/saturn_dc.h"

#include <algorithm>

namespace saturn {

SaturnDc::SaturnDc(Simulator* sim, Network* net, const DatacenterConfig& config,
                   uint32_t num_dcs, ReplicaResolver resolver, Metrics* metrics,
                   CausalityOracle* oracle)
    : DatacenterBase(sim, net, config, num_dcs, std::move(resolver), metrics, oracle),
      links_(sim, net, this,
             [this](NodeId from, const LabelEnvelope& env) { OnStreamEnvelope(from, env); }),
      stream_progress_(num_dcs, -1),
      active_(DcSet::FirstN(num_dcs)),
      next_active_(DcSet::FirstN(num_dcs)),
      stability_origins_(DcSet::FirstN(num_dcs)) {
  links_.ConfigureBatching(
      {config.batch_max_labels, config.batch_max_bytes, config.batch_deadline});
  if (config.expected_keys > 0) {
    // The applied-update dedup set sees at least one uid per remotely written
    // key; seeding it from the keyspace hint skips the early rehash cascade.
    applied_uids_.Reserve(config.expected_keys);
  }
}

void SaturnDc::SetActiveSet(DcSet active) {
  SAT_CHECK(!started_);
  active_ = active;
  next_active_ = active;
  stability_origins_ = active;
  ts_stable_dirty_ = true;
  min_remote_progress_dirty_ = true;
}

void SaturnDc::AddStabilityOrigin(DcId dc) {
  if (stability_origins_.Contains(dc)) {
    return;
  }
  stability_origins_.Add(dc);
  ts_stable_dirty_ = true;
}

void SaturnDc::AttachToTree(uint32_t epoch, NodeId serializer_node) {
  tree_neighbor_[epoch] = serializer_node;
  has_tree_ = true;
}

void SaturnDc::Start() {
  DatacenterBase::Start();
  started_ = true;
  if (!has_tree_) {
    // Peer-to-peer configuration: timestamp-order stability is the only
    // delivery mechanism. Not a degraded mode, so no fallback accounting.
    ts_mode_ = true;
  }
  last_stream_activity_ = sim_->Now();
  last_label_seen_.assign(num_dcs_, sim_->Now());
  resync_fence_.assign(num_dcs_, -1);
  EveryInterval(config_.sink_flush_interval, [this]() { FlushSink(); });
  EveryInterval(config_.bulk_heartbeat_interval, [this]() {
    SendBulkHeartbeats();
    TimestampDrain();
  });
  if (has_tree_) {
    ArmWatchdog();
  }
}

void SaturnDc::ArmWatchdog() {
  if (watchdog_armed_) {
    return;
  }
  watchdog_armed_ = true;
  EveryInterval(Millis(10), [this]() { Watchdog(); });
}

// --------------------------------------------------------------------------
// Failure detector
// --------------------------------------------------------------------------

void SaturnDc::Watchdog() {
  if (!has_tree_ || num_dcs_ <= 1) {
    return;
  }
  SimTime now = sim_->Now();
  if (!ts_mode_) {
    // A silent stream means the tree is partitioned or its serializers are
    // down; timestamp-order stability takes over (section 6.1). Silence of
    // the *whole* stream is the trigger: a single quiet peer pair already
    // degrades only that pair's visibility, and per-origin triggers would
    // freeze every origin's visibility behind the global stability cut.
    if (now - last_stream_activity_ > effective_fallback_timeout()) {
      EnterTimestampMode();
    }
    return;
  }
  if (failover_pending_) {
    // The epoch-change label travels on the freshly deployed tree, which the
    // same fault episode may still be disturbing; re-emit until every peer
    // has answered. Duplicates are idempotent on the receiving side.
    if (now - last_change_emit_ >= Millis(100)) {
      EmitFailoverChange();
    }
    TimestampDrain();
    return;
  }
  TimestampDrain();  // also attempts the resync exit
  if (ts_mode_ && auto_failover_ &&
      now - last_stream_activity_ > effective_fallback_timeout() + failover_grace_) {
    // The old tree stayed silent well past the fallback trigger: give up on
    // it and fail over to the highest pre-deployed backup epoch.
    uint32_t target = tree_neighbor_.rbegin()->first;
    if (target > epoch_) {
      BeginFailoverSwitch(target);
    }
  }
}

void SaturnDc::EnterTimestampMode() {
  if (ts_mode_) {
    return;
  }
  ts_mode_ = true;
  outage_started_ = sim_->Now();
  resync_fence_.assign(num_dcs_, -1);
  if (metrics_ != nullptr) {
    metrics_->RecordFallbackEnter(config_.id, sim_->Now());
  }
  if (trace_ != nullptr) {
    trace_->SpanBegin(sim_->Now(), trace_track_, "timestamp-mode");
  }
  TimestampDrain();
}

void SaturnDc::ExitTimestampMode() {
  if (!ts_mode_) {
    return;
  }
  ts_mode_ = false;
  last_stream_activity_ = sim_->Now();
  if (bootstrapping_) {
    // Joiner bootstrap completed: caught up and in stream mode. Not an
    // outage, so no fallback/failover accounting.
    bootstrapping_ = false;
    if (trace_ != nullptr) {
      trace_->SpanEnd(sim_->Now(), trace_track_, "join-bootstrap");
    }
    return;
  }
  if (metrics_ != nullptr) {
    metrics_->RecordFallbackExit(config_.id, sim_->Now());
    metrics_->RecordFailoverLatency(sim_->Now() - outage_started_);
  }
  if (trace_ != nullptr) {
    trace_->SpanEnd(sim_->Now(), trace_track_, "timestamp-mode");
  }
}

SimTime SaturnDc::effective_fallback_timeout() const {
  if (!rtt_provider_) {
    return fallback_timeout_;
  }
  SimTime adaptive =
      static_cast<SimTime>(rtt_multiplier_ * static_cast<double>(rtt_provider_()));
  return std::max(fallback_timeout_, adaptive);
}

// --------------------------------------------------------------------------
// Label sink
// --------------------------------------------------------------------------

void SaturnDc::EmitLabel(const Label& label, DcSet interest) {
  if (!has_tree_) {
    // Peer-to-peer configuration: update labels ride piggybacked on payloads
    // and migration labels cannot be delivered; attaches fall back to
    // timestamp stability.
    return;
  }
  LabelEnvelope env;
  env.label = label;
  env.interest = interest;
  env.epoch = emit_epoch_;
  sink_.push_back(env);
}

void SaturnDc::FlushSink() {
  if (!has_tree_) {
    return;
  }
  gears_[0]->queue().Submit(sim_->Now(), CostModel::AsTime(config_.costs.sink_flush_us));
  if (!sink_.empty()) {
    if (config_.batch_deadline > 0) {
      // Delta-encoding the outgoing labels costs the sink machine per label.
      gears_[0]->queue().Submit(
          sim_->Now(), CostModel::AsTime(config_.costs.batch_encode_label_us *
                                         static_cast<double>(sink_.size())));
    }
    // Order the batch by timestamp: a causality-compliant serialization of
    // this datacenter's labels (section 4, label sink).
    std::sort(sink_.begin(), sink_.end(),
              [](const LabelEnvelope& a, const LabelEnvelope& b) { return a.label < b.label; });
    for (const auto& env : sink_) {
      auto it = tree_neighbor_.find(env.epoch);
      SAT_CHECK_MSG(it != tree_neighbor_.end(), "no tree for epoch %u", env.epoch);
      if (trace_ != nullptr) {
        trace_->Hop(sim_->Now(), trace_track_, "sink.forward", env.label.uid,
                    env.label.ts, env.epoch);
        if (env.label.type == LabelType::kUpdate && trace_->WantJourney(env.label.uid)) {
          trace_->JourneyHop(sim_->Now(), env.label.uid, obs::HopKind::kSink,
                             trace_track_, static_cast<int32_t>(config_.id));
        }
      }
      links_.Send(it->second, env);
    }
    sink_.clear();
  }
  // Heartbeat label on every flush, busy or idle. Update labels carry
  // interest sets, so under partial replication a datacenter can be starved
  // of labels from one origin even while the stream as a whole is busy; the
  // all-DC heartbeat gives every pair per-origin liveness, which the resync
  // fences below rely on. Safe: every future label from this DC carries
  // ts >= clock now (GenerateTimestamp is monotone over the clock).
  int64_t ts = clock_.Now();
  if (ts <= last_heartbeat_ts_) {
    return;
  }
  last_heartbeat_ts_ = ts;
  LabelEnvelope hb;
  hb.label.type = LabelType::kHeartbeat;
  hb.label.src = MakeSourceId(config_.id, 0);
  hb.label.ts = ts;
  hb.epoch = emit_epoch_;
  // Interest follows the emit epoch's membership: during a join switch the
  // heartbeat must reach the joiner on the new tree so its resync fences fill.
  hb.interest = EmitActive().Minus(DcSet::Single(config_.id));
  auto it = tree_neighbor_.find(emit_epoch_);
  SAT_CHECK(it != tree_neighbor_.end());
  links_.Send(it->second, hb);
}

void SaturnDc::OnLocalUpdateCommitted(const ClientRequest& req, const Label& label) {
  DcSet interest = resolver_(req.key).Minus(DcSet::Single(config_.id));
  if (!interest.Empty()) {
    EmitLabel(label, interest);
  }
}

// --------------------------------------------------------------------------
// Remote proxy: stream drain
// --------------------------------------------------------------------------

void SaturnDc::OnOtherMessage(NodeId from, const Message& msg) {
  (void)from;
  if (const auto* hb = std::get_if<BulkHeartbeat>(&msg)) {
    // DatacenterBase has already recorded the heartbeat's bulk progress.
    // Failover gossip: a peer that is failing over (or already switched)
    // advertises its target epoch here, which reaches us even when the same
    // fault silenced our copy of the epoch-change label.
    if (hb->failover_epoch > epoch_ && tree_neighbor_.count(hb->failover_epoch) != 0 &&
        !switching_) {
      BeginFailoverSwitch(hb->failover_epoch);
    }
    TimestampDrain();
    return;
  }
  if (const auto* env = std::get_if<LabelEnvelope>(&msg)) {
    // Reliable-link ingress: dedup + reorder, then OnStreamEnvelope sees the
    // serializer's exact send order, gap-free.
    links_.OnEnvelope(from, *env);
    return;
  }
  if (const auto* batch = std::get_if<LabelBatch>(&msg)) {
    // Decoding the delta batch is real work on the remote proxy's machine;
    // charge it before the entries flow through the usual stream path.
    gears_[0]->queue().Submit(
        sim_->Now(),
        CostModel::AsTime(config_.costs.batch_decode_label_us * batch->count));
    links_.OnBatch(from, *batch);
    return;
  }
  if (const auto* ack = std::get_if<LinkAck>(&msg)) {
    links_.OnAck(from, *ack);
  }
}

void SaturnDc::OnStreamEnvelope(NodeId from, const LabelEnvelope& env) {
  (void)from;
  last_stream_activity_ = sim_->Now();
  const Label& l = env.label;
  if (l.origin_dc() < num_dcs_) {
    last_label_seen_[l.origin_dc()] = sim_->Now();
  }
  if (trace_ != nullptr && l.type != LabelType::kHeartbeat) {
    trace_->Hop(sim_->Now(), trace_track_, "stream.arrive", l.uid, l.ts, env.epoch);
    if (l.type == LabelType::kUpdate && trace_->WantJourney(l.uid)) {
      trace_->JourneyHop(sim_->Now(), l.uid, obs::HopKind::kStreamArrive, trace_track_,
                         static_cast<int32_t>(config_.id));
    }
  }
  if (env.epoch == epoch_ && !failover_pending_) {
    stream_.push_back(env);
    if (ts_mode_) {
      // Fallback: the stream is buffered, not pumped (timestamp-order
      // application and stream-order application never run concurrently).
      // The first post-outage label per origin becomes its resync fence.
      if (l.origin_dc() < num_dcs_ && resync_fence_[l.origin_dc()] < 0) {
        resync_fence_[l.origin_dc()] = l.ts;
      }
    } else {
      PumpStream();
    }
  } else if (env.epoch > epoch_) {
    // Labels of the next configuration are buffered until the switch
    // completes (section 6.2).
    buffered_next_epoch_.push_back(env);
    if (l.type == LabelType::kEpochChange && !switching_ &&
        tree_neighbor_.count(env.epoch) != 0) {
      // A peer initiated failover to env->epoch: join it, and record the
      // peer's change label for our own resume condition.
      failover_change_seen_.Add(l.origin_dc());
      if (l.ts > failover_fence_) {
        failover_fence_ = l.ts;
      }
      BeginFailoverSwitch(env.epoch);
    }
    if (failover_pending_) {
      TimestampDrain();
    }
  }
  // Labels of past epochs are duplicates of work already covered; drop.
}

void SaturnDc::PumpStream() {
  if (ts_mode_) {
    return;  // the stream is buffered until the resync / failover exit
  }
  for (;;) {
    bool stalled = false;
    while (!stream_.empty()) {
      const LabelEnvelope env = stream_.front();
      const Label& l = env.label;
      if (l.type == LabelType::kUpdate) {
        if (!applied_uids_.Contains(l.uid)) {
          auto it = FindPending(l);
          if (it == pending_.end()) {
            // Stall: the stream may not overtake the bulk-data transfer.
            stalled = true;
            break;
          }
          RemotePayload payload = std::move(*it);
          pending_.erase(it);
          applied_uids_.Insert(payload.label.uid);
          ApplyOrdered(payload);
        }
      } else {
        ProcessStreamLabel(env);
      }
      if (l.origin_dc() < num_dcs_ && l.ts > stream_progress_[l.origin_dc()]) {
        stream_progress_[l.origin_dc()] = l.ts;
        min_remote_progress_dirty_ = true;
      }
      stream_.pop_front();
    }
    // Epoch switch completes once every old-tree participant's change label
    // has been seen and the old-tree stream has fully drained; then keep
    // pumping the buffered new-tree stream it installs. (Trailing old-tree
    // heartbeats may arrive after the change labels, so the check lives here,
    // not at the moment a change label is processed.)
    if (!stalled && switching_ &&
        switch_participants_.Minus(epoch_change_seen_.Union(DcSet::Single(config_.id)))
            .Empty() &&
        stream_.empty()) {
      FinishEpochSwitch();
      continue;
    }
    break;
  }
  OrphanRepair();
  CheckAttachWaiters();
}

void SaturnDc::ProcessStreamLabel(const LabelEnvelope& env) {
  const Label& l = env.label;
  switch (l.type) {
    case LabelType::kHeartbeat:
      break;  // progress bookkeeping happens in PumpStream
    case LabelType::kMigration:
      if (l.target_dc == config_.id) {
        completed_migrations_.insert(KeyOf(l));
      }
      break;
    case LabelType::kEpochChange:
      if (switching_) {
        // Completion is checked in PumpStream once the old stream drains.
        epoch_change_seen_.Add(l.origin_dc());
      }
      break;
    case LabelType::kUpdate:
      break;  // handled by the caller
  }
}

// --------------------------------------------------------------------------
// Remote proxy: timestamp-stability drain (fallback / P-configuration)
// --------------------------------------------------------------------------

int64_t SaturnDc::TimestampStable() const {
  if (num_dcs_ <= 1) {
    return clock_.Now();
  }
  if (ts_stable_dirty_ || ts_stable_version_ != bulk_progress_version()) {
    int64_t stable = kSimTimeNever;
    for (DcId dc : stability_origins_) {
      if (dc != config_.id) {
        stable = std::min(stable, OriginFloor(dc));
      }
    }
    ts_stable_cache_ = stable;
    ts_stable_dirty_ = false;
    ts_stable_version_ = bulk_progress_version();
  }
  return ts_stable_cache_;
}

int64_t SaturnDc::MinRemoteStreamProgress() const {
  if (min_remote_progress_dirty_) {
    int64_t progress = kSimTimeNever;
    for (DcId dc : active_) {
      if (dc != config_.id) {
        progress = std::min(progress, stream_progress_[dc]);
      }
    }
    min_remote_progress_cache_ = progress;
    min_remote_progress_dirty_ = false;
  }
  return min_remote_progress_cache_;
}

void SaturnDc::TimestampDrain() {
  // Timestamp-order application runs ONLY while the metadata service is out
  // (or absent: the peer-to-peer configuration). Running it alongside a
  // healthy stream would be unsound: data made visible ahead of its label at
  // one datacenter lets a client issue an update whose label overtakes its
  // dependency's label in another datacenter's stream, voiding the tree's
  // causal-delivery guarantee. The paper uses timestamp order strictly as the
  // outage fallback (section 6.1).
  if (ts_mode_) {
    ApplyPendingUpTo(TimestampStable(), MarkApplied());
    if (failover_pending_) {
      MaybeResumeAfterFailover();
    } else {
      TryResyncExit();
    }
  } else {
    OrphanRepair();
  }
  CheckAttachWaiters();
}

void SaturnDc::OrphanRepair() {
  // Stream-mode repair for labels a lossy fault ate. A pending payload whose
  // timestamp both (a) every remote origin's stream has passed and (b) is
  // timestamp-stable on the bulk channel can never be applied by its label:
  // per-origin FIFO through the tree means the label would already have
  // arrived. (a) guarantees no queued-but-stalled stream label precedes it,
  // so applying the orphans in timestamp order extends the same causal
  // prefix the stream was building; (b) guarantees every payload that could
  // precede it causally has already arrived on the (reliable, in-order)
  // bulk channel. In fault-free runs the bound never reaches an in-flight
  // label's timestamp, so this is a no-op.
  if (ts_mode_ || !has_tree_ || num_dcs_ <= 1 || pending_.empty()) {
    return;
  }
  ApplyPendingUpTo(std::min(TimestampStable(), MinRemoteStreamProgress()), MarkApplied());
}

void SaturnDc::TryResyncExit() {
  // Transient-outage recovery: the tree is delivering again on the *same*
  // epoch. Resume stream mode once (1) every remote origin has produced a
  // post-outage label (its resync fence) and is recently live, and (2)
  // everything up to every fence is timestamp-stable, hence applied by the
  // drain — so the buffered stream suffix contains no gap the outage lost.
  if (!ts_mode_ || failover_pending_ || !has_tree_ || num_dcs_ <= 1) {
    return;
  }
  SimTime now = sim_->Now();
  int64_t max_fence = -1;
  for (DcId dc : active_) {
    if (dc == config_.id) {
      continue;
    }
    if (resync_fence_[dc] < 0 || now - last_label_seen_[dc] > effective_fallback_timeout()) {
      return;
    }
    max_fence = std::max(max_fence, resync_fence_[dc]);
  }
  if (TimestampStable() < max_fence) {
    return;
  }
  ExitTimestampMode();
  PumpStream();  // labels already covered by the drain dedup via applied_uids_
}

void SaturnDc::OnRemotePayload(const RemotePayload& payload) {
  if (applied_uids_.Contains(payload.label.uid)) {
    return;
  }
  BufferRemote(payload);
  // Drain by timestamp stability *before* pumping the stream: the label
  // piggybacked on the payload is a progress marker for timestamp-order
  // stability (section 6.1, recorded by DatacenterBase), and attach waiters
  // -- re-checked by both drains -- must only complete after every newly
  // stable update has been scheduled for visibility.
  TimestampDrain();
  PumpStream();
}

// --------------------------------------------------------------------------
// Attach and migration (section 4)
// --------------------------------------------------------------------------

bool SaturnDc::WaiterReady(const ClientRequest& req) const {
  const Label& l = req.client_label;
  if (l.ts < 0 || l.origin_dc() == config_.id) {
    return true;
  }
  if (l.type == LabelType::kMigration) {
    if (l.target_dc == config_.id && completed_migrations_.count(KeyOf(l)) != 0) {
      return true;
    }
    if (!ts_mode_) {
      // The migration label may have been lost to a fault (it has no payload,
      // so no retransmission covers it). Admit the client anyway once every
      // remote stream has passed the label's timestamp AND the bulk channel
      // is stable past it: together these bound the orphan-repair drain, so
      // everything the label dominates is already visible here.
      if (TimestampStable() < l.ts) {
        return false;
      }
      for (DcId dc : active_) {
        if (dc != config_.id && stream_progress_[dc] < l.ts) {
          return false;
        }
      }
      return true;
    }
    // In fallback the timestamp condition below covers migrations too.
  }
  // Update label (or migration under fallback): wait until a label with an
  // equal or greater timestamp has been processed from every remote DC. The
  // bulk-channel stability bound only counts while in timestamp mode, where
  // stable updates are actually applied.
  int64_t ts_stable = ts_mode_ ? TimestampStable() : -1;
  return l.ts <= MinRemoteStreamProgress() || l.ts <= ts_stable;
}

void SaturnDc::CheckAttachWaiters() {
  ReleaseAttachWaiters([this](const AttachWaiter& w) { return WaiterReady(w.req); });
}

void SaturnDc::HandleAttach(NodeId from, const ClientRequest& req) {
  if (WaiterReady(req)) {
    CompleteAttach(from, req);
    return;
  }
  attach_waiters_.push_back(AttachWaiter{from, req});
}

void SaturnDc::HandleMigrate(NodeId from, const ClientRequest& req) {
  // Alg. 1 lines 22-26 / Alg. 2 lines 15-19: any gear generates a migration
  // label greater than the client's causal past and hands it to the sink;
  // Saturn delivers it to the target datacenter in causal order.
  Gear& gear = RandomGear();
  Label label;
  label.type = LabelType::kMigration;
  label.src = gear.source();
  label.ts = gear.GenerateTimestamp(req.client_label);
  label.target_dc = req.target_dc;
  label.uid = req.request_id;

  SimTime done = gear.queue().Submit(sim_->Now(), CostModel::AsTime(config_.costs.scalar_meta_us +
                                                                    config_.costs.attach_base_us));
  EmitLabel(label, DcSet::Single(req.target_dc));

  sim_->At(done, [this, from, req, label]() {
    ClientResponse resp;
    resp.op = ClientOpType::kMigrate;
    resp.client = req.client;
    resp.request_id = req.request_id;
    resp.label = label;
    net_->Send(node_id(), from, resp);
  });
}

Label SaturnDc::MakeMigrationLabel(const ClientRequest& req, const Label& floor) {
  // Composite operate-and-migrate: the gear that just served the operation
  // generates the migration label, so it can dominate both the client's
  // causal past and the operation's result atomically.
  Gear& gear = GearFor(req.key);
  Label label;
  label.type = LabelType::kMigration;
  label.src = gear.source();
  label.ts = gear.GenerateTimestamp(floor);
  label.target_dc = req.target_dc;
  EmitLabel(label, DcSet::Single(req.target_dc));
  return label;
}

// --------------------------------------------------------------------------
// Reconfiguration (section 6.2)
// --------------------------------------------------------------------------

void SaturnDc::BeginEpochSwitch(uint32_t new_epoch) {
  BeginEpochSwitch(new_epoch, active_, active_);
}

void SaturnDc::BeginEpochSwitch(uint32_t new_epoch, DcSet participants, DcSet next_active) {
  SAT_CHECK(tree_neighbor_.count(new_epoch) != 0);
  SAT_CHECK(!switching_);
  SAT_CHECK(participants.Contains(config_.id));
  switching_ = true;
  leaving_ = false;
  next_epoch_ = new_epoch;
  next_active_ = next_active;
  switch_participants_ = participants;
  epoch_change_seen_ = DcSet();

  // Emit the epoch-change label through the old tree, then move emission to
  // the new one. Everything already in the sink flushes ahead of it. Interest
  // covers the old tree's participants only: a joiner was never attached to
  // the old tree, so no change label can (or need) reach it there — its
  // catch-up runs through JoinAtEpoch's timestamp bootstrap instead.
  Gear& gear = RandomGear();
  Label label;
  label.type = LabelType::kEpochChange;
  label.src = gear.source();
  label.ts = gear.HeartbeatTimestamp();
  label.target_dc = config_.id;
  EmitLabel(label, participants.Minus(DcSet::Single(config_.id)));
  FlushSink();
  emit_epoch_ = new_epoch;
}

void SaturnDc::FinishEpochSwitch() {
  switching_ = false;
  switch_participants_ = DcSet();
  epoch_change_seen_ = DcSet();
  if (leaving_) {
    // Graceful decommission: the old stream has drained with every
    // participant's change label in it, so everything this datacenter must
    // see via the tree has been applied. Detach and fall back to the pure
    // timestamp configuration — not an outage, so no fallback accounting.
    leaving_ = false;
    has_tree_ = false;
    tree_neighbor_.clear();
    sink_.clear();
    stream_.clear();
    buffered_next_epoch_.clear();
    ts_mode_ = true;
    if (trace_ != nullptr) {
      trace_->Instant(sim_->Now(), trace_track_, "leave.detach", nullptr, epoch_, 0);
    }
    return;
  }
  epoch_ = next_epoch_;
  if (!(active_ == next_active_)) {
    active_ = next_active_;
    ts_stable_dirty_ = true;
    min_remote_progress_dirty_ = true;
  }
  // The buffered new-tree labels become the live stream; PumpStream's outer
  // loop (the only caller) picks them up immediately. The stream is empty
  // here (the switch requires it), so this is a plain transfer in order.
  for (size_t i = 0; i < buffered_next_epoch_.size(); ++i) {
    stream_.push_back(std::move(buffered_next_epoch_[i]));
  }
  buffered_next_epoch_.clear();
}

void SaturnDc::JoinAtEpoch(uint32_t epoch, DcSet active) {
  SAT_CHECK(has_tree_);
  SAT_CHECK(tree_neighbor_.count(epoch) != 0);
  SAT_CHECK(active.Contains(config_.id));
  SAT_CHECK(!switching_ && !failover_pending_);
  epoch_ = epoch;
  next_epoch_ = epoch;
  emit_epoch_ = epoch;
  active_ = active;
  next_active_ = active;
  stability_origins_ = stability_origins_.Union(active);
  ts_stable_dirty_ = true;
  min_remote_progress_dirty_ = true;
  // Bootstrap through timestamp mode (section 6.1 machinery, reused): buffer
  // the new tree's stream, apply everything timestamp-stable off the bulk
  // channel, and flip to stream mode via the standard resync exit once every
  // active peer's first new-epoch label (its resync fence) is stable — at
  // that point the buffered stream suffix is gap-free and this datacenter is
  // fully caught up.
  bootstrapping_ = true;
  ts_mode_ = true;  // already true in the deferred P-configuration
  outage_started_ = sim_->Now();
  resync_fence_.assign(num_dcs_, -1);
  last_label_seen_.assign(num_dcs_, sim_->Now());
  last_stream_activity_ = sim_->Now();
  ArmWatchdog();  // Start() skipped it: there was no tree then
  if (trace_ != nullptr) {
    trace_->SpanBegin(sim_->Now(), trace_track_, "join-bootstrap");
  }
  // Defensive: labels that raced ahead of this event were parked as a future
  // epoch; they are the head of the new stream and seed the resync fences.
  for (size_t i = 0; i < buffered_next_epoch_.size(); ++i) {
    LabelEnvelope env = std::move(buffered_next_epoch_[i]);
    const Label& l = env.label;
    if (l.origin_dc() < num_dcs_) {
      last_label_seen_[l.origin_dc()] = sim_->Now();
      if (resync_fence_[l.origin_dc()] < 0) {
        resync_fence_[l.origin_dc()] = l.ts;
      }
    }
    stream_.push_back(std::move(env));
  }
  buffered_next_epoch_.clear();
  TimestampDrain();
}

void SaturnDc::BeginLeaveSwitch(DcSet participants) {
  SAT_CHECK(has_tree_);
  SAT_CHECK(!switching_ && !failover_pending_ && !ts_mode_);
  SAT_CHECK(participants.Contains(config_.id));
  switching_ = true;
  leaving_ = true;
  next_epoch_ = epoch_;  // no successor epoch: FinishEpochSwitch detaches
  next_active_ = active_.Minus(DcSet::Single(config_.id));
  switch_participants_ = participants;
  epoch_change_seen_ = DcSet();
  // Change label through the old tree, exactly like a fast switch — but
  // emission stays on the old epoch: there is no new tree for this
  // datacenter, and its clients are already stopped, so nothing but this
  // fence (and trailing heartbeats) will follow.
  Gear& gear = RandomGear();
  Label label;
  label.type = LabelType::kEpochChange;
  label.src = gear.source();
  label.ts = gear.HeartbeatTimestamp();
  label.target_dc = config_.id;
  EmitLabel(label, participants.Minus(DcSet::Single(config_.id)));
  FlushSink();
}

void SaturnDc::BeginFailoverSwitch(uint32_t new_epoch) {
  if (tree_neighbor_.count(new_epoch) == 0 || epoch_ >= new_epoch) {
    return;  // unknown backup, or already there
  }
  if (failover_pending_ && next_epoch_ >= new_epoch) {
    return;  // already failing over (detector racing an operator / gossip)
  }
  EnterTimestampMode();  // no-op if the fallback watchdog already fired
  if (trace_ != nullptr) {
    trace_->Instant(sim_->Now(), trace_track_, "failover.switch", nullptr, epoch_,
                    new_epoch);
  }
  failover_pending_ = true;
  next_epoch_ = new_epoch;
  next_active_ = active_;  // failover never changes membership
  emit_epoch_ = new_epoch;
  stream_.clear();  // the old tree's stream is dead

  // Our epoch-change label for the new tree: a fence dominating every label
  // this datacenter ever emitted, so once it (and its peers' counterparts)
  // are timestamp-stable, everything the dead tree lost has been applied by
  // the drain and the new tree's stream is gap-free.
  uint32_t best_gear = 0;
  int64_t best_ts = -1;
  for (uint32_t g = 0; g < static_cast<uint32_t>(gears_.size()); ++g) {
    int64_t ts = gears_[g]->HeartbeatTimestamp();
    if (ts > best_ts) {
      best_ts = ts;
      best_gear = g;
    }
  }
  failover_change_label_ = Label{LabelType::kEpochChange, gears_[best_gear]->source(), best_ts,
                                 0, config_.id, 0};
  if (best_ts > failover_fence_) {
    failover_fence_ = best_ts;
  }
  EmitFailoverChange();
  TimestampDrain();
}

void SaturnDc::EmitFailoverChange() {
  last_change_emit_ = sim_->Now();
  EmitLabel(failover_change_label_, active_.Minus(DcSet::Single(config_.id)));
  FlushSink();
}

void SaturnDc::MaybeResumeAfterFailover() {
  if (!failover_pending_) {
    return;
  }
  if (active_.Size() > 1) {
    // Resume once every active datacenter's epoch-change label has been
    // delivered by the new tree and everything up to the greatest of them is
    // stable in timestamp order: all updates the dead tree lost predate some
    // fence, so the drain has applied them, and the buffered new-tree stream
    // carries no label we cannot dedup or apply in order.
    if (!active_.Minus(failover_change_seen_.Union(DcSet::Single(config_.id))).Empty()) {
      return;
    }
    if (TimestampStable() < failover_fence_) {
      return;
    }
  }
  failover_pending_ = false;
  epoch_ = next_epoch_;
  failover_change_seen_ = DcSet();
  failover_fence_ = -1;
  if (trace_ != nullptr) {
    trace_->Instant(sim_->Now(), trace_track_, "failover.resume", nullptr, epoch_, 0);
  }
  ExitTimestampMode();
  stream_ = std::move(buffered_next_epoch_);
  buffered_next_epoch_.clear();
  PumpStream();
}

void SaturnDc::DecorateHeartbeat(BulkHeartbeat* hb) {
  hb->epoch = epoch_;
  hb->failover_epoch = failover_pending_ ? next_epoch_ : epoch_;
}

}  // namespace saturn
