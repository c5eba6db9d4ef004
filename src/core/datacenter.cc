#include "src/core/datacenter.h"

#include <algorithm>
#include <utility>

namespace saturn {

DatacenterBase::DatacenterBase(Simulator* sim, Network* net, const DatacenterConfig& config,
                               uint32_t num_dcs, ReplicaResolver resolver, Metrics* metrics,
                               CausalityOracle* oracle)
    : sim_(sim),
      net_(net),
      config_(config),
      num_dcs_(num_dcs),
      resolver_(std::move(resolver)),
      metrics_(metrics),
      oracle_(oracle),
      clock_(sim, config.clock_skew),
      store_(config.num_gears),
      peer_nodes_(num_dcs, kInvalidNode),
      rng_(config.rng_seed ^ (uint64_t{config.id} << 32)),
      stable_(num_dcs, -1),
      bulk_peers_(num_dcs),
      gear_floor_(static_cast<size_t>(num_dcs) * config.num_gears, -1),
      staged_(num_dcs, -1),
      bulk_tick_(sim, [this]() {
        BulkChannelTick();
        if (BulkWorkPending()) {
          ScheduleBulkTick();
        }
      }) {
  gears_.reserve(config.num_gears);
  for (uint32_t g = 0; g < config.num_gears; ++g) {
    gears_.push_back(std::make_unique<Gear>(MakeSourceId(config.id, g), &clock_));
  }
  if (config.expected_keys > 0) {
    store_.ReserveKeys(config.expected_keys);
  }
}

void DatacenterBase::RegisterPeer(DcId dc, NodeId node) {
  SAT_CHECK(dc < num_dcs_);
  peer_nodes_[dc] = node;
}

void DatacenterBase::Start() {}

double DatacenterBase::MeanGearUtilization() const {
  double sum = 0;
  for (const auto& g : gears_) {
    sum += g->queue().Utilization(sim_->Now());
  }
  return gears_.empty() ? 0 : sum / static_cast<double>(gears_.size());
}

void DatacenterBase::EveryInterval(SimTime interval, std::function<void()> fn) {
  SAT_CHECK(interval > 0);
  periodic_.push_back(std::make_unique<PeriodicTimer>(sim_, interval, std::move(fn)));
  periodic_.back()->Start();
}

void DatacenterBase::HandleMessage(NodeId from, const Message& msg) {
  if (const auto* req = std::get_if<ClientRequest>(&msg)) {
    HandleClientRequest(from, *req);
    return;
  }
  if (const auto* payload = std::get_if<RemotePayload>(&msg)) {
    ReceiveBulk(payload->label.origin_dc(), payload->bulk_seq, msg);
    return;
  }
  if (const auto* hb = std::get_if<BulkHeartbeat>(&msg)) {
    ReceiveBulk(hb->origin, hb->bulk_seq, msg);
    return;
  }
  if (const auto* ack = std::get_if<BulkAck>(&msg)) {
    HandleBulkAck(*ack);
    return;
  }
  OnOtherMessage(from, msg);
}

void DatacenterBase::OnOtherMessage(NodeId from, const Message& msg) {
  (void)from;
  (void)msg;
}

void DatacenterBase::HandleClientRequest(NodeId from, const ClientRequest& req) {
  switch (req.op) {
    case ClientOpType::kRead:
      HandleRead(from, req);
      return;
    case ClientOpType::kUpdate:
      HandleUpdate(from, req);
      return;
    case ClientOpType::kAttach:
      HandleAttach(from, req);
      return;
    case ClientOpType::kMigrate:
      HandleMigrate(from, req);
      return;
  }
}

void DatacenterBase::HandleRead(NodeId from, const ClientRequest& req) {
  Gear& gear = GearFor(req.key);
  const VersionedValue* current = store_.PartitionFor(req.key).Get(req.key);
  uint32_t size = current != nullptr ? current->size : 0;
  SimTime cost = config_.costs.ReadCost(size) + ExtraReadCost(req);
  SimTime done = gear.queue().Submit(sim_->Now(), cost);

  auto complete = [this, from, req = req]() {
    // Read the version at completion time: the request sees the store state
    // after everything queued before it.
    ClientResponse resp;
    resp.op = ClientOpType::kRead;
    resp.client = req.client;
    resp.request_id = req.request_id;
    const VersionedValue* v = store_.PartitionFor(req.key).Get(req.key);
    if (v != nullptr) {
      resp.label = v->label;
      resp.value_size = v->size;
    }
    AugmentReadResponse(req, v, &resp);
    if (req.migrate_after) {
      Label floor = MaxLabel(req.client_label, resp.label);
      ClientRequest migrate = req;
      migrate.target_dc = req.migrate_target;
      resp.migration_label = MakeMigrationLabel(migrate, floor);
    }
    net_->Send(node_id(), from, std::move(resp));
  };
  // Gear-completion closures run once per client operation; keep them inside
  // InlineTask's buffer so the fast path never heap-allocates.
  static_assert(InlineTask::fits_inline<decltype(complete)>,
                "read-completion closure outgrew InlineTask's inline buffer");
  sim_->At(done, std::move(complete));
}

void DatacenterBase::HandleUpdate(NodeId from, const ClientRequest& req) {
  uint32_t partition = store_.PartitionOf(req.key);
  Gear& gear = *gears_[partition];

  SimTime cost = config_.costs.UpdateCost(req.value_size) + ExtraUpdateCost(req);
  SimTime done = gear.queue().Submit(sim_->Now(), cost);

  auto complete = [this, from, req = req, &gear]() {
    // The gear generates the label when it processes the request (Alg. 2
    // line 3). Generating at completion — not at submission — matters: idle
    // heartbeats promise that every *future* message from this gear carries a
    // greater timestamp, and the payload only enters the channel now.
    Label label;
    label.type = LabelType::kUpdate;
    label.src = gear.source();
    label.ts = gear.GenerateTimestamp(req.client_label);
    label.target_key = req.key;
    label.uid = req.request_id;

    if (trace_ != nullptr) {
      trace_->Hop(sim_->Now(), trace_track_, "commit", label.uid, label.ts, label.src);
      if (trace_->WantJourney(label.uid)) {
        trace_->JourneyHop(sim_->Now(), label.uid, obs::HopKind::kCommit, trace_track_,
                           static_cast<int32_t>(config_.id), label.ts, label.src);
      }
    }

    // Persist locally (Alg. 2 line 5).
    store_.PartitionFor(req.key).Put(req.key, VersionedValue{req.value_size, label});
    if (oracle_ != nullptr) {
      oracle_->OnApply(config_.id, label.uid);
    }

    // Ship the payload to every other replica via bulk-data transfer
    // (Alg. 2 lines 6-7).
    RemotePayload payload;
    payload.label = label;
    payload.key = req.key;
    payload.value_size = req.value_size;
    payload.created_at = sim_->Now();
    FillPayloadMetadata(req, &payload);
    DcSet replicas = resolver_(req.key);
    for (DcId dc : replicas) {
      if (dc != config_.id) {
        SAT_CHECK(peer_nodes_[dc] != kInvalidNode);
        SendBulk(dc, payload);
      }
    }

    // Hand the label to the protocol (Saturn: label sink, Alg. 2 line 8).
    OnLocalUpdateCommitted(req, label);

    // Return the new label to the client library.
    ClientResponse resp;
    resp.op = ClientOpType::kUpdate;
    resp.client = req.client;
    resp.request_id = req.request_id;
    resp.label = label;
    if (req.migrate_after) {
      ClientRequest migrate = req;
      migrate.target_dc = req.migrate_target;
      resp.migration_label = MakeMigrationLabel(migrate, label);
    }
    net_->Send(node_id(), from, std::move(resp));
  };
  static_assert(InlineTask::fits_inline<decltype(complete)>,
                "update-completion closure outgrew InlineTask's inline buffer");
  sim_->At(done, std::move(complete));
}

void DatacenterBase::HandleMigrate(NodeId from, const ClientRequest& req) {
  // Default: no migration-label support; reply with the client's own label and
  // let the client attach at the target with it.
  SimTime done = sim_->Now() + CostModel::AsTime(config_.costs.attach_base_us);
  sim_->At(done, [this, from, req]() {
    ClientResponse resp;
    resp.op = ClientOpType::kMigrate;
    resp.client = req.client;
    resp.request_id = req.request_id;
    resp.label = req.client_label;
    net_->Send(node_id(), from, std::move(resp));
  });
}

void DatacenterBase::CompleteAttach(NodeId from, const ClientRequest& req) {
  SimTime when = VisibilityFloor() + CostModel::AsTime(config_.costs.attach_base_us);
  sim_->At(when, [this, from, req]() { FinishAttach(from, req); });
}

void DatacenterBase::FinishAttach(NodeId from, const ClientRequest& req) {
  if (oracle_ != nullptr) {
    oracle_->OnAttach(config_.id, req.client);
  }
  ClientResponse resp;
  resp.op = ClientOpType::kAttach;
  resp.client = req.client;
  resp.request_id = req.request_id;
  resp.label = req.client_label;
  net_->Send(node_id(), from, std::move(resp));
}

SimTime DatacenterBase::ApplyRemoteUpdateImpl(const RemotePayload& payload,
                                              SimTime min_visible) {
  Gear& gear = GearFor(payload.key);
  SimTime cost = config_.costs.RemoteApplyCost(payload.value_size) +
                 ExtraRemoteApplyCost(payload);
  SimTime completion = gear.queue().Submit(sim_->Now(), cost);
  SimTime visible = completion > min_visible ? completion : min_visible;

  auto apply = [this, payload = payload]() {
    store_.PartitionFor(payload.key).Put(payload.key,
                                         VersionedValue{payload.value_size, payload.label});
    if (metrics_ != nullptr) {
      metrics_->RecordVisibility(payload.label.origin_dc(), config_.id, payload.created_at,
                                 sim_->Now());
    }
    if (oracle_ != nullptr) {
      oracle_->OnApply(config_.id, payload.label.uid);
    }
    if (trace_ != nullptr) {
      // Recorded here — at the visibility instant, inside the already
      // scheduled apply event — so the trace ring stays time-ordered without
      // the recorder ever scheduling events of its own.
      trace_->Hop(sim_->Now(), trace_track_, "visible", payload.label.uid,
                  payload.label.ts, payload.label.origin_dc());
      if (trace_->WantJourney(payload.label.uid)) {
        trace_->JourneyHop(sim_->Now(), payload.label.uid, obs::HopKind::kVisible,
                           trace_track_, static_cast<int32_t>(config_.id));
      }
    }
  };
  static_assert(InlineTask::fits_inline<decltype(apply)>,
                "remote-apply closure outgrew InlineTask's inline buffer");
  sim_->At(visible, std::move(apply));
  return visible;
}

int64_t DatacenterBase::OriginFloor(DcId dc) const {
  int64_t floor = kSimTimeNever;
  for (uint32_t g = 0; g < config_.num_gears; ++g) {
    floor = std::min(floor, GearFloor(dc, g));
  }
  return floor;
}

std::vector<RemotePayload>::iterator DatacenterBase::PendingSlot(const Label& label) {
  return std::lower_bound(pending_.begin(), pending_.end(), label,
                          [](const RemotePayload& p, const Label& l) { return p.label < l; });
}

void DatacenterBase::BufferRemote(const RemotePayload& payload) {
  auto pos = PendingSlot(payload.label);
  if (pos != pending_.end() && pos->label == payload.label) {
    *pos = payload;  // duplicate delivery: keep the latest copy
  } else {
    pending_.insert(pos, payload);
  }
  if (trace_ != nullptr) {
    trace_->Hop(sim_->Now(), trace_track_, "payload.buffered", payload.label.uid,
                payload.label.ts, payload.label.origin_dc());
    if (trace_->WantJourney(payload.label.uid)) {
      trace_->JourneyHop(sim_->Now(), payload.label.uid, obs::HopKind::kBuffered, trace_track_,
                         static_cast<int32_t>(config_.id), payload.label.ts, payload.label.src);
    }
  }
}

std::vector<RemotePayload>::iterator DatacenterBase::FindPending(const Label& label) {
  auto pos = PendingSlot(label);
  return pos != pending_.end() && pos->label == label ? pos : pending_.end();
}

bool DatacenterBase::Stabilize() {
  for (auto& gear : gears_) {
    gear->queue().Submit(sim_->Now(), config_.costs.StabilizationCost(num_dcs_));
  }
  bool advanced = false;
  for (DcId dc = 0; dc < num_dcs_; ++dc) {
    if (dc != config_.id && staged_[dc] > stable_[dc]) {
      stable_[dc] = staged_[dc];
      advanced = true;
    }
    staged_[dc] = OriginFloor(dc);
  }
  return advanced;
}

void DatacenterBase::SendBulkHeartbeats() {
  for (uint32_t g = 0; g < gears_.size(); ++g) {
    BulkHeartbeat hb;
    hb.origin = config_.id;
    hb.gear = SourceGear(gears_[g]->source());
    hb.ts = GearHeartbeatFloor(g);
    DecorateHeartbeat(&hb);
    for (DcId dc = 0; dc < num_dcs_; ++dc) {
      if (dc != config_.id && peer_nodes_[dc] != kInvalidNode) {
        SendBulk(dc, hb);
      }
    }
  }
}

// --- Reliable bulk channel -------------------------------------------------

void DatacenterBase::SendBulk(DcId dest, Message msg) {
  SAT_CHECK(dest < num_dcs_ && peer_nodes_[dest] != kInvalidNode);
  BulkPeerState& peer = bulk_peers_[dest];
  uint64_t seq = peer.next_out++;
  if (auto* payload = std::get_if<RemotePayload>(&msg)) {
    payload->bulk_seq = seq;
  } else if (auto* hb = std::get_if<BulkHeartbeat>(&msg)) {
    hb->bulk_seq = seq;
  } else {
    SAT_CHECK(false);  // only payloads and heartbeats ride the bulk channel
  }
  // The window keeps the retransmission copy; the original moves to the wire.
  peer.unacked.Push(seq, BulkOutEntry{msg, sim_->Now()});
  net_->Send(node_id(), peer_nodes_[dest], std::move(msg));
  ScheduleBulkTick();
}

void DatacenterBase::ReceiveBulk(DcId origin, uint64_t seq, const Message& msg) {
  if (seq == 0 || origin >= num_dcs_ || peer_nodes_[origin] == kInvalidNode) {
    // Unsequenced message (direct injection in unit tests): bypass the channel.
    DeliverBulk(origin, msg);
    return;
  }
  BulkPeerState& peer = bulk_peers_[origin];
  if (seq < peer.next_in) {
    // Duplicate (retransmission after a lost ack): re-ack so the sender can
    // retire it, but do not deliver twice.
    SendBulkAck(origin);
    return;
  }
  if (seq > peer.next_in) {
    peer.reorder[seq] = msg;  // a gap: an earlier message was lost
    return;
  }
  DeliverBulk(origin, msg);
  ++peer.next_in;
  // A retransmission may have plugged the gap in front of buffered arrivals.
  while (Message* buffered = peer.reorder.Find(peer.next_in)) {
    Message next = std::move(*buffered);
    peer.reorder.Erase(peer.next_in);
    ++peer.next_in;
    DeliverBulk(origin, next);
  }
  ScheduleBulkTick();  // an ack for the delivered prefix is now owed
}

void DatacenterBase::DeliverBulk(DcId origin, const Message& msg) {
  // Progress first: a payload's label and a heartbeat alike promise that the
  // (origin, gear) stream has passed their timestamp, and the protocol hooks
  // below may act on the advanced floor at once.
  const auto* payload = std::get_if<RemotePayload>(&msg);
  const auto* hb = std::get_if<BulkHeartbeat>(&msg);
  uint32_t gear = payload != nullptr ? SourceGear(payload->label.src) : hb->gear;
  int64_t ts = payload != nullptr ? payload->label.ts : hb->ts;
  SAT_CHECK(origin < num_dcs_ && gear < config_.num_gears);
  int64_t& floor = gear_floor_[static_cast<size_t>(origin) * config_.num_gears + gear];
  if (ts > floor) {
    floor = ts;
    ++bulk_progress_version_;
  }

  if (payload != nullptr) {
    OnRemotePayload(*payload);
    return;
  }
  OnOtherMessage(peer_nodes_[origin], msg);
}

void DatacenterBase::HandleBulkAck(const BulkAck& ack) {
  if (ack.origin >= num_dcs_) {
    return;
  }
  bulk_peers_[ack.origin].unacked.PopUpTo(ack.acked);
}

void DatacenterBase::SendBulkAck(DcId dest) {
  BulkPeerState& peer = bulk_peers_[dest];
  BulkAck ack;
  ack.origin = config_.id;
  ack.acked = peer.next_in - 1;
  peer.acked_in = ack.acked;
  net_->Send(node_id(), peer_nodes_[dest], ack);
}

SimTime DatacenterBase::BulkRto(DcId dest) const {
  // Two round trips plus a margin: generous enough that retransmissions never
  // fire on a healthy link (acks are piggy-timed on the channel tick).
  SimTime one_way = net_->BaseLatency(net_->SiteOf(node_id()), net_->SiteOf(peer_nodes_[dest]));
  return 4 * one_way + config_.bulk_retransmit_margin;
}

bool DatacenterBase::BulkWorkPending() const {
  for (DcId dc = 0; dc < num_dcs_; ++dc) {
    const BulkPeerState& peer = bulk_peers_[dc];
    if (!peer.unacked.empty() || peer.next_in - 1 > peer.acked_in) {
      return true;
    }
  }
  return false;
}

void DatacenterBase::ScheduleBulkTick() {
  // Lazy maintenance: the channel tick (cumulative acks, retransmission) runs
  // only while traffic is outstanding, so an idle datacenter leaves the event
  // queue empty and queue-draining tests terminate. The LazyTimer coalesces
  // arming bursts and reuses one stored callback across the whole run.
  bulk_tick_.Arm(config_.bulk_heartbeat_interval);
}

void DatacenterBase::BulkChannelTick() {
  SimTime now = sim_->Now();
  for (DcId dc = 0; dc < num_dcs_; ++dc) {
    if (dc == config_.id || peer_nodes_[dc] == kInvalidNode) {
      continue;
    }
    BulkPeerState& peer = bulk_peers_[dc];
    if (peer.next_in - 1 > peer.acked_in) {
      SendBulkAck(dc);
    }
    SimTime rto = BulkRto(dc);
    peer.unacked.ForEach([&](uint64_t seq, BulkOutEntry& entry) {
      if (now - entry.sent_at >= rto) {
        entry.sent_at = now;
        if (trace_ != nullptr) {
          trace_->Instant(now, trace_track_, "bulk.retransmit", nullptr, dc,
                          static_cast<int64_t>(seq));
        }
        net_->Send(node_id(), peer_nodes_[dc], entry.msg);
      }
    });
  }
}

}  // namespace saturn
