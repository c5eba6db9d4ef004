#include "src/workload/session_mux.h"

#include <algorithm>

namespace saturn {
namespace {

// A stalled plan rate (or a capped inter-arrival draw) re-evaluates the
// nonhomogeneous rate this often. Exponential gaps are memoryless, so
// re-drawing after a truncated wait does not bias the arrival process; the
// cap only bounds how late a plan's rate change can take effect.
constexpr SimTime kRateRecheck = Millis(10);

}  // namespace

SessionMux::SessionMux(Simulator* sim, Network* net, const ReplicaMap* replicas,
                       const StreamingSocialGraph* graph, const ArrivalPlan* plan,
                       Metrics* metrics, CausalityOracle* oracle,
                       const SessionMuxConfig& config, std::vector<NodeId> dc_nodes,
                       std::function<DcId(KeyId, DcId)> remote_target)
    : sim_(sim),
      net_(net),
      replicas_(replicas),
      graph_(graph),
      plan_(plan),
      metrics_(metrics),
      oracle_(oracle),
      config_(config),
      dc_nodes_(std::move(dc_nodes)),
      remote_target_(std::move(remote_target)),
      rng_(config.seed ^ ((config.home + 1) * 0x9e3779b97f4a7c15ull) ^
           0x53e55104u /* "sess" */) {
  SAT_CHECK_MSG(config_.mode == ClientProtocolMode::kScalar ||
                    config_.mode == ClientProtocolMode::kSaturn,
                "SessionMux supports label-only client modes (scalar, saturn)");
  SAT_CHECK(config_.num_dcs >= 1 && config_.home < config_.num_dcs);
  SAT_CHECK(config_.max_queue <= 255);

  uint64_t slots = config_.total_sessions > config_.home
                       ? (config_.total_sessions - config_.home + config_.num_dcs - 1) /
                             config_.num_dcs
                       : 0;
  slots_.assign(slots, Slot{});
  if (config_.zipf_theta > 0 && slots > 1) {
    session_zipf_ = std::make_unique<ZipfSampler>(slots, config_.zipf_theta);
  }

  const FacebookMixConfig& mix = config_.mix;
  double total = mix.browse_friend + mix.browse_own + mix.universal_search + mix.write_own +
                 mix.write_friend;
  SAT_CHECK(total > 0);
  mix_cum_[0] = mix.browse_friend / total;
  mix_cum_[1] = mix_cum_[0] + mix.browse_own / total;
  mix_cum_[2] = mix_cum_[1] + mix.universal_search / total;
  mix_cum_[3] = mix_cum_[2] + mix.write_own / total;
}

void SessionMux::Start() {
  if (slots_.empty()) {
    return;
  }
  if (config_.arrival_rate <= 0 && (plan_ == nullptr || plan_->Empty())) {
    return;  // nothing will ever raise the rate
  }
  ScheduleNextArrival();
}

void SessionMux::ScheduleNextArrival() {
  double rate = plan_ != nullptr
                    ? plan_->RateAt(config_.home, sim_->Now(), config_.arrival_rate)
                    : config_.arrival_rate;
  bool arrival = true;
  SimTime gap;
  if (rate <= 1e-9) {
    arrival = false;
    gap = kRateRecheck;
  } else {
    double gap_us = rng_.NextExponential(1e6 / rate);
    gap = std::max<SimTime>(1, static_cast<SimTime>(gap_us));
    if (plan_ != nullptr && !plan_->Empty() && gap > kRateRecheck) {
      arrival = false;
      gap = kRateRecheck;
    }
  }
  sim_->After(gap, [this, arrival]() {
    if (stopped_) {
      return;
    }
    if (arrival) {
      OnArrival();
    }
    ScheduleNextArrival();
  });
}

void SessionMux::OnArrival() {
  ++arrivals_;
  uint64_t slot = session_zipf_ != nullptr ? session_zipf_->Sample(rng_)
                                           : rng_.NextBounded(slots_.size());
  Slot& s = slots_[slot];
  if (s.phase != kIdle) {
    if (s.queued < config_.max_queue) {
      if (s.queued == 0) {
        s.queued_since = sim_->Now();
      }
      ++s.queued;
      ++queued_total_;
      ++backlog_;
      max_queue_depth_ = std::max<uint32_t>(max_queue_depth_, s.queued);
    } else {
      ++shed_;
    }
    return;
  }
  ++backlog_;
  StartOp(slot, sim_->Now());
}

void SessionMux::GenerateOp(uint64_t slot) {
  Slot& s = slots_[slot];
  uint32_t user = UserOf(slot);
  double p = rng_.NextDouble();
  if (p < mix_cum_[0]) {  // browse a friend's data
    s.op_is_update = 0;
    s.op_key = graph_->NeighborOf(user, static_cast<uint32_t>(
                                            rng_.NextBounded(graph_->DegreeOf(user))));
  } else if (p < mix_cum_[1]) {  // browse own data
    s.op_is_update = 0;
    s.op_key = user;
  } else if (p < mix_cum_[2]) {  // universal search
    s.op_is_update = 0;
    s.op_key = rng_.NextBounded(graph_->num_users());
  } else if (p < mix_cum_[3]) {  // write own data
    s.op_is_update = 1;
    s.op_key = user;
  } else {  // write a friend's data
    s.op_is_update = 1;
    s.op_key = graph_->NeighborOf(user, static_cast<uint32_t>(
                                            rng_.NextBounded(graph_->DegreeOf(user))));
  }
}

void SessionMux::StartOp(uint64_t slot, SimTime issued_at) {
  GenerateOp(slot);
  Slot& s = slots_[slot];
  s.issued_at = issued_at;
  DcSet replicas = replicas_->ReplicasOf(s.op_key);
  if (replicas.Contains(config_.home)) {
    SendOp(slot, kLocalOp);
    return;
  }
  // Not replicated at home: migrate to the closest replica, operate, come
  // back (section 4.4) — the same machinery as the closed-loop Client.
  DcId target = remote_target_(s.op_key, config_.home);
  SAT_CHECK(replicas.Contains(target));
  s.target_dc = static_cast<uint8_t>(target);
  ++migrations_;
  if (config_.mode == ClientProtocolMode::kSaturn) {
    s.phase = kMigrateOut;
    ClientRequest req = BaseRequest(slot, ClientOpType::kMigrate);
    req.target_dc = target;
    Send(config_.home, std::move(req));
  } else {
    s.phase = kAttachTarget;
    Send(target, BaseRequest(slot, ClientOpType::kAttach));
  }
}

ClientRequest SessionMux::BaseRequest(uint64_t slot, ClientOpType op) {
  Slot& s = slots_[slot];
  ClientRequest req;
  req.op = op;
  req.client = UserOf(slot);
  req.client_label = s.label;
  // Request ids double as update uids: unique and non-zero, and the high bits
  // identify the session, so responses demux back to a slot with no map.
  ++s.seq;
  req.request_id = (static_cast<uint64_t>(UserOf(slot) + 1) << 24) | (s.seq & 0xFFFFFF);
  return req;
}

void SessionMux::SendOp(uint64_t slot, Phase phase) {
  Slot& s = slots_[slot];
  s.phase = phase;
  DcId dc = phase == kRemoteOp ? static_cast<DcId>(s.target_dc) : config_.home;
  ClientRequest req =
      BaseRequest(slot, s.op_is_update ? ClientOpType::kUpdate : ClientOpType::kRead);
  req.key = s.op_key;
  req.value_size = config_.mix.value_size;
  if (phase == kRemoteOp && config_.mode == ClientProtocolMode::kSaturn) {
    // Composite operate-and-migrate (section 4.4).
    req.migrate_after = true;
    req.migrate_target = config_.home;
  }
  if (s.op_is_update != 0 && oracle_ != nullptr) {
    oracle_->OnClientUpdate(UserOf(slot), req.request_id, replicas_->ReplicasOf(s.op_key));
  }
  Send(dc, std::move(req));
}

void SessionMux::Send(DcId dc, ClientRequest req) {
  net_->Send(node_id(), dc_nodes_[dc], std::move(req));
}

void SessionMux::HandleMessage(NodeId from, const Message& msg) {
  (void)from;
  const auto* resp = std::get_if<ClientResponse>(&msg);
  if (resp == nullptr || resp->request_id == 0) {
    return;
  }
  uint64_t user_plus_one = resp->request_id >> 24;
  if (user_plus_one == 0) {
    return;
  }
  uint64_t user = user_plus_one - 1;
  if (user % config_.num_dcs != config_.home) {
    return;
  }
  uint64_t slot = user / config_.num_dcs;
  if (slot >= slots_.size()) {
    return;
  }
  Slot& s = slots_[slot];
  uint64_t expected =
      (static_cast<uint64_t>(user + 1) << 24) | (s.seq & 0xFFFFFF);
  if (s.phase == kIdle || resp->request_id != expected) {
    return;  // stale response from a superseded round trip
  }
  OnResponse(slot, *resp);
}

void SessionMux::OnResponse(uint64_t slot, const ClientResponse& resp) {
  Slot& s = slots_[slot];
  if (metrics_ != nullptr) {
    // issued_at covers this round trip — plus queueing delay for an op that
    // waited behind the session's previous one, so saturation is visible in
    // the latency percentiles, not just the backlog counters.
    metrics_->RecordClientOp(resp.op, config_.home, s.issued_at, sim_->Now());
  }
  switch (static_cast<Phase>(s.phase)) {
    case kIdle:
      return;

    case kLocalOp:
    case kRemoteOp: {
      if (resp.op == ClientOpType::kRead && oracle_ != nullptr) {
        oracle_->OnClientRead(UserOf(slot), resp.label.uid);
      }
      s.label = MaxLabel(s.label, resp.label);
      ++ops_completed_;
      if (s.phase == kLocalOp) {
        CompleteOp(slot);
        return;
      }
      // Done at the remote datacenter; head home with the migration label
      // when Saturn supplied one.
      if (config_.mode == ClientProtocolMode::kSaturn &&
          resp.migration_label.type == LabelType::kMigration) {
        s.label = MaxLabel(s.label, resp.migration_label);
      }
      s.phase = kAttachHome;
      s.issued_at = sim_->Now();
      Send(config_.home, BaseRequest(slot, ClientOpType::kAttach));
      return;
    }

    case kMigrateOut:
      // The migration label subsumes the session's causal past (section 4.4).
      s.label = MaxLabel(s.label, resp.label);
      s.phase = kAttachTarget;
      s.issued_at = sim_->Now();
      Send(static_cast<DcId>(s.target_dc), BaseRequest(slot, ClientOpType::kAttach));
      return;

    case kAttachTarget:
      s.issued_at = sim_->Now();
      SendOp(slot, kRemoteOp);
      return;

    case kAttachHome:
      CompleteOp(slot);
      return;
  }
}

void SessionMux::CompleteOp(uint64_t slot) {
  Slot& s = slots_[slot];
  --backlog_;
  if (stopped_) {
    backlog_ -= s.queued;
    s.queued = 0;
    s.phase = kIdle;
    return;
  }
  if (s.queued > 0) {
    --s.queued;
    // The dequeued op's latency clock started when it arrived; approximate
    // per-op arrival times by the oldest-arrival watermark (depth is rarely
    // above one outside deliberate overload).
    SimTime issued = s.queued_since;
    s.queued_since = sim_->Now();
    queue_wait_.Record(sim_->Now() - issued);
    StartOp(slot, issued);
    return;
  }
  s.phase = kIdle;
}

}  // namespace saturn
