#include "src/workload/client.h"

#include <algorithm>

namespace saturn {

Client::Client(Simulator* sim, Network* net, const ReplicaMap* replicas,
               std::unique_ptr<OpGenerator> generator, Metrics* metrics,
               CausalityOracle* oracle, const ClientConfig& config,
               std::vector<NodeId> dc_nodes, std::function<DcId(KeyId, DcId)> remote_target)
    : sim_(sim),
      net_(net),
      replicas_(replicas),
      generator_(std::move(generator)),
      metrics_(metrics),
      oracle_(oracle),
      config_(config),
      dc_nodes_(std::move(dc_nodes)),
      remote_target_(std::move(remote_target)),
      rng_(config.seed ^ (config.id * 0x9e3779b97f4a7c15ull)) {
  if (config_.mode == ClientProtocolMode::kVector) {
    vector_.assign(config_.num_dcs, -1);
  }
}

void Client::Start() { NextOp(); }

void Client::AddDep(const ExplicitDep& dep) {
  if (context_uids_.Insert(dep.uid)) {
    context_.push_back(dep);
    max_context_ = std::max(max_context_, context_.size());
  }
}

ClientRequest Client::BaseRequest(ClientOpType op) {
  ClientRequest req;
  req.op = op;
  req.client = config_.id;
  req.client_label = label_;
  req.client_vector = vector_;
  if (config_.mode == ClientProtocolMode::kExplicit &&
      (op == ClientOpType::kUpdate || op == ClientOpType::kAttach)) {
    req.explicit_deps = context_;
  }
  // Request ids double as update uids; they must be unique and non-zero.
  req.request_id = ((config_.id + 1) << 24) | ++next_request_;
  return req;
}

void Client::Send(DcId dc, ClientRequest req) {
  inflight_request_ = req.request_id;
  issued_at_ = sim_->Now();
  net_->Send(node_id(), dc_nodes_[dc], std::move(req));
}

void Client::NextOp() {
  if (stopped_) {
    phase_ = Phase::kIdle;
    return;
  }
  current_op_ = generator_->Next(config_.home, rng_);
  DcSet replicas = replicas_->ReplicasOf(current_op_.key);
  if (replicas.Contains(config_.home)) {
    SendOp(config_.home, current_op_, Phase::kLocalOp);
    return;
  }
  // The key is not replicated at the preferred datacenter: migrate to the
  // closest replica, run the operation there, and come back (section 4.4).
  target_dc_ = remote_target_(current_op_.key, config_.home);
  SAT_CHECK(replicas.Contains(target_dc_));
  ++migrations_;
  if (config_.mode == ClientProtocolMode::kSaturn) {
    phase_ = Phase::kMigrateOut;
    ClientRequest req = BaseRequest(ClientOpType::kMigrate);
    req.target_dc = target_dc_;
    Send(config_.home, std::move(req));
  } else {
    phase_ = Phase::kAttachTarget;
    Send(target_dc_, BaseRequest(ClientOpType::kAttach));
  }
}

void Client::SendOp(DcId dc, const PlannedOp& op, Phase phase) {
  phase_ = phase;
  ClientRequest req = BaseRequest(op.kind == PlannedOp::Kind::kRead ? ClientOpType::kRead
                                                                    : ClientOpType::kUpdate);
  req.key = op.key;
  req.value_size = op.value_size;
  if (phase == Phase::kRemoteOp && config_.mode == ClientProtocolMode::kSaturn) {
    // Composite operate-and-migrate: the response carries a migration label
    // for the trip home, saving a wide-area round trip (section 4.4).
    req.migrate_after = true;
    req.migrate_target = config_.home;
  }
  if (op.kind == PlannedOp::Kind::kUpdate && oracle_ != nullptr) {
    oracle_->OnClientUpdate(config_.id, req.request_id, replicas_->ReplicasOf(op.key));
  }
  Send(dc, std::move(req));
}

void Client::MergeReadResult(const ClientResponse& resp) {
  if (oracle_ != nullptr) {
    oracle_->OnClientRead(config_.id, resp.label.uid);
  }
  label_ = MaxLabel(label_, resp.label);
  if (config_.mode == ClientProtocolMode::kExplicit && resp.label.ts >= 0) {
    AddDep(ExplicitDep{current_op_.key, resp.label.src, resp.label.ts, resp.label.uid});
  }
  if (config_.mode == ClientProtocolMode::kVector) {
    for (size_t k = 0; k < resp.dep_vector.size() && k < vector_.size(); ++k) {
      vector_[k] = std::max(vector_[k], resp.dep_vector[k]);
    }
    DcId origin = resp.label.origin_dc();
    if (resp.label.ts >= 0 && origin < vector_.size()) {
      vector_[origin] = std::max(vector_[origin], resp.label.ts);
    }
  }
}

void Client::HandleMessage(NodeId from, const Message& msg) {
  (void)from;
  const auto* resp = std::get_if<ClientResponse>(&msg);
  if (resp == nullptr || resp->request_id != inflight_request_) {
    return;
  }
  OnResponse(*resp);
}

void Client::OnResponse(const ClientResponse& resp) {
  if (metrics_ != nullptr) {
    metrics_->RecordClientOp(resp.op, config_.home, issued_at_, sim_->Now());
  }
  switch (phase_) {
    case Phase::kIdle:
      return;

    case Phase::kLocalOp:
    case Phase::kRemoteOp: {
      if (resp.op == ClientOpType::kRead) {
        MergeReadResult(resp);
      } else {
        label_ = MaxLabel(label_, resp.label);
        if (config_.mode == ClientProtocolMode::kVector) {
          DcId origin = resp.label.origin_dc();
          if (origin < vector_.size()) {
            vector_[origin] = std::max(vector_[origin], resp.label.ts);
          }
        }
        if (config_.mode == ClientProtocolMode::kExplicit) {
          if (config_.prune_context) {
            // Transitivity: the new update subsumes the whole context.
            // Sound under full replication only (section 7.3.1).
            context_.clear();
            context_uids_.Clear();
          }
          AddDep(ExplicitDep{current_op_.key, resp.label.src, resp.label.ts, resp.label.uid});
        }
      }
      ++ops_completed_;
      if (phase_ == Phase::kLocalOp) {
        NextOp();
        return;
      }
      // Done at the remote datacenter; head home. Saturn clients received a
      // migration label with the composite response and attach immediately;
      // other protocols attach with their causal past.
      if (config_.mode == ClientProtocolMode::kSaturn &&
          resp.migration_label.type == LabelType::kMigration) {
        label_ = MaxLabel(label_, resp.migration_label);
      }
      phase_ = Phase::kAttachHome;
      Send(config_.home, BaseRequest(ClientOpType::kAttach));
      return;
    }

    case Phase::kMigrateOut:
      // The migration label subsumes the client's causal past (section 4.4).
      label_ = MaxLabel(label_, resp.label);
      phase_ = Phase::kAttachTarget;
      Send(target_dc_, BaseRequest(ClientOpType::kAttach));
      return;

    case Phase::kAttachTarget:
      SendOp(target_dc_, current_op_, Phase::kRemoteOp);
      return;

    case Phase::kMigrateBack:
      label_ = MaxLabel(label_, resp.label);
      phase_ = Phase::kAttachHome;
      Send(config_.home, BaseRequest(ClientOpType::kAttach));
      return;

    case Phase::kAttachHome:
      NextOp();
      return;
  }
}

}  // namespace saturn
