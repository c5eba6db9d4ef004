#include "src/baselines/cure_dc.h"

#include <algorithm>

namespace saturn {

void CureDc::Start() {
  DatacenterBase::Start();
  EveryInterval(config_.bulk_heartbeat_interval, [this]() { SendBulkHeartbeats(); });
  EveryInterval(config_.stabilization_interval, [this]() { StabilizationRound(); });
}

void CureDc::StabilizationRound() {
  bool advanced = Stabilize();
  if (advanced || num_dcs_ == 1) {
    if (trace_ != nullptr && advanced) {
      trace_->Instant(sim_->Now(), trace_track_, "sv.advance", nullptr, 0,
                      static_cast<int64_t>(pending_.size()));
    }
    DrainVisible();
  }
}

void CureDc::DrainVisible() {
  // Drain eligibility is per origin (that is Cure's latency advantage over
  // GentleRain's global minimum), but visibility uses the single monotone
  // chain: within a pass updates drain in label order, and across passes an
  // eligible update's dependencies were eligible no later than it (clients
  // merge dependency vectors on reads), so the chained call order respects
  // causality even across origins.
  //
  // Each pass walks the sorted buffer once, retrying every survivor, and
  // compacts survivors in place.
  bool progress = true;
  while (progress) {
    progress = false;
    size_t keep = 0;
    for (size_t i = 0; i < pending_.size(); ++i) {
      RemotePayload& p = pending_[i];
      DcId origin = p.label.origin_dc();
      if (p.label.ts <= stable_[origin] && Covers(p.dep_vector)) {
        ApplyOrdered(p, [this, &p](SimTime t) {
          // The store Put lands at t, not now: update the dep map at the same
          // instant (the event queue keeps it adjacent to the Put) so a read
          // served in between still gets the dep vector of the version it
          // actually returns. Updating here would silently strip the old
          // version's deps from concurrent reads, letting the reader's next
          // write escape with a weaker vector than its causal past.
          sim_->At(t, [this, label = p.label, key = p.key, deps = p.dep_vector]() {
            RecordKeyDeps(label, key, deps);
          });
        });
        progress = true;
      } else {
        if (keep != i) {
          pending_[keep] = std::move(pending_[i]);
        }
        ++keep;
      }
    }
    pending_.resize(keep);
  }

  // A client whose causal past is stable has everything it depends on
  // scheduled for visibility.
  ReleaseAttachWaiters([this](const AttachWaiter& w) { return Covers(w.req.client_vector); });
}

void CureDc::HandleAttach(NodeId from, const ClientRequest& req) {
  if (req.client_vector.empty() || Covers(req.client_vector)) {
    CompleteAttach(from, req);
    return;
  }
  attach_waiters_.push_back(AttachWaiter{from, req});
}

void CureDc::FillPayloadMetadata(const ClientRequest& req, RemotePayload* payload) {
  payload->dep_vector = req.client_vector;
  payload->dep_vector.resize(num_dcs_, -1);
}

void CureDc::OnLocalUpdateCommitted(const ClientRequest& req, const Label& label) {
  DcVec deps = req.client_vector;
  deps.resize(num_dcs_, -1);
  deps[config_.id] = std::max(deps[config_.id], label.ts);
  RecordKeyDeps(label, req.key, deps);
}

void CureDc::RecordKeyDeps(const Label& label, KeyId key, const DcVec& deps) {
  // Mirror the store's last-writer-wins rule: the dep map must keep
  // describing the version the store actually holds. An unconditional
  // overwrite would let an *older* apply regress the entry, making reads of
  // the still-current newer version come back without a dep vector — and a
  // client that read deps-free writes with a weaker vector than its causal
  // past, which a remote DC can then apply too early.
  if (KeyDeps* entry = key_deps_.Find(key)) {
    if (entry->label < label) {
      entry->label = label;
      entry->deps = deps;
    }
    return;
  }
  KeyDeps& fresh = key_deps_[key];
  fresh.label = label;
  fresh.deps = deps;
}

void CureDc::AugmentReadResponse(const ClientRequest& req, const VersionedValue* version,
                                 ClientResponse* resp) {
  if (version == nullptr) {
    return;
  }
  const KeyDeps* entry = key_deps_.Find(req.key);
  if (entry != nullptr && entry->label == version->label) {
    resp->dep_vector = entry->deps;
  }
}

void CureDc::OnRemotePayload(const RemotePayload& payload) { BufferRemote(payload); }

}  // namespace saturn
