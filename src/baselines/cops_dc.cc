#include "src/baselines/cops_dc.h"

#include <utility>

namespace saturn {

void CopsDc::Start() {
  DatacenterBase::Start();
  // COPS needs no stabilization traffic: dependency checks drive everything.
  // Register local updates as applied dependencies.
}

void CopsDc::OnLocalUpdateCommitted(const ClientRequest& req, const Label& label) {
  (void)req;
  // Local commits satisfy dependencies immediately.
  OnDependencyApplied(label.uid);
}

void CopsDc::FillPayloadMetadata(const ClientRequest& req, RemotePayload* payload) {
  payload->explicit_deps = req.explicit_deps;
}

uint32_t CopsDc::CountMissing(const DepVec& deps) const {
  uint32_t missing = 0;
  for (const auto& dep : deps) {
    if (resolver_(dep.key).Contains(config_.id) && !applied_.Contains(dep.uid)) {
      ++missing;
    }
  }
  return missing;
}

void CopsDc::Apply(const RemotePayload& payload) {
  ApplyOrdered(payload, [this, uid = payload.label.uid](SimTime) { OnDependencyApplied(uid); });
}

void CopsDc::OnDependencyApplied(uint64_t uid) {
  applied_.Insert(uid);

  // Unblock updates waiting on this dependency. The list is moved out and the
  // entry erased before any Apply: Apply's done-callback recurses into this
  // function, which may erase further waiting_/blocked_on_ entries — but
  // never inserts (only OnRemotePayload does, and it is not reachable from
  // here), so no rehash happens under the loop and Find stays valid.
  if (InlineVec<uint64_t, 4>* blocked_entry = blocked_on_.Find(uid)) {
    InlineVec<uint64_t, 4> blocked = std::move(*blocked_entry);
    blocked_on_.Erase(uid);
    for (uint64_t waiting_uid : blocked) {
      Waiter* w = waiting_.Find(waiting_uid);
      if (w == nullptr) {
        continue;
      }
      if (--w->missing == 0) {
        RemotePayload payload = std::move(w->payload);
        waiting_.Erase(waiting_uid);
        Apply(payload);
      }
    }
  }

  // Unblock attaches whose last missing dependency this was.
  ReleaseAttachWaiters([uid](AttachWaiter& w) {
    for (const auto& dep : w.req.explicit_deps) {
      if (dep.uid == uid) {
        return --w.missing == 0;
      }
    }
    return false;
  });
}

void CopsDc::OnRemotePayload(const RemotePayload& payload) {
  dep_sizes_.Record(static_cast<double>(payload.explicit_deps.size()));
  uint32_t missing = CountMissing(payload.explicit_deps);
  if (missing == 0) {
    Apply(payload);
    return;
  }
  uint64_t uid = payload.label.uid;
  Waiter& waiter = waiting_[uid];
  waiter.payload = payload;
  waiter.missing = missing;
  for (const auto& dep : payload.explicit_deps) {
    if (resolver_(dep.key).Contains(config_.id) && !applied_.Contains(dep.uid)) {
      blocked_on_[dep.uid].push_back(uid);
    }
  }
}

void CopsDc::HandleAttach(NodeId from, const ClientRequest& req) {
  uint32_t missing = CountMissing(req.explicit_deps);
  if (missing == 0) {
    CompleteAttach(from, req);
    return;
  }
  attach_waiters_.push_back(AttachWaiter{from, req, missing});
}

}  // namespace saturn
