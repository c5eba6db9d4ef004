#include "src/baselines/gentlerain_dc.h"

#include <algorithm>

namespace saturn {

void GentleRainDc::Start() {
  DatacenterBase::Start();
  // Heartbeats keep remote VV entries moving when gears are idle; the
  // stabilization round recomputes GST. Both run at the 5 ms period used in
  // the paper's experiments.
  EveryInterval(config_.bulk_heartbeat_interval, [this]() { SendBulkHeartbeats(); });
  EveryInterval(config_.stabilization_interval, [this]() { StabilizationRound(); });
}

void GentleRainDc::StabilizationRound() {
  Stabilize();
  int64_t new_gst = clock_.Now();  // a lone datacenter is always stable
  if (num_dcs_ > 1) {
    new_gst = kSimTimeNever;
    for (DcId dc = 0; dc < num_dcs_; ++dc) {
      if (dc != config_.id) {
        new_gst = std::min(new_gst, stable_[dc]);
      }
    }
  }
  if (new_gst > gst_) {
    gst_ = new_gst;
    if (trace_ != nullptr) {
      trace_->Instant(sim_->Now(), trace_track_, "gst.advance", nullptr, gst_,
                      static_cast<int64_t>(pending_.size()));
    }
    DrainVisible();
  }
}

void GentleRainDc::DrainVisible() {
  // The GST advance exposes a timestamp-prefix of remote updates, applied in
  // label order on the visibility chain; then attaches whose dependency time
  // is now stable complete.
  ApplyPendingUpTo(gst_);
  ReleaseAttachWaiters([this](const AttachWaiter& w) { return w.req.client_label.ts <= gst_; });
}

void GentleRainDc::HandleAttach(NodeId from, const ClientRequest& req) {
  const Label& label = req.client_label;
  // The attach returns only when the stable time covers the client's
  // timestamp (section 7.3.2, "Remote Reads"). Unlike Saturn, GentleRain has
  // no locally-generated shortcut: the scalar cannot distinguish a local
  // causal past from a remote one, so even a client whose label came from
  // this datacenter waits out the GST lag — this is exactly the
  // false-dependency cost the paper attributes to scalar compression.
  if (label.ts < 0 || label.ts <= gst_) {
    CompleteAttach(from, req);
    return;
  }
  attach_waiters_.push_back(AttachWaiter{from, req});
}

void GentleRainDc::OnRemotePayload(const RemotePayload& payload) {
  // Visibility is granted by the stabilization round; nothing to do now.
  BufferRemote(payload);
}

}  // namespace saturn
