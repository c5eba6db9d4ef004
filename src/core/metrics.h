// Experiment metrics: throughput, remote-update visibility latency, and
// client-perceived operation latency.
//
// Visibility latency follows the paper's methodology (section 7): the origin
// records the physical time when an update is applied locally; the remote
// datacenter records the physical time when the update becomes visible; the
// difference is the visibility latency. Measurements outside the warm-up /
// cool-down window are discarded.
#ifndef SRC_CORE_METRICS_H_
#define SRC_CORE_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/spin_lock.h"
#include "src/common/types.h"
#include "src/core/messages.h"
#include "src/stats/histogram.h"

namespace saturn {

class Metrics {
 public:
  explicit Metrics(uint32_t num_dcs)
      : num_dcs_(num_dcs), visibility_(num_dcs * num_dcs), fault_stats_(num_dcs) {}

  // Measurement window: only events created inside it are recorded.
  void SetWindow(SimTime start, SimTime end) {
    window_start_ = start;
    window_end_ = end;
  }

  // Realtime backend: recorders run on concurrent lanes. Each datacenter
  // then records into a shard of its own, under its own lock: a datacenter's
  // lanes run on one worker, so the lock is uncontended and no histogram line
  // moves between cores. MergeShards() folds the shards in once the run is
  // over; until then the aggregate accessors below see only what was
  // recorded before EnableLocking(). Off (the default), every Record* stays
  // lock-free and records directly.
  void EnableLocking() {
    mu_ = std::make_unique<SpinLock>();
    shards_ = std::make_unique<Shard[]>(num_dcs_);
  }

  // Folds the per-datacenter shards into the aggregates; later records go
  // straight to the aggregates, under the one lock. Call with no recorder
  // running.
  void MergeShards() {
    if (shards_ == nullptr) {
      return;
    }
    for (uint32_t dc = 0; dc < num_dcs_; ++dc) {
      Shard& shard = shards_[dc];
      all_visibility_.Merge(shard.all_visibility);
      reconfig_visibility_.Merge(shard.reconfig_visibility);
      op_latency_.Merge(shard.op_latency);
      attach_latency_.Merge(shard.attach_latency);
      completed_ops_ += shard.completed_ops;
    }
    shards_.reset();
  }

  void RecordVisibility(DcId origin, DcId at, SimTime created, SimTime visible) {
    SAT_CHECK(origin < num_dcs_ && at < num_dcs_);
    if (created < window_start_ || created > window_end_) {
      return;
    }
    // The (origin, at) histogram is only ever written by `at`'s recorders,
    // so the shard lock covers it too.
    Shard* shard = ShardOf(at);
    auto lock = Guard(shard);
    visibility_[origin * num_dcs_ + at].Record(visible - created);
    (shard != nullptr ? shard->all_visibility : all_visibility_).Record(visible - created);
    if (reconfig_active_) {
      // Tee: visibility of updates that became visible while a live tree
      // reconfiguration (epoch switch / join / leave) was in flight — the
      // "visibility during switch" figure of the dynamic-topology experiments.
      (shard != nullptr ? shard->reconfig_visibility : reconfig_visibility_)
          .Record(visible - created);
    }
  }

  // A client operation completed (read or update); `issued` is when the client
  // sent the request, `done` when the response arrived. `dc` is the client's
  // home datacenter.
  void RecordClientOp(ClientOpType op, DcId dc, SimTime issued, SimTime done) {
    if (done < window_start_ || done > window_end_) {
      return;
    }
    Shard* shard = ShardOf(dc);
    auto lock = Guard(shard);
    if (op == ClientOpType::kRead || op == ClientOpType::kUpdate) {
      ++(shard != nullptr ? shard->completed_ops : completed_ops_);
      (shard != nullptr ? shard->op_latency : op_latency_).Record(done - issued);
    }
    if (op == ClientOpType::kAttach || op == ClientOpType::kMigrate) {
      (shard != nullptr ? shard->attach_latency : attach_latency_).Record(done - issued);
    }
  }

  // Total reads+updates per second inside the window.
  double ThroughputOpsPerSec() const {
    SimTime span = window_end_ - window_start_;
    return span <= 0 ? 0.0
                     : static_cast<double>(completed_ops_) / ToSeconds(span);
  }

  const LatencyHistogram& Visibility(DcId origin, DcId at) const {
    SAT_CHECK(origin < num_dcs_ && at < num_dcs_);
    return visibility_[origin * num_dcs_ + at];
  }

  const LatencyHistogram& AllVisibility() const { return all_visibility_; }

  // Destructive end-of-run accessors: move the histogram out instead of
  // copying its bucket array. The histogram left behind is empty; only call
  // once the run is over and nothing will read the metrics again.
  LatencyHistogram TakeAllVisibility() {
    return std::exchange(all_visibility_, LatencyHistogram());
  }
  LatencyHistogram TakeVisibility(DcId origin, DcId at) {
    SAT_CHECK(origin < num_dcs_ && at < num_dcs_);
    return std::exchange(visibility_[origin * num_dcs_ + at], LatencyHistogram());
  }

  const LatencyHistogram& OpLatency() const { return op_latency_; }
  const LatencyHistogram& AttachLatency() const { return attach_latency_; }
  uint64_t completed_ops() const { return completed_ops_; }
  uint32_t num_dcs() const { return num_dcs_; }

  // --- Degraded-mode accounting (fault experiments) -----------------------
  // Not window-gated: fault schedules deliberately straddle the measurement
  // window, and the interesting quantity is total degraded time per DC.

  void RecordFallbackEnter(DcId dc, SimTime now) {
    SAT_CHECK(dc < num_dcs_);
    auto lock = Guard(nullptr);
    DcFaultStats& s = fault_stats_[dc];
    if (s.in_fallback) {
      return;
    }
    s.in_fallback = true;
    s.entered_at = now;
    ++s.entries;
  }

  void RecordFallbackExit(DcId dc, SimTime now) {
    SAT_CHECK(dc < num_dcs_);
    auto lock = Guard(nullptr);
    DcFaultStats& s = fault_stats_[dc];
    if (!s.in_fallback) {
      return;
    }
    s.in_fallback = false;
    s.ts_mode_time += now - s.entered_at;
    ++s.exits;
  }

  // End-to-end outage-to-recovery latency: fallback entry until stream mode
  // resumed (resync on the same tree, or failover to a backup tree).
  void RecordFailoverLatency(SimTime latency) {
    auto lock = Guard(nullptr);
    failover_latency_.Record(latency);
  }

  uint32_t FallbackEntries(DcId dc) const { return fault_stats_[dc].entries; }
  uint32_t FallbackExits(DcId dc) const { return fault_stats_[dc].exits; }

  // Total time `dc` spent in timestamp (degraded) mode; an open interval is
  // counted up to `now`.
  SimTime TimestampModeTime(DcId dc, SimTime now) const {
    const DcFaultStats& s = fault_stats_[dc];
    return s.ts_mode_time + (s.in_fallback ? now - s.entered_at : 0);
  }

  const LatencyHistogram& FailoverLatency() const { return failover_latency_; }

  // --- Reconfiguration accounting (dynamic topology) ----------------------
  // Not window-gated, like the fault stats: reconfigurations are scheduled
  // events whose latency is interesting wherever they fall in the run.

  // Marks a live reconfiguration in flight; RecordVisibility tees into the
  // during-reconfiguration histogram while set.
  void SetReconfigActive(bool active) { reconfig_active_ = active; }
  bool reconfig_active() const { return reconfig_active_; }

  // Wall-clock of one completed reconfiguration: controller decision to every
  // participant back in stream mode on the target configuration.
  void RecordReconfigLatency(SimTime latency) {
    auto lock = Guard(nullptr);
    reconfig_latency_.Record(latency);
  }

  const LatencyHistogram& ReconfigLatency() const { return reconfig_latency_; }
  const LatencyHistogram& ReconfigVisibility() const { return reconfig_visibility_; }

 private:
  // What one datacenter's recorders write between EnableLocking() and
  // MergeShards(), on cache lines of its own.
  struct alignas(64) Shard {
    SpinLock mu;
    LatencyHistogram all_visibility;
    LatencyHistogram reconfig_visibility;
    LatencyHistogram op_latency;
    LatencyHistogram attach_latency;
    uint64_t completed_ops = 0;
  };

  Shard* ShardOf(DcId dc) {
    if (shards_ == nullptr) {
      return nullptr;
    }
    SAT_CHECK(dc < num_dcs_);
    return &shards_[dc];
  }

  // Holds `shard`'s lock, or the lock of the unsharded fault and
  // reconfiguration stats when `shard` is null; an empty guard when locking
  // is off.
  std::unique_lock<SpinLock> Guard(Shard* shard) {
    if (mu_ == nullptr) {
      return {};
    }
    return std::unique_lock<SpinLock>(shard != nullptr ? shard->mu : *mu_);
  }

  struct DcFaultStats {
    uint32_t entries = 0;
    uint32_t exits = 0;
    SimTime ts_mode_time = 0;
    SimTime entered_at = 0;
    bool in_fallback = false;
  };

  uint32_t num_dcs_;
  SimTime window_start_ = 0;
  SimTime window_end_ = kSimTimeNever;
  std::vector<LatencyHistogram> visibility_;  // [origin * num_dcs + at]
  LatencyHistogram all_visibility_;
  LatencyHistogram op_latency_;
  LatencyHistogram attach_latency_;
  LatencyHistogram failover_latency_;
  LatencyHistogram reconfig_latency_;
  LatencyHistogram reconfig_visibility_;
  bool reconfig_active_ = false;
  std::vector<DcFaultStats> fault_stats_;
  uint64_t completed_ops_ = 0;
  std::unique_ptr<SpinLock> mu_;  // null unless EnableLocking
  std::unique_ptr<Shard[]> shards_;  // per datacenter; null unless EnableLocking
};

}  // namespace saturn

#endif  // SRC_CORE_METRICS_H_
