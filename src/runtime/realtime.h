// Wall-clock multi-threaded execution backend.
//
// The deterministic Simulator drives every actor in one thread and is the
// correctness oracle. RealtimeScheduler drives the *same* actor code at real
// speed: the node population is split into lanes, and lanes that talk mostly
// to each other (a datacenter and its home clients) share an affinity key
// and form one lane group. A group owns one Simulator (its virtual clock and
// event heap), so a send inside it is an exact, lock-free schedule. A pool
// of worker threads executes whatever groups have events due. Traffic
// between groups goes through per-group MPSC inboxes — the Network hands
// deliveries to PostAt() via the LaneRouter seam instead of scheduling on a
// single heap.
//
// Virtual time is decentralized: each group advances its clock as it
// executes. A drift window bounds how far any group may run ahead of the
// earliest pending work in the system, so a cross-group message rarely
// arrives in its destination's past; when one does (scheduling races make it
// unavoidable), the delivery is clamped to the group's current time — which
// is indistinguishable from extra network latency and therefore causally
// sound.
// Runs are NOT reproducible: thread interleaving decides clamp points and
// event order between groups. Causal-consistency guarantees (the oracle's
// session and prefix checks) must hold on every interleaving; timing numbers
// are measurements, not fixtures.
#ifndef SRC_RUNTIME_REALTIME_H_
#define SRC_RUNTIME_REALTIME_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/sim/event_queue.h"
#include "src/sim/lane_router.h"

namespace saturn {

struct RealtimeOptions {
  // Worker threads executing lane groups. More groups than workers is fine
  // (workers multiplex); workers beyond the number of groups idle.
  unsigned workers = 2;
  // Max virtual time any lane may run ahead of the globally earliest pending
  // event. Small enough that clamped cross-lane deliveries stay well under
  // protocol timeouts (failure detectors use hundreds of ms), large enough
  // that lanes rarely stall on each other.
  SimTime drift_window = Millis(5);
  // 0 = free-run (virtual time advances as fast as workers can execute).
  // > 0 paces execution: at most `time_scale` virtual microseconds may pass
  // per wall-clock microsecond.
  double time_scale = 0.0;
  // > 0 samples per-worker busy fractions every this many wall-clock
  // nanoseconds during Run() (from the coordinator thread).
  // Wall-clock telemetry: like every realtime measurement it is not
  // reproducible — tests may assert shape and bounds only.
  uint64_t utilization_sample_ns = 0;
};

class RealtimeScheduler : public LaneRouter {
 public:
  // AddLane() key for a lane that shares its group with no other lane.
  static constexpr uint32_t kNoAffinity = std::numeric_limits<uint32_t>::max();

  explicit RealtimeScheduler(RealtimeOptions options);
  ~RealtimeScheduler() override;

  RealtimeScheduler(const RealtimeScheduler&) = delete;
  RealtimeScheduler& operator=(const RealtimeScheduler&) = delete;

  // Creates a lane and returns its simulator. Actors constructed against
  // this simulator belong to the lane. Lanes with the same `affinity` key
  // form one group and share one simulator; a kNoAffinity lane is a group
  // of its own. Call only before Run().
  Simulator* AddLane(uint32_t affinity = kNoAffinity);

  // Declares that node `node` (a Network NodeId) runs on the lane owning
  // `lane_sim`. Every node that can receive messages must be bound before
  // Run(). Call only before Run().
  void BindNode(NodeId node, Simulator* lane_sim);

  // LaneRouter: virtual time of the lane the calling thread is executing on.
  // Returns 0 from threads not running a lane (single-threaded setup, before
  // Run() — every lane is still at 0 then, so the answer is consistent).
  SimTime Now() const override;

  // LaneRouter: enqueues a task on the destination node's lane. Thread-safe
  // from lanes during Run(); outside Run() (setup, single-threaded) the task
  // is scheduled directly.
  void PostAt(NodeId to, SimTime when, InlineTask task) override;

  // Executes all work up to virtual time `until` on the worker pool and
  // returns when the system is quiescent (no lane has pending work at or
  // before `until`). Rethrows the first worker exception. Call once.
  void Run(SimTime until);

  size_t num_lanes() const { return num_lanes_; }
  size_t num_groups() const { return groups_.size(); }
  unsigned workers() const { return options_.workers; }

  // Fraction of wall time each worker spent executing lane events during
  // Run() (the rest is polling / stalling on the drift window). Valid after
  // Run() returns.
  const std::vector<double>& worker_utilization() const { return utilization_; }

  // One windowed utilization sample (options.utilization_sample_ns > 0).
  struct UtilizationSample {
    uint64_t wall_ns = 0;                // sample time, relative to Run() start
    std::vector<double> busy_fraction;   // per worker, over the last interval
  };
  // Wall-clock utilization series. Valid after Run(); empty when sampling is
  // off. Values are nonnegative and may slightly exceed 1.0 (busy_ns is
  // accumulated with relaxed atomics).
  const std::vector<UtilizationSample>& utilization_series() const {
    return utilization_series_;
  }

  // Where a lane group's scheduling went during Run(). Wall-clock telemetry,
  // not reproducible, like the utilization figures.
  struct GroupStats {
    uint64_t batches = 0;     // times a worker held the group and ran it
    uint64_t productive = 0;  // batches that executed at least one event
    uint64_t events = 0;      // events executed, all batches
    uint64_t busy_ns = 0;     // wall time inside productive batches
    uint64_t horizon_stops = 0;  // productive batches ended by the drift window

    double events_per_productive() const {
      return productive > 0 ? static_cast<double>(events) / static_cast<double>(productive)
                            : 0.0;
    }
  };
  // Per group. Valid after Run().
  std::vector<GroupStats> group_stats() const;
  // Sum over all groups. Valid after Run().
  GroupStats total_group_stats() const;
  // Times a worker found a runnable group already held by another worker.
  // Valid after Run().
  uint64_t lockouts() const;

  // Sum of executed events across all lanes. Valid after Run().
  uint64_t executed_events() const;

 private:
  struct Group;

  // Worker-private counters, on their own cache line: a worker adds busy
  // time after every productive batch, the utilization sampler only reads.
  struct alignas(64) WorkerCounters {
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> lockouts{0};  // stored once, when the worker exits
  };

  SimTime GlobalFloor() const;
  // How far a group may run: `until`, the pacing allowance, or the drift
  // window above `floor`, whichever comes first.
  SimTime Horizon(SimTime floor, SimTime until, SimTime allowance) const;
  // Moves posted tasks into the group's simulator (clamped to its clock).
  // Caller holds the group.
  void TakeInbox(Group& group);
  // Republishes the group's frontier from its heap and inbox. Caller holds
  // the group.
  void RefreshFrontier(Group& group);
  // Runs one batch on `group`, which the caller holds: events up to
  // `horizon` in virtual-time order, further while the floor keeps rising.
  // Returns the number of events executed.
  uint64_t RunGroup(Group& group, SimTime horizon, SimTime until, SimTime allowance);
  // True when no group has work at or before `until` and nothing was posted
  // while looking.
  bool Quiescent(SimTime until) const;
  uint64_t TotalPosts() const;
  void WorkerLoop(size_t worker_index, SimTime until);

  // Group the calling worker thread is executing; null on threads that are
  // not running a group (the main thread during setup).
  static thread_local Group* current_group_;

  RealtimeOptions options_;
  size_t num_lanes_ = 0;  // AddLane() calls
  std::vector<std::unique_ptr<Group>> groups_;
  // Every group's frontier, packed: the floor scan reads a few cache lines
  // instead of one per group.
  std::deque<std::atomic<SimTime>> frontiers_;
  std::vector<Group*> node_group_;  // indexed by NodeId
  std::atomic<bool> done_{false};
  std::atomic<bool> running_{false};
  bool in_run_ = false;  // workers may be executing (set and cleared by Run())
  std::vector<WorkerCounters> workers_;
  std::vector<double> utilization_;
  std::vector<UtilizationSample> utilization_series_;
};

}  // namespace saturn

#endif  // SRC_RUNTIME_REALTIME_H_
