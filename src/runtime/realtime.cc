#include "src/runtime/realtime.h"

#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/common/spin_lock.h"
#include "src/exec/thread_pool.h"

namespace saturn {

namespace {

// Events per batch. Large enough to amortize taking the group, small enough
// that the group's published frontier stays fresh for the drift-window floor.
constexpr uint64_t kBatchEvents = 1024;

// Events between a batch's frontier republications, so a long batch does not
// hold the other groups' drift-window floor down.
constexpr uint64_t kPublishEvents = 32;

// Times a batch may re-drain its inbox or follow a risen floor before it
// hands the group back.
constexpr int kBatchRounds = 8;

// Idle sweeps before a worker steals a group it does not own, before it yields
// its core, and before it sleeps. Stalls on the drift window last
// microseconds (another worker is running the group at the floor), so
// spinning covers them; pacing and the tail of a run can idle for
// milliseconds, and sleeping keeps those off the cores.
constexpr unsigned kStealSweeps = 8;
constexpr unsigned kSpinSweeps = 64;
constexpr unsigned kYieldSweeps = 4096;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SimTime Clamped(SimTime when, const Simulator& sim) {
  return when > sim.Now() ? when : sim.Now();
}

}  // namespace

// Keyed per thread, not per scheduler: a worker serves exactly one scheduler
// at a time.
thread_local RealtimeScheduler::Group* RealtimeScheduler::current_group_ = nullptr;

// A lane group: every lane added with the group's affinity key shares its
// simulator, so their events run in one virtual-time order, as on the
// single-simulator backend. The fields sit on three cache lines by writer:
// the owner's (whoever holds `running`), the posters', and the run flag.
// Posts never invalidate the owner's hot fields, and the frontier lives in
// the scheduler's packed array, which every sweep reads.
struct RealtimeScheduler::Group {
  struct Posted {
    SimTime when;
    InlineTask task;
  };

  // --- Owner: touched only by the worker holding `running`. ---
  Simulator sim;  // shared by every lane of the group
  uint32_t affinity = kNoAffinity;
  // Swap partner of `inbox`: drained outside the lock, capacity recycled.
  std::vector<Posted> drained;
  uint64_t posts_taken = 0;  // `posts` as of the last drain
  GroupStats stats;

  // --- Posters: any worker sending to a lane of this group. ---
  alignas(64) SpinLock inbox_lock;
  std::vector<Posted> inbox;  // guarded by inbox_lock
  // Incremented under inbox_lock; read without it by the owner (new posts?)
  // and by the quiescence check.
  std::atomic<uint64_t> posts{0};
  // Lower bound on the group's pending work (heap or inbox), kSimTimeNever
  // when idle; points into the scheduler's packed array. Written under
  // inbox_lock: lowered by posts, republished by the owner after each batch.
  std::atomic<SimTime>* frontier = nullptr;

  // --- Held by the worker executing the group. ---
  alignas(64) std::atomic<bool> running{false};
  // Worker that sweeps this group; moves to a worker that steals it.
  std::atomic<size_t> owner{0};
};

RealtimeScheduler::RealtimeScheduler(RealtimeOptions options)
    : options_(options), workers_(options.workers == 0 ? 1 : options.workers) {
  if (options_.workers == 0) {
    options_.workers = 1;
  }
  SAT_CHECK(options_.drift_window > 0);
}

RealtimeScheduler::~RealtimeScheduler() = default;

Simulator* RealtimeScheduler::AddLane(uint32_t affinity) {
  SAT_CHECK(!running_.load(std::memory_order_acquire));
  ++num_lanes_;
  if (affinity != kNoAffinity) {
    for (auto& group : groups_) {
      if (group->affinity == affinity) {
        return &group->sim;
      }
    }
  }
  groups_.push_back(std::make_unique<Group>());
  Group& group = *groups_.back();
  group.affinity = affinity;
  group.frontier = &frontiers_.emplace_back(kSimTimeNever);
  group.owner.store((groups_.size() - 1) % options_.workers);
  return &group.sim;
}

void RealtimeScheduler::BindNode(NodeId node, Simulator* lane_sim) {
  SAT_CHECK(!running_.load(std::memory_order_acquire));
  Group* owner = nullptr;
  for (auto& group : groups_) {
    if (&group->sim == lane_sim) {
      owner = group.get();
      break;
    }
  }
  SAT_CHECK_MSG(owner != nullptr, "BindNode: simulator is not a lane of this scheduler");
  if (node >= node_group_.size()) {
    node_group_.resize(node + 1, nullptr);
  }
  node_group_[node] = owner;
}

SimTime RealtimeScheduler::Now() const {
  return current_group_ != nullptr ? current_group_->sim.Now() : 0;
}

void RealtimeScheduler::PostAt(NodeId to, SimTime when, InlineTask task) {
  SAT_CHECK_MSG(to < node_group_.size() && node_group_[to] != nullptr,
                "PostAt: node %u is not bound to a lane", to);
  Group& dest = *node_group_[to];
  Group* self = current_group_;
  if (self == nullptr) {
    // Setup or teardown: no worker is running, so the lane is ours.
    SAT_CHECK_MSG(!in_run_, "PostAt from a thread that is not running a lane");
    dest.sim.At(Clamped(when, dest.sim), std::move(task));
    return;
  }
  if (&dest == self) {
    // Same group: the caller holds it, so the delivery is an exact schedule
    // on the group's simulator. Posted work goes first: a healed link's
    // buffered messages reach the inbox from the fault injector's group, and
    // a newer message on the same channel must not overtake them.
    TakeInbox(*self);
    self->sim.At(Clamped(when, self->sim), std::move(task));
    return;
  }
  std::lock_guard<SpinLock> g(dest.inbox_lock);
  dest.inbox.push_back(Group::Posted{when, std::move(task)});
  if (when < dest.frontier->load(std::memory_order_relaxed)) {
    dest.frontier->store(when);
  }
  dest.posts.fetch_add(1);
}

void RealtimeScheduler::TakeInbox(Group& group) {
  if (group.posts.load(std::memory_order_acquire) == group.posts_taken) {
    return;  // nothing posted since the last drain
  }
  {
    std::lock_guard<SpinLock> g(group.inbox_lock);
    group.inbox.swap(group.drained);
    group.posts_taken = group.posts.load(std::memory_order_relaxed);
  }
  for (Group::Posted& entry : group.drained) {
    // A delivery from a group that ran ahead of us may target our past; the
    // clamp delays it to "now", which is indistinguishable from extra
    // network latency. The drift window keeps the clamp small.
    group.sim.At(Clamped(entry.when, group.sim), std::move(entry.task));
  }
  group.drained.clear();
}

void RealtimeScheduler::RefreshFrontier(Group& group) {
  SimTime heap = group.sim.PeekTime();
  std::lock_guard<SpinLock> g(group.inbox_lock);
  SimTime f = heap;
  for (const Group::Posted& entry : group.inbox) {
    SimTime at = Clamped(entry.when, group.sim);
    if (at < f) {
      f = at;
    }
  }
  group.frontier->store(f);
}

uint64_t RealtimeScheduler::RunGroup(Group& group, SimTime horizon, SimTime until,
                                     SimTime allowance) {
  Group* prev_group = current_group_;
  current_group_ = &group;
  uint64_t executed = 0;
  bool horizon_stop = false;
  for (int round = 0;; ++round) {
    TakeInbox(group);
    while (executed < kBatchEvents && group.sim.PeekTime() <= horizon) {
      group.sim.Step();
      ++executed;
      if (executed % kPublishEvents == 0) {
        // A long batch publishes progress as it goes: its frontier is part
        // of everyone's floor, and a stale one stalls the other groups.
        RefreshFrontier(group);
      }
    }
    // Publish progress: the floor this group reads next includes its own
    // frontier, which is stale until republished.
    RefreshFrontier(group);
    if (executed >= kBatchEvents || round + 1 >= kBatchRounds) {
      break;
    }
    if (group.posts.load(std::memory_order_acquire) != group.posts_taken) {
      continue;  // work arrived while we ran: take it before letting go
    }
    SimTime next = group.sim.PeekTime();
    if (next > until || next > allowance) {
      break;  // nothing left this run (or not yet, when paced)
    }
    // Blocked by the drift window. If the floor has risen meanwhile, keep
    // going instead of handing the group to another sweep.
    SimTime risen = Horizon(GlobalFloor(), until, allowance);
    if (next > risen) {
      horizon_stop = true;
      break;
    }
    horizon = risen;
  }
  current_group_ = prev_group;

  GroupStats& stats = group.stats;
  ++stats.batches;
  stats.events += executed;
  if (executed > 0) {
    ++stats.productive;
    stats.horizon_stops += horizon_stop ? 1 : 0;
  }
  return executed;
}

SimTime RealtimeScheduler::GlobalFloor() const {
  SimTime floor = kSimTimeNever;
  for (const auto& f : frontiers_) {
    SimTime t = f.load(std::memory_order_acquire);
    if (t < floor) {
      floor = t;
    }
  }
  return floor;
}

SimTime RealtimeScheduler::Horizon(SimTime floor, SimTime until, SimTime allowance) const {
  SimTime horizon = until < allowance ? until : allowance;
  if (floor != kSimTimeNever && floor + options_.drift_window < horizon) {
    horizon = floor + options_.drift_window;
  }
  return horizon;
}

uint64_t RealtimeScheduler::TotalPosts() const {
  uint64_t total = 0;
  for (const auto& group : groups_) {
    total += group->posts.load();
  }
  return total;
}

bool RealtimeScheduler::Quiescent(SimTime until) const {
  // Quiescent iff every group is simultaneously un-held and has no work at
  // or before `until`, and no post landed during the scan. A held group may
  // be mid-batch with posts still to come; a post that lands during the scan
  // may have lowered a frontier already read. The post counters catch the
  // second case: a group whose batch posted to a group already inspected,
  // then republished a frontier past `until`, bumped a counter in between.
  uint64_t p0 = TotalPosts();
  for (const auto& group : groups_) {
    if (group->running.load() || group->frontier->load() <= until) {
      return false;
    }
  }
  return TotalPosts() == p0;
}

void RealtimeScheduler::WorkerLoop(size_t worker_index, SimTime until) {
  size_t n = groups_.size();
  // Groups in rotated order, so workers looking beyond their own spread out.
  std::vector<Group*> order;
  for (size_t i = 0; i < n; ++i) {
    order.push_back(groups_[(worker_index + i) % n].get());
  }
  uint64_t lockouts = 0;
  auto try_run = [&](Group& group, SimTime horizon, SimTime allowance) {
    // Cheap skip first: a group with nothing at or before the horizon costs
    // one load from the packed frontier array.
    if (group.frontier->load(std::memory_order_acquire) > horizon) {
      return false;
    }
    if (group.running.load(std::memory_order_relaxed) ||
        group.running.exchange(true, std::memory_order_acquire)) {
      ++lockouts;
      return false;
    }
    uint64_t t0 = NowNs();
    uint64_t executed = RunGroup(group, horizon, until, allowance);
    if (executed > 0) {
      uint64_t busy = NowNs() - t0;
      group.stats.busy_ns += busy;
      workers_[worker_index].busy_ns.fetch_add(busy, std::memory_order_relaxed);
    }
    group.running.store(false, std::memory_order_release);
    return executed > 0;
  };
  uint64_t wall_start = NowNs();
  unsigned idle_sweeps = 0;
  while (!done_.load(std::memory_order_acquire)) {
    SimTime allowance = kSimTimeNever;
    if (options_.time_scale > 0.0) {
      double elapsed_us = static_cast<double>(NowNs() - wall_start) * 1e-3;
      allowance = static_cast<SimTime>(elapsed_us * options_.time_scale);
    }
    SimTime floor = GlobalFloor();
    if (floor > until && Quiescent(until)) {
      done_.store(true, std::memory_order_release);
      break;
    }
    SimTime horizon = Horizon(floor, until, allowance);
    // Own groups only, so a group's lanes stay warm in one core's cache.
    bool did_work = false;
    for (Group* group : order) {
      if (group->owner.load(std::memory_order_relaxed) == worker_index) {
        did_work |= try_run(*group, horizon, allowance);
      }
    }
    if (!did_work && idle_sweeps >= kStealSweeps) {
      // Idle while another worker sits on runnable work (it may be busy with
      // another group, or its core may have been taken away): steal the
      // runnable group with the lowest frontier, the one holding the floor
      // down. It stays here until someone steals it back.
      Group* victim = nullptr;
      SimTime lowest = horizon;
      for (Group* group : order) {
        SimTime f = group->frontier->load(std::memory_order_acquire);
        if (f <= lowest && group->owner.load(std::memory_order_relaxed) != worker_index &&
            !group->running.load(std::memory_order_relaxed)) {
          victim = group;
          lowest = f;
        }
      }
      if (victim != nullptr && try_run(*victim, horizon, allowance)) {
        victim->owner.store(worker_index, std::memory_order_relaxed);
        did_work = true;
      }
    }
    if (did_work) {
      idle_sweeps = 0;
    } else if (++idle_sweeps < kSpinSweeps) {
      CpuRelax();
    } else if (idle_sweeps < kYieldSweeps) {
      std::this_thread::yield();
    } else {
      // Nothing runnable for a long while (pacing, or another worker is deep
      // in a batch): sleep instead of burning a core another group needs.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Counted locally, so a sweep never writes to the run flag's line of a
  // group another worker holds.
  workers_[worker_index].lockouts.store(lockouts, std::memory_order_relaxed);
}

void RealtimeScheduler::Run(SimTime until) {
  SAT_CHECK_MSG(!running_.exchange(true), "RealtimeScheduler::Run called twice");
  for (auto& group : groups_) {
    group->frontier->store(group->sim.PeekTime());
  }
  done_.store(groups_.empty());
  in_run_ = true;
  uint64_t wall_start = NowNs();
  ThreadPool pool(options_.workers);
  for (unsigned w = 0; w < options_.workers; ++w) {
    pool.Submit([this, w, until] {
      try {
        WorkerLoop(w, until);
      } catch (...) {
        done_.store(true, std::memory_order_release);  // stop the other workers
        throw;  // the pool hands it to Wait()
      }
    });
  }
  utilization_series_.clear();
  if (options_.utilization_sample_ns > 0) {
    std::vector<uint64_t> sample_prev_busy(options_.workers, 0);
    uint64_t next_sample_ns = options_.utilization_sample_ns;
    while (!done_.load(std::memory_order_acquire)) {
      uint64_t elapsed = NowNs() - wall_start;
      if (elapsed >= next_sample_ns) {
        // The interval actually elapsed can exceed the nominal one (this loop
        // sleeps between polls); fractions divide by the measured interval.
        uint64_t interval =
            elapsed - (utilization_series_.empty()
                           ? 0
                           : utilization_series_.back().wall_ns);
        UtilizationSample sample;
        sample.wall_ns = elapsed;
        sample.busy_fraction.resize(options_.workers, 0.0);
        for (unsigned w = 0; w < options_.workers; ++w) {
          uint64_t busy = workers_[w].busy_ns.load(std::memory_order_relaxed);
          if (interval > 0) {
            sample.busy_fraction[w] =
                static_cast<double>(busy - sample_prev_busy[w]) /
                static_cast<double>(interval);
          }
          sample_prev_busy[w] = busy;
        }
        utilization_series_.push_back(std::move(sample));
        next_sample_ns = elapsed + options_.utilization_sample_ns;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  pool.Wait();  // joins the batch; rethrows the first worker exception
  in_run_ = false;
  uint64_t wall_ns = NowNs() - wall_start;
  // Posts past `until` are still in the inboxes; park them on their lanes'
  // heaps, where a single simulator would hold them too.
  for (auto& group : groups_) {
    TakeInbox(*group);
  }
  utilization_.assign(options_.workers, 0.0);
  if (wall_ns > 0) {
    for (unsigned w = 0; w < options_.workers; ++w) {
      utilization_[w] = static_cast<double>(workers_[w].busy_ns.load()) /
                        static_cast<double>(wall_ns);
    }
  }
}

std::vector<RealtimeScheduler::GroupStats> RealtimeScheduler::group_stats() const {
  std::vector<GroupStats> out;
  out.reserve(groups_.size());
  for (const auto& group : groups_) {
    out.push_back(group->stats);
  }
  return out;
}

RealtimeScheduler::GroupStats RealtimeScheduler::total_group_stats() const {
  GroupStats total;
  for (const GroupStats& s : group_stats()) {
    total.batches += s.batches;
    total.productive += s.productive;
    total.events += s.events;
    total.busy_ns += s.busy_ns;
    total.horizon_stops += s.horizon_stops;
  }
  return total;
}

uint64_t RealtimeScheduler::lockouts() const {
  uint64_t total = 0;
  for (const WorkerCounters& w : workers_) {
    total += w.lockouts.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t RealtimeScheduler::executed_events() const {
  uint64_t total = 0;
  for (const auto& group : groups_) {
    total += group->sim.executed_events();
  }
  return total;
}

}  // namespace saturn
