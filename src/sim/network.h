// Simulated wide-area network.
//
// Nodes live at *sites* (geographic regions). A message from node a to node b
// is delivered after
//
//   latency(site(a), site(b)) + injected_extra(site pair) + jitter + size/bw
//
// with per-(sender, receiver) FIFO ordering enforced — channels model TCP
// connections, which both the paper's serializer tree and its bulk-data layer
// assume ("connected with FIFO channels").
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/check.h"
#include "src/common/flat_map.h"
#include "src/common/ring_buffer.h"
#include "src/common/spin_lock.h"
#include "src/common/types.h"
#include "src/core/messages.h"
#include "src/sim/actor.h"
#include "src/sim/event_queue.h"
#include "src/sim/lane_router.h"
#include "src/sim/random.h"

namespace saturn {

using SiteId = uint32_t;

// Site-to-site one-way latency matrix, in microseconds. `Set` writes both
// directions; `SetOneWay` supports asymmetric paths (routing detours rarely
// affect both directions equally).
class LatencyMatrix {
 public:
  explicit LatencyMatrix(uint32_t sites, SimTime default_latency = Millis(50))
      : sites_(sites), lat_(static_cast<size_t>(sites) * sites, default_latency) {
    for (uint32_t i = 0; i < sites; ++i) {
      Set(i, i, 0);
    }
  }

  void Set(SiteId a, SiteId b, SimTime one_way) {
    At(a, b) = one_way;
    At(b, a) = one_way;
  }

  void SetOneWay(SiteId from, SiteId to, SimTime one_way) { At(from, to) = one_way; }

  SimTime Get(SiteId a, SiteId b) const {
    SAT_CHECK(a < sites_ && b < sites_);
    return lat_[static_cast<size_t>(a) * sites_ + b];
  }

  uint32_t sites() const { return sites_; }

 private:
  SimTime& At(SiteId a, SiteId b) {
    SAT_CHECK(a < sites_ && b < sites_);
    return lat_[static_cast<size_t>(a) * sites_ + b];
  }

  uint32_t sites_;
  std::vector<SimTime> lat_;
};

struct NetworkConfig {
  // Latency between two distinct nodes at the same site (separate machines in
  // one region, e.g. clients and their preferred datacenter).
  SimTime intra_site_latency = Micros(250);
  // Bytes per microsecond (1000 B/us == 8 Gbps). Only large payloads notice.
  double bandwidth_bytes_per_us = 1250.0;  // 10 Gbps
  // Uniform jitter as a fraction of the base latency (0 = deterministic).
  double jitter_fraction = 0.0;
  uint64_t jitter_seed = 0x5a7b;
  // Max messages buffered per cut link (buffer semantics). When a partition
  // outlasts the buffer, the oldest messages are dropped — a long outage
  // cannot hold unbounded memory, and protocols must survive the loss.
  size_t down_buffer_cap = 65536;
};

class Network {
 public:
  Network(Simulator* sim, LatencyMatrix latency, NetworkConfig config = {})
      : sim_(sim), latency_(std::move(latency)), config_(config), jitter_rng_(config.jitter_seed) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers `actor` at `site` and assigns it a node id.
  NodeId Attach(Actor* actor, SiteId site);

  // Sends `msg` from `from` to `to`. Both must be attached.
  void Send(NodeId from, NodeId to, Message msg);

  // Adds (or removes, with 0) extra one-way latency between two *sites* in
  // both directions. Used by the Fig. 6 latency-variability experiment.
  void InjectExtraLatency(SiteId a, SiteId b, SimTime extra);

  // Directed variant: extra one-way latency applied only to `from` -> `to`
  // traffic. Realistic drift trajectories (route changes, asymmetric
  // congestion) slow one direction of a path without touching the other.
  void InjectExtraLatencyOneWay(SiteId from, SiteId to, SimTime extra);

  // --- Latency trajectories (time-varying world) ---
  //
  // The *base* matrix itself can change over simulated time: a step rewrites
  // the one-way latency instantly, a ramp interpolates linearly from the value
  // observed when the ramp starts to `target` over `duration` (discretized in
  // kRampTick slices, deterministically). Steps/ramps compose with the
  // injected-extra overlay above — chaos spikes ride on top of drift. FIFO
  // delivery clamping makes latency *decreases* safe: a channel never reorders.
  void SetBaseLatency(SiteId a, SiteId b, SimTime one_way);
  void SetBaseLatencyOneWay(SiteId from, SiteId to, SimTime one_way);
  void ScheduleLatencyStep(SimTime at, SiteId a, SiteId b, SimTime one_way, bool symmetric);
  void ScheduleLatencyRamp(SimTime at, SiteId a, SiteId b, SimTime target, SimTime duration,
                           bool symmetric);

  // Current base one-way latency (no injected overlay, no intra-site rule).
  SimTime CurrentBaseLatency(SiteId from, SiteId to) const { return latency_.Get(from, to); }

  // Ramp discretization interval.
  static constexpr SimTime kRampTick = Millis(50);

  // Cuts / restores the channel between two sites. While down, messages are
  // buffered and flushed in order when the link is restored (TCP semantics).
  void SetLinkDown(SiteId a, SiteId b, bool down);

  // Cuts the channel between two sites. With `drop_messages` the cut is lossy:
  // messages sent while down are discarded, and so are messages already in
  // flight when the cut lands (checked at delivery time). Without it the cut
  // buffers like SetLinkDown (up to `down_buffer_cap`, oldest dropped first).
  void CutLink(SiteId a, SiteId b, bool drop_messages);

  // Restores a cut link; buffered messages (buffer semantics) flush in order.
  void HealLink(SiteId a, SiteId b);

  bool LinkDown(SiteId a, SiteId b) const;

  // Crashes / recovers a node. A crashed node silently drops every incoming
  // message — including those already in flight — and nothing it sends leaves
  // the machine. Recovery replays nothing: protocols must resynchronize.
  void SetNodeDown(NodeId node, bool down);
  bool NodeDown(NodeId node) const;

  SiteId SiteOf(NodeId node) const {
    SAT_CHECK(node < nodes_.size());
    return nodes_[node].site;
  }

  SimTime BaseLatency(SiteId a, SiteId b) const {
    // Actors read this for RTO estimates while a fault-injector lane may be
    // rewriting the overlay; under a router the overlay is lock-protected.
    auto lock = ReadLock();
    return BaseLatencyLocked(a, b);
  }

  // Traffic counters, summed over the per-node shards: under a router, read
  // them once the run is over, not from a lane.
  uint64_t messages_sent() const {
    return SumCounters([](const Counters& c) { return c.messages_sent; });
  }
  uint64_t bytes_sent() const {
    return SumCounters([](const Counters& c) { return c.bytes_sent; });
  }
  // Wire bytes by traffic class (messages.h): separates the metadata plane
  // from bulk payloads and client RPCs, so label-compression wins show up in
  // plain counters without traces.
  uint64_t wire_bytes(LinkClass cls) const {
    return SumCounters(
        [cls](const Counters& c) { return c.wire_bytes[static_cast<size_t>(cls)]; });
  }
  // Labels + acks: everything Saturn's metadata service puts on the wire.
  uint64_t metadata_wire_bytes() const {
    return wire_bytes(LinkClass::kMetadataLabels) + wire_bytes(LinkClass::kMetadataAcks);
  }
  // Messages lost to faults: lossy cuts (including in-flight loss), buffer
  // overflow on buffered cuts, and crashed nodes.
  uint64_t messages_dropped() const {
    return dropped_on_cut() + dropped_overflow() + dropped_node_down();
  }
  uint64_t dropped_on_cut() const {
    return SumCounters([](const Counters& c) { return c.dropped_on_cut; });
  }
  uint64_t dropped_overflow() const {
    return SumCounters([](const Counters& c) { return c.dropped_overflow; });
  }
  uint64_t dropped_node_down() const {
    return SumCounters([](const Counters& c) { return c.dropped_node_down; });
  }
  Simulator* simulator() { return sim_; }

  size_t NodeCount() const { return nodes_.size(); }

  // Installs a multi-lane execution backend. From now on the network asks the
  // router for virtual time and routes deliveries to the lane owning the
  // destination node. Senders then run on concurrent worker threads: the
  // FIFO clamps move into the per-node SenderState, which already holds the
  // traffic counters, and the fault and latency state goes behind a
  // SlotLock (below). With no router (the default) there is no lock on any
  // path and behavior is bit-for-bit the single-simulator one. Tracing and
  // latency trajectories are single-threaded-only features; they cannot be
  // combined with a router.
  void SetRouter(LaneRouter* router) {
    SAT_CHECK(trace_ == nullptr);
    router_ = router;
    slots_ = std::make_unique<SlotLock>();
  }

  // Observation only: sends, deliveries and fault drops are recorded onto
  // `track`. Null disables (the default); no simulation state changes either
  // way.
  void SetTrace(obs::TraceRecorder* trace, uint32_t track) {
    trace_ = trace;
    trace_track_ = track;
  }

 private:
  struct NodeInfo {
    Actor* actor = nullptr;
    SiteId site = 0;
    bool down = false;
  };

  struct BufferedSend {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    Message msg;
  };

  struct LinkState {
    bool down = false;
    bool drop = false;  // lossy cut: discard instead of buffering
    RingQueue<BufferedSend> buffer;  // recycled slots: no per-message blocks
  };

  struct Channel {
    SimTime last_delivery = 0;  // FIFO clamp
  };

  struct Counters {
    uint64_t messages_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t wire_bytes[kNumLinkClasses] = {};
    uint64_t dropped_on_cut = 0;
    uint64_t dropped_overflow = 0;
    uint64_t dropped_node_down = 0;
  };

  // Everything a send or a delivery writes is per node: sends by the
  // sender's lane, receive-side drops by the receiver's; under a router a
  // fault writer holding every slot may write too. Cache-line aligned, so
  // concurrent lanes never write the same line.
  struct alignas(64) SenderState {
    // FIFO clamp per receiver, router only. The single-threaded path keeps
    // one network-wide table (channels_): a table per sending node costs
    // three allocations per node, +15% allocs/event on perf_sim's smoke
    // fig5_full, which its 10% allocation gate rejects.
    FlatMap<NodeId, SimTime> last_delivery;
    Counters counters;
  };

  // Reader-biased lock over the fault and latency state (node and link
  // status, the injected overlay, the base matrix) under a router. Every send
  // and delivery reads that state; faults write it a few times per run. A
  // reader locks only its own thread's slot — a line no other reader
  // touches — and a writer locks every slot, so readers never contend with
  // each other.
  class SlotLock {
   public:
    SpinLock& Mine() {
      static std::atomic<unsigned> next_slot{0};
      thread_local unsigned slot = next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
      return slots_[slot].lock;
    }
    void LockAll() {
      for (Slot& s : slots_) {
        s.lock.lock();
      }
    }
    void UnlockAll() {
      for (Slot& s : slots_) {
        s.lock.unlock();
      }
    }

   private:
    static constexpr unsigned kSlots = 16;
    struct alignas(64) Slot {
      SpinLock lock;
    };
    Slot slots_[kSlots];
  };

  // Exclusive access to the fault and latency state: every slot under a
  // router, nothing otherwise.
  class WriteGuard {
   public:
    explicit WriteGuard(SlotLock* slots) : slots_(slots) {
      if (slots_ != nullptr) {
        slots_->LockAll();
      }
    }
    ~WriteGuard() {
      if (slots_ != nullptr) {
        slots_->UnlockAll();
      }
    }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    SlotLock* slots_;
  };

  static uint64_t SitePair(SiteId a, SiteId b) {
    if (a > b) {
      std::swap(a, b);
    }
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  // Direction-preserving key for the injected-extra overlay.
  static uint64_t DirectedPair(SiteId from, SiteId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  // Virtual time as seen by the calling thread: the owning lane's clock under
  // a router, the single simulator's otherwise.
  SimTime LocalNow() const { return router_ != nullptr ? router_->Now() : sim_->Now(); }

  // Shared access to the fault and latency state: the calling thread's slot
  // under a router; no lock at all on the single-threaded path.
  std::unique_lock<SpinLock> ReadLock() const {
    return slots_ != nullptr ? std::unique_lock<SpinLock>(slots_->Mine())
                             : std::unique_lock<SpinLock>();
  }
  WriteGuard WriteLock() { return WriteGuard(slots_.get()); }

  template <typename Fn>
  uint64_t SumCounters(Fn field) const {
    uint64_t sum = field(cut_escalation_);
    for (const SenderState& s : senders_) {
      sum += field(s.counters);
    }
    return sum;
  }

  // Caller holds a read or write lock (or no router is installed).
  SimTime BaseLatencyLocked(SiteId a, SiteId b) const {
    if (a == b) {
      return config_.intra_site_latency;
    }
    SimTime extra = 0;
    if (const SimTime* injected = injected_.Find(DirectedPair(a, b))) {
      extra = *injected;
    }
    return latency_.Get(a, b) + extra;
  }

  void SendLocked(NodeId from, NodeId to, Message msg);
  void HealLinkLocked(SiteId a, SiteId b);
  void Deliver(NodeId from, NodeId to, Message msg, SimTime when, uint32_t wire_size);
  void FinishDelivery(NodeId from, NodeId to, const Message& msg);
  void RampTick(SiteId a, SiteId b, SimTime start_value_a, SimTime start_value_b,
                SimTime target, SimTime started, SimTime duration, bool symmetric);

  Simulator* sim_;
  LaneRouter* router_ = nullptr;
  // Router only (null otherwise). slots_ guards latency_, injected_, links_
  // and nodes_[].down; buffer_mu_ additionally guards the buffers of cut
  // links, which concurrent readers append to; jitter_mu_ guards
  // jitter_rng_.
  std::unique_ptr<SlotLock> slots_;
  std::mutex buffer_mu_;
  std::mutex jitter_mu_;
  LatencyMatrix latency_;
  NetworkConfig config_;
  Rng jitter_rng_;
  std::vector<NodeInfo> nodes_;
  std::vector<SenderState> senders_;     // indexed by NodeId
  FlatMap<uint64_t, Channel> channels_;  // key: (from << 32) | to; no router only
  FlatMap<uint64_t, SimTime> injected_;  // key: directed site pair
  FlatMap<uint64_t, LinkState> links_;   // key: site pair; only cut links present
  // Buffered messages lost when CutLink escalates a cut to a lossy one
  // (only dropped_on_cut is used): the fault writer's count, on no node.
  Counters cut_escalation_;
  obs::TraceRecorder* trace_ = nullptr;
  uint32_t trace_track_ = 0;
};

}  // namespace saturn

#endif  // SRC_SIM_NETWORK_H_
