#include "src/sim/network.h"

#include <algorithm>
#include <utility>

namespace saturn {

NodeId Network::Attach(Actor* actor, SiteId site) {
  SAT_CHECK(actor != nullptr);
  SAT_CHECK(site < latency_.sites());
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeInfo{actor, site, /*down=*/false});
  senders_.emplace_back();
  actor->set_node_id(id);
  return id;
}

void Network::Send(NodeId from, NodeId to, Message msg) {
  auto lock = ReadLock();
  SendLocked(from, to, std::move(msg));
}

void Network::SendLocked(NodeId from, NodeId to, Message msg) {
  SAT_CHECK(from < nodes_.size() && to < nodes_.size());
  Counters& counters = senders_[from].counters;
  if (nodes_[from].down) {
    // A crashed node produces nothing: the send never leaves the machine.
    ++counters.dropped_node_down;
    if (trace_ != nullptr) {
      trace_->Instant(sim_->Now(), trace_track_, "net.drop", "sender_down", from, to);
    }
    return;
  }
  SiteId sa = nodes_[from].site;
  SiteId sb = nodes_[to].site;

  if (LinkState* link = links_.Find(SitePair(sa, sb)); link != nullptr && link->down) {
    if (link->drop) {
      ++counters.dropped_on_cut;
      if (trace_ != nullptr) {
        trace_->Instant(sim_->Now(), trace_track_, "net.drop", "link_cut", from, to);
      }
      return;
    }
    // Readers on other lanes may be buffering onto the same cut link.
    std::unique_lock<std::mutex> buffer_lock(buffer_mu_, std::defer_lock);
    if (router_ != nullptr) {
      buffer_lock.lock();
    }
    if (config_.down_buffer_cap > 0 && link->buffer.size() >= config_.down_buffer_cap) {
      link->buffer.pop_front();  // drop-oldest
      ++counters.dropped_overflow;
      if (trace_ != nullptr) {
        trace_->Instant(sim_->Now(), trace_track_, "net.drop", "buffer_overflow", from,
                        to);
      }
    }
    link->buffer.push_back(BufferedSend{from, to, std::move(msg)});
    return;
  }

  SimTime base = BaseLatencyLocked(sa, sb);
  SimTime jitter = 0;
  if (config_.jitter_fraction > 0.0 && base > 0) {
    std::unique_lock<std::mutex> jitter_lock(jitter_mu_, std::defer_lock);
    if (router_ != nullptr) {
      jitter_lock.lock();
    }
    jitter = static_cast<SimTime>(static_cast<double>(base) * config_.jitter_fraction *
                                  jitter_rng_.NextDouble());
  }
  uint32_t size = MessageWireSize(msg);
  SimTime transmission = static_cast<SimTime>(static_cast<double>(size) /
                                              config_.bandwidth_bytes_per_us);
  SimTime when = LocalNow() + base + jitter + transmission;
  Deliver(from, to, std::move(msg), when, size);
}

void Network::Deliver(NodeId from, NodeId to, Message msg, SimTime when, uint32_t wire_size) {
  // FIFO clamp: no message on a (from, to) channel overtakes an earlier one.
  SenderState& sender = senders_[from];
  SimTime& last_delivery =
      router_ != nullptr ? sender.last_delivery[to]
                         : channels_[(static_cast<uint64_t>(from) << 32) | to].last_delivery;
  if (when < last_delivery) {
    when = last_delivery;
  }
  last_delivery = when;

  Counters& counters = sender.counters;
  ++counters.messages_sent;
  counters.bytes_sent += wire_size;
  counters.wire_bytes[static_cast<size_t>(MessageLinkClass(msg))] += wire_size;
  if (trace_ != nullptr) {
    trace_->Hop(sim_->Now(), trace_track_, "net.send", 0, from, to);
  }

  // The message moves into the event and is handed to the actor without
  // further copies.
  auto task = [this, from, to, m = std::move(msg)]() {
    FinishDelivery(from, to, m);
  };
  // The delivery closure is the simulator's single hottest scheduling site:
  // one per simulated message. It must stay inside InlineTask's buffer, or
  // every message pays a heap round trip again.
  static_assert(InlineTask::fits_inline<decltype(task)>,
                "network delivery closure no longer fits InlineTask's inline buffer; "
                "grow InlineTask::kCapacity or shrink Message");
  if (router_ != nullptr) {
    router_->PostAt(to, when, InlineTask(std::move(task)));
  } else {
    sim_->At(when, std::move(task));
  }
}

void Network::FinishDelivery(NodeId from, NodeId to, const Message& msg) {
  // Fault state is re-checked at delivery time: a lossy cut or a crash landing
  // while the message is in flight loses it (packets on the wire do not
  // survive either). Buffered cuts leave in-flight traffic alone — they model
  // TCP, which retransmits once the route heals.
  Actor* receiver = nullptr;
  {
    auto lock = ReadLock();
    if (nodes_[to].down) {
      ++senders_[to].counters.dropped_node_down;
      if (trace_ != nullptr) {
        trace_->Instant(sim_->Now(), trace_track_, "net.drop", "receiver_down", from, to);
      }
      return;
    }
    const LinkState* link = links_.Find(SitePair(nodes_[from].site, nodes_[to].site));
    if (link != nullptr && link->down && link->drop) {
      ++senders_[to].counters.dropped_on_cut;
      if (trace_ != nullptr) {
        trace_->Instant(sim_->Now(), trace_track_, "net.drop", "lost_in_flight", from, to);
      }
      return;
    }
    if (trace_ != nullptr) {
      trace_->Hop(sim_->Now(), trace_track_, "net.deliver", 0, from, to);
    }
    receiver = nodes_[to].actor;
  }
  // The handler runs outside the lock: it will re-enter the network to send.
  receiver->HandleMessage(from, msg);
}

void Network::InjectExtraLatency(SiteId a, SiteId b, SimTime extra) {
  auto lock = WriteLock();
  if (extra == 0) {
    injected_.Erase(DirectedPair(a, b));
    injected_.Erase(DirectedPair(b, a));
  } else {
    injected_[DirectedPair(a, b)] = extra;
    injected_[DirectedPair(b, a)] = extra;
  }
}

void Network::InjectExtraLatencyOneWay(SiteId from, SiteId to, SimTime extra) {
  auto lock = WriteLock();
  if (extra == 0) {
    injected_.Erase(DirectedPair(from, to));
  } else {
    injected_[DirectedPair(from, to)] = extra;
  }
}

void Network::SetBaseLatency(SiteId a, SiteId b, SimTime one_way) {
  auto lock = WriteLock();
  latency_.Set(a, b, one_way);
}

void Network::SetBaseLatencyOneWay(SiteId from, SiteId to, SimTime one_way) {
  auto lock = WriteLock();
  latency_.SetOneWay(from, to, one_way);
}

void Network::ScheduleLatencyStep(SimTime at, SiteId a, SiteId b, SimTime one_way,
                                  bool symmetric) {
  SAT_CHECK(router_ == nullptr);  // trajectories are a deterministic-sim feature
  sim_->At(at, [this, a, b, one_way, symmetric]() {
    if (symmetric) {
      latency_.Set(a, b, one_way);
    } else {
      latency_.SetOneWay(a, b, one_way);
    }
  });
}

void Network::ScheduleLatencyRamp(SimTime at, SiteId a, SiteId b, SimTime target,
                                  SimTime duration, bool symmetric) {
  SAT_CHECK(router_ == nullptr);  // trajectories are a deterministic-sim feature
  if (duration <= 0) {
    ScheduleLatencyStep(at, a, b, target, symmetric);
    return;
  }
  // The ramp's start values are sampled when it begins, not when it is
  // scheduled, so earlier trajectory events on the same pair compose.
  sim_->At(at, [this, a, b, target, duration, symmetric]() {
    RampTick(a, b, latency_.Get(a, b), latency_.Get(b, a), target, sim_->Now(), duration,
             symmetric);
  });
}

void Network::RampTick(SiteId a, SiteId b, SimTime start_value_a, SimTime start_value_b,
                       SimTime target, SimTime started, SimTime duration, bool symmetric) {
  SimTime elapsed = sim_->Now() - started;
  if (elapsed >= duration) {
    elapsed = duration;
  }
  auto lerp = [&](SimTime from) {
    return from + (target - from) * elapsed / duration;
  };
  latency_.SetOneWay(a, b, lerp(start_value_a));
  if (symmetric) {
    latency_.SetOneWay(b, a, lerp(start_value_b));
  }
  if (elapsed >= duration) {
    return;
  }
  SimTime next = std::min<SimTime>(kRampTick, duration - elapsed);
  sim_->At(sim_->Now() + next,
           [this, a, b, start_value_a, start_value_b, target, started, duration, symmetric]() {
             RampTick(a, b, start_value_a, start_value_b, target, started, duration,
                      symmetric);
           });
}

void Network::SetLinkDown(SiteId a, SiteId b, bool down) {
  auto lock = WriteLock();
  if (down) {
    LinkState& link = links_[SitePair(a, b)];
    link.down = true;
    link.drop = false;
  } else {
    HealLinkLocked(a, b);
  }
}

void Network::CutLink(SiteId a, SiteId b, bool drop_messages) {
  auto lock = WriteLock();
  LinkState& link = links_[SitePair(a, b)];
  link.down = true;
  link.drop = drop_messages;
  if (drop_messages) {
    // Escalating a buffered cut to a lossy one loses what was buffered.
    cut_escalation_.dropped_on_cut += link.buffer.size();
    link.buffer.clear();
  }
}

void Network::HealLink(SiteId a, SiteId b) {
  auto lock = WriteLock();
  HealLinkLocked(a, b);
}

void Network::HealLinkLocked(SiteId a, SiteId b) {
  LinkState* link = links_.Find(SitePair(a, b));
  if (link == nullptr || !link->down) {
    return;
  }
  auto buffered = std::move(link->buffer);
  links_.Erase(SitePair(a, b));
  for (size_t i = 0; i < buffered.size(); ++i) {
    BufferedSend& entry = buffered[i];
    SendLocked(entry.from, entry.to, std::move(entry.msg));
  }
}

bool Network::LinkDown(SiteId a, SiteId b) const {
  auto lock = ReadLock();
  const LinkState* link = links_.Find(SitePair(a, b));
  return link != nullptr && link->down;
}

void Network::SetNodeDown(NodeId node, bool down) {
  auto lock = WriteLock();
  SAT_CHECK(node < nodes_.size());
  nodes_[node].down = down;
}

bool Network::NodeDown(NodeId node) const {
  auto lock = ReadLock();
  SAT_CHECK(node < nodes_.size());
  return nodes_[node].down;
}

}  // namespace saturn
