#include "src/runtime/cluster.h"

#include <algorithm>
#include <string>

namespace saturn {
namespace {

// Region short name for EC2 sites, generic fallback for synthetic ones (test
// topologies use site ids past Table 1's seven regions).
std::string SiteName(SiteId site) {
  if (site < kNumEc2Regions) {
    return Ec2RegionName(site);
  }
  return "site" + std::to_string(site);
}

}  // namespace

const char* ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kEventual:
      return "eventual";
    case Protocol::kSaturn:
      return "saturn";
    case Protocol::kSaturnTimestamp:
      return "saturn-p2p";
    case Protocol::kGentleRain:
      return "gentlerain";
    case Protocol::kCure:
      return "cure";
    case Protocol::kCops:
      return "cops";
  }
  return "?";
}

ClientProtocolMode ClientModeFor(Protocol protocol) {
  switch (protocol) {
    case Protocol::kCure:
      return ClientProtocolMode::kVector;
    case Protocol::kSaturn:
    case Protocol::kSaturnTimestamp:
      return ClientProtocolMode::kSaturn;
    case Protocol::kCops:
      return ClientProtocolMode::kExplicit;
    case Protocol::kEventual:
    case Protocol::kGentleRain:
      return ClientProtocolMode::kScalar;
  }
  return ClientProtocolMode::kScalar;
}

Simulator* Cluster::NewLaneSim(uint32_t affinity) {
  return scheduler_ != nullptr ? scheduler_->AddLane(affinity) : &sim_;
}

Cluster::Cluster(ClusterConfig config, ReplicaMap replicas, std::vector<DcId> client_homes,
                 const GeneratorFactory& generator_factory)
    : config_(std::move(config)), replicas_(std::move(replicas)) {
  const uint32_t n = num_dcs();
  SAT_CHECK(n >= 1);
  SAT_CHECK(replicas_.num_dcs() == n);

  // Trace recorder first: every later component takes a raw pointer, and
  // track registration order (sim, net, DCs in id order, then serializers in
  // DeployTree order) fixes the track ids, so exported traces are
  // deterministic for a given configuration.
  if (config_.trace.enabled || config_.trace.attribution) {
    trace_ = std::make_unique<obs::TraceRecorder>(config_.trace);
    sim_.set_trace(trace_.get(), trace_->RegisterTrack("sim"));
  }
  if (config_.trace.attribution) {
    attribution_ = std::make_unique<obs::AttributionProfiler>(n);
    trace_->set_attribution(attribution_.get());
  }

  if (config_.backend == ExecBackend::kRealtime) {
    SAT_CHECK_MSG(!config_.trace.enabled && !config_.trace.attribution,
                  "tracing requires the deterministic backend");
    SAT_CHECK_MSG(config_.timeseries_window == 0,
                  "time-series telemetry requires the deterministic backend");
    SAT_CHECK_MSG(!config_.dynamic.enabled,
                  "dynamic topology requires the deterministic backend");
    scheduler_ = std::make_unique<RealtimeScheduler>(config_.realtime);
  }

  net_ = std::make_unique<Network>(&sim_, config_.latencies, config_.net);
  if (trace_ != nullptr) {
    net_->SetTrace(trace_.get(), trace_->RegisterTrack("net"));
  }
  if (scheduler_ != nullptr) {
    net_->SetRouter(scheduler_.get());
  }
  metrics_ = std::make_unique<Metrics>(n);
  if (scheduler_ != nullptr) {
    metrics_->EnableLocking();
  }
  if (config_.enable_oracle) {
    // Open-loop session user ids are oracle client ids, so the oracle must
    // cover them too (its per-client state is quadratic: oracle runs stay at
    // test scale, which is what it is for).
    uint32_t oracle_clients = static_cast<uint32_t>(
        std::max<uint64_t>(client_homes.size(), config_.open_loop.sessions));
    oracle_ = std::make_unique<CausalityOracle>(n, oracle_clients);
    if (scheduler_ != nullptr) {
      oracle_->EnableLocking();
    }
  }

  // --- Datacenters ----------------------------------------------------------
  ReplicaResolver resolver = [this](KeyId key) { return replicas_.ReplicasOf(key); };
  std::vector<SaturnDc*> saturn_dcs;
  for (DcId id = 0; id < n; ++id) {
    DatacenterConfig dc_config = config_.dc;
    dc_config.id = id;
    dc_config.rng_seed = config_.seed ^ 0x5157a7u;
    Simulator* dc_sim = NewLaneSim(id);
    std::unique_ptr<DatacenterBase> dc;
    switch (config_.protocol) {
      case Protocol::kEventual:
        dc = std::make_unique<EventualDc>(dc_sim, net_.get(), dc_config, n, resolver,
                                          metrics_.get(), oracle_.get());
        break;
      case Protocol::kSaturn:
      case Protocol::kSaturnTimestamp: {
        auto sdc = std::make_unique<SaturnDc>(dc_sim, net_.get(), dc_config, n, resolver,
                                              metrics_.get(), oracle_.get());
        saturn_dcs.push_back(sdc.get());
        dc = std::move(sdc);
        break;
      }
      case Protocol::kGentleRain:
        dc = std::make_unique<GentleRainDc>(dc_sim, net_.get(), dc_config, n, resolver,
                                            metrics_.get(), oracle_.get());
        break;
      case Protocol::kCure:
        dc = std::make_unique<CureDc>(dc_sim, net_.get(), dc_config, n, resolver,
                                      metrics_.get(), oracle_.get());
        break;
      case Protocol::kCops:
        dc = std::make_unique<CopsDc>(dc_sim, net_.get(), dc_config, n, resolver,
                                      metrics_.get(), oracle_.get());
        break;
    }
    net_->Attach(dc.get(), config_.dc_sites[id]);
    if (scheduler_ != nullptr) {
      scheduler_->BindNode(dc->node_id(), dc_sim);
    }
    if (trace_ != nullptr) {
      std::string track_name =
          "dc" + std::to_string(id) + ":" + SiteName(config_.dc_sites[id]);
      dc->SetTrace(trace_.get(), trace_->RegisterTrack(std::move(track_name)));
    }
    datacenters_.push_back(std::move(dc));
  }
  for (DcId a = 0; a < n; ++a) {
    for (DcId b = 0; b < n; ++b) {
      if (a != b) {
        datacenters_[a]->RegisterPeer(b, datacenters_[b]->node_id());
      }
    }
  }

  // --- Saturn metadata service ----------------------------------------------
  initial_active_ = DcSet::FirstN(n);
  if (config_.dynamic.enabled) {
    SAT_CHECK_MSG(config_.protocol == Protocol::kSaturn,
                  "dynamic topology requires the Saturn protocol");
    for (DcId dc : config_.dynamic.deferred_dcs) {
      SAT_CHECK(dc < n);
      initial_active_ = initial_active_.Minus(DcSet::Single(dc));
    }
    SAT_CHECK(initial_active_.Size() >= 2);
  }
  if (config_.protocol == Protocol::kSaturn) {
    // Solver-space view of the deployed tree, for the reconfiguration
    // controller's mismatch evaluation. Equal to tree_ when every datacenter
    // is active (compact ids == real ids).
    TreeTopology compact_tree;
    std::vector<double> pair_weights =
        config_.weighted_tree ? replicas_.PairWeights() : std::vector<double>();
    if (initial_active_.Size() < n) {
      // Deferred datacenters are not in the initial tree: solve over the
      // active subset only. Only the generated kind makes sense here — a star
      // or custom tree would name leaves that are not active.
      SAT_CHECK_MSG(config_.tree_kind == SaturnTreeKind::kGenerated,
                    "deferred datacenters require a generated tree");
      ActiveTreeSolve solved = SolveActiveTree(initial_active_, config_.dc_sites,
                                               pair_weights, config_.latencies);
      tree_ = solved.topology;
      compact_tree = solved.compact;
    } else {
      switch (config_.tree_kind) {
        case SaturnTreeKind::kStar:
          tree_ = StarTopology(config_.dc_sites, config_.star_hub);
          break;
        case SaturnTreeKind::kCustom:
          tree_ = config_.custom_tree;
          break;
        case SaturnTreeKind::kGenerated: {
          SolverInput input;
          input.dc_sites = config_.dc_sites;
          input.candidate_sites = config_.dc_sites;
          input.latencies = &config_.latencies;
          input.weights = pair_weights;
          tree_ = FindConfiguration(input).topology;
          break;
        }
      }
      compact_tree = tree_;
    }
    Simulator* meta_sim = NewLaneSim();
    metadata_ = std::make_unique<MetadataService>(meta_sim, net_.get(), saturn_dcs);
    metadata_->SetBatchConfig({config_.dc.batch_max_labels, config_.dc.batch_max_bytes,
                               config_.dc.batch_deadline});
    if (trace_ != nullptr) {
      metadata_->SetTrace(trace_.get(), SiteName);
    }
    size_t nodes_before_tree = net_->NodeCount();
    metadata_->DeployTree(/*epoch=*/0, tree_, config_.chain_replicas);
    if (scheduler_ != nullptr) {
      // DeployTree attached the serializers internally; they all live on the
      // metadata lane.
      for (size_t node = nodes_before_tree; node < net_->NodeCount(); ++node) {
        scheduler_->BindNode(static_cast<NodeId>(node), meta_sim);
      }
    }

    if (config_.dynamic.enabled) {
      for (SaturnDc* sdc : saturn_dcs) {
        sdc->SetActiveSet(initial_active_);
      }
      monitor_ = std::make_unique<TopologyMonitor>(net_.get(), config_.dc_sites,
                                                   config_.latencies, config_.dynamic.monitor);
      if (config_.dynamic.adaptive_detector) {
        TopologyMonitor* monitor = monitor_.get();
        for (DcId id = 0; id < n; ++id) {
          SiteId site = config_.dc_sites[id];
          saturn_dcs[id]->SetRttProvider([monitor, site]() { return monitor->MaxRttFrom(site); },
                                         config_.dynamic.rtt_multiplier);
        }
      }
      controller_ = std::make_unique<ReconfigController>(
          &sim_, metadata_.get(), monitor_.get(), saturn_dcs, config_.dc_sites,
          std::move(pair_weights), metrics_.get(), config_.dynamic.controller);
      controller_->SetInitialTree(/*epoch=*/0, initial_active_, compact_tree);
      controller_->SetClientGate([this](DcId dc, bool run) {
        for (size_t i = 0; i < clients_.size(); ++i) {
          if (client_homes_[i] == dc) {
            if (run) {
              clients_[i]->Start();
            } else {
              clients_[i]->Stop();
            }
          }
        }
      });
      if (trace_ != nullptr) {
        controller_->SetTrace(trace_.get(), trace_->RegisterTrack("reconfig"));
      }
    }
  }

  // --- Clients ---------------------------------------------------------------
  // Ties break towards lower latency from the client's home.
  auto remote_target = [this](KeyId key, DcId home) {
    DcSet set = replicas_.ReplicasOf(key);
    DcId best = kInvalidDc;
    SimTime best_lat = kSimTimeNever;
    for (DcId dc : set) {
      SimTime lat = config_.latencies.Get(config_.dc_sites[home], config_.dc_sites[dc]);
      if (lat < best_lat) {
        best_lat = lat;
        best = dc;
      }
    }
    SAT_CHECK(best != kInvalidDc);
    return best;
  };

  std::vector<NodeId> dc_nodes(n);
  for (DcId id = 0; id < n; ++id) {
    dc_nodes[id] = datacenters_[id]->node_id();
  }

  // Realtime: clients bundle onto one lane per home datacenter — closed-loop
  // clients spend their life waiting on responses, so a lane per client would
  // be pure overhead.
  std::vector<Simulator*> client_sim_by_home(n, nullptr);
  if (scheduler_ != nullptr) {
    for (DcId id = 0; id < n; ++id) {
      client_sim_by_home[id] = NewLaneSim(id);
    }
  }

  client_homes_ = client_homes;
  for (uint32_t i = 0; i < client_homes.size(); ++i) {
    DcId home = client_homes[i];
    SAT_CHECK(home < n);
    ClientConfig cc;
    cc.id = i;
    cc.home = home;
    cc.mode = ClientModeFor(config_.protocol);
    cc.num_dcs = n;
    cc.prune_context = config_.cops_prune;
    cc.seed = config_.seed;
    Simulator* client_sim = scheduler_ != nullptr ? client_sim_by_home[home] : &sim_;
    auto client = std::make_unique<Client>(client_sim, net_.get(), &replicas_,
                                           generator_factory(replicas_, home, i),
                                           metrics_.get(), oracle_.get(), cc, dc_nodes,
                                           remote_target);
    net_->Attach(client.get(), config_.dc_sites[home]);
    if (scheduler_ != nullptr) {
      scheduler_->BindNode(client->node_id(), client_sim);
    }
    client_sims_.push_back(client_sim);
    clients_.push_back(std::move(client));
  }

  // --- Open-loop session muxes ----------------------------------------------
  if (config_.open_loop.sessions > 0) {
    const OpenLoopConfig& ol = config_.open_loop;
    ClientProtocolMode mode = ClientModeFor(config_.protocol);
    SAT_CHECK_MSG(mode == ClientProtocolMode::kScalar || mode == ClientProtocolMode::kSaturn,
                  "the open-loop engine supports label-only protocols");
    SAT_CHECK_MSG(replicas_.num_keys() >= ol.sessions,
                  "open-loop keyspace must cover every session user id");
    SAT_CHECK(ol.sessions <= UINT32_MAX);
    StreamingGraphConfig gc;
    gc.num_users = static_cast<uint32_t>(ol.sessions);
    gc.edges_per_node = ol.edges_per_node;
    gc.seed = config_.seed ^ 0x57ea619eull;  // independent of op/keyspace seeds
    streaming_graph_ = std::make_unique<StreamingSocialGraph>(gc);
    const ArrivalPlan* plan = ol.plan.Empty() ? nullptr : &config_.open_loop.plan;
    for (DcId id = 0; id < n; ++id) {
      SessionMuxConfig mc;
      mc.home = id;
      mc.num_dcs = n;
      mc.mode = mode;
      mc.total_sessions = ol.sessions;
      mc.arrival_rate = ol.arrival_rate;
      mc.zipf_theta = ol.zipf_theta;
      mc.max_queue = ol.max_queue;
      mc.mix = ol.mix;
      mc.seed = config_.seed;
      Simulator* mux_sim = NewLaneSim(id);
      auto mux = std::make_unique<SessionMux>(mux_sim, net_.get(), &replicas_,
                                              streaming_graph_.get(), plan, metrics_.get(),
                                              oracle_.get(), mc, dc_nodes, remote_target);
      net_->Attach(mux.get(), config_.dc_sites[id]);
      if (scheduler_ != nullptr) {
        scheduler_->BindNode(mux->node_id(), mux_sim);
      }
      mux_sims_.push_back(mux_sim);
      muxes_.push_back(std::move(mux));
    }
  }
}

Cluster::~Cluster() = default;

void Cluster::InstallFaultPlan(const FaultPlan& plan) {
  SAT_CHECK(injector_ == nullptr);
  FaultTargets targets;
  targets.net = net_.get();
  targets.metadata = metadata_.get();
  for (auto& dc : datacenters_) {
    targets.dc_nodes.push_back(dc->node_id());
  }
  targets.dc_sites = config_.dc_sites;
  Simulator* injector_sim = NewLaneSim();
  injector_ = std::make_unique<FaultInjector>(injector_sim, plan, std::move(targets));
  // The injector exchanges no messages; attachment just gives it a node id.
  net_->Attach(injector_.get(), config_.dc_sites[0]);
  if (scheduler_ != nullptr) {
    scheduler_->BindNode(injector_->node_id(), injector_sim);
  }
  if (trace_ != nullptr) {
    injector_->SetTrace(trace_.get(), trace_->RegisterTrack("faults"));
  }
}

void Cluster::InstallDriftPlan(const DriftPlan& plan) {
  for (const DriftEvent& e : plan.events) {
    switch (e.kind) {
      case DriftKind::kStep:
        net_->ScheduleLatencyStep(e.at, e.site_a, e.site_b, e.latency, /*symmetric=*/true);
        break;
      case DriftKind::kStepOneWay:
        net_->ScheduleLatencyStep(e.at, e.site_a, e.site_b, e.latency, /*symmetric=*/false);
        break;
      case DriftKind::kRamp:
        net_->ScheduleLatencyRamp(e.at, e.site_a, e.site_b, e.latency, e.duration,
                                  /*symmetric=*/true);
        break;
      case DriftKind::kRampOneWay:
        net_->ScheduleLatencyRamp(e.at, e.site_a, e.site_b, e.latency, e.duration,
                                  /*symmetric=*/false);
        break;
      case DriftKind::kJoin:
        SAT_CHECK_MSG(controller_ != nullptr, "drift-plan join requires dynamic topology");
        sim_.At(e.at, [this, dc = e.dc]() { controller_->RequestJoin(dc); });
        break;
      case DriftKind::kLeave:
        SAT_CHECK_MSG(controller_ != nullptr, "drift-plan leave requires dynamic topology");
        sim_.At(e.at, [this, dc = e.dc]() { controller_->RequestLeave(dc); });
        break;
    }
  }
}

void Cluster::StopClientsAt(SimTime when) { stop_clients_at_ = when; }

obs::MetricsRegistry& Cluster::metrics_registry() {
  if (registry_ == nullptr) {
    BuildMetricsRegistry();
  }
  return *registry_;
}

void Cluster::BuildMetricsRegistry() {
  registry_ = std::make_unique<obs::MetricsRegistry>();
  obs::MetricsRegistry& reg = *registry_;

  // Network plane. Getter lambdas read the owners' live counters, so one
  // registry serves any number of snapshots and the owners keep their plain
  // (allocation-free) counters on the hot path.
  Network* net = net_.get();
  reg.AddScalar("net.messages_sent", [net] { return static_cast<int64_t>(net->messages_sent()); });
  reg.AddScalar("net.bytes_sent", [net] { return static_cast<int64_t>(net->bytes_sent()); });
  reg.AddScalar("net.dropped_on_cut",
                [net] { return static_cast<int64_t>(net->dropped_on_cut()); });
  reg.AddScalar("net.dropped_overflow",
                [net] { return static_cast<int64_t>(net->dropped_overflow()); });
  reg.AddScalar("net.dropped_node_down",
                [net] { return static_cast<int64_t>(net->dropped_node_down()); });
  reg.AddScalar("net.messages_dropped",
                [net] { return static_cast<int64_t>(net->messages_dropped()); });
  for (uint32_t c = 0; c < kNumLinkClasses; ++c) {
    LinkClass cls = static_cast<LinkClass>(c);
    reg.AddScalar(std::string("net.wire_bytes.") + LinkClassName(cls),
                  [net, cls] { return static_cast<int64_t>(net->wire_bytes(cls)); });
  }

  Metrics* metrics = metrics_.get();
  reg.AddScalar("ops.completed",
                [metrics] { return static_cast<int64_t>(metrics->completed_ops()); });

  // Open-loop workload plane: offered vs. served load, queueing and shedding
  // (summed over the per-DC muxes at snapshot time).
  if (!muxes_.empty()) {
    auto sum = [this](uint64_t (SessionMux::*get)() const) {
      int64_t total = 0;
      for (const auto& mux : muxes_) {
        total += static_cast<int64_t>(((*mux).*get)());
      }
      return total;
    };
    reg.AddScalar("workload.arrivals", [sum] { return sum(&SessionMux::arrivals); });
    reg.AddScalar("workload.ops_completed",
                  [sum] { return sum(&SessionMux::ops_completed); });
    reg.AddScalar("workload.queued", [sum] { return sum(&SessionMux::queued_total); });
    reg.AddScalar("workload.shed", [sum] { return sum(&SessionMux::shed); });
    reg.AddScalar("workload.migrations", [sum] { return sum(&SessionMux::migrations); });
    // Backlog and high-water depth are levels, not monotone counters: the
    // time-series reports them as-is at each window boundary.
    reg.AddGauge("workload.backlog", [sum] { return sum(&SessionMux::backlog); });
    reg.AddGauge("workload.max_queue_depth", [this] {
      int64_t depth = 0;
      for (const auto& mux : muxes_) {
        depth = std::max<int64_t>(depth, mux->max_queue_depth());
      }
      return depth;
    });
    // Per-DC mux detail: session slab size (a level fixed at construction),
    // arrivals/shed counters, and the queue-wait histogram.
    for (size_t i = 0; i < muxes_.size(); ++i) {
      SessionMux* mux = muxes_[i].get();
      std::string prefix = "workload.dc" + std::to_string(i) + ".";
      reg.AddGauge(prefix + "sessions",
                   [mux] { return static_cast<int64_t>(mux->num_slots()); });
      reg.AddScalar(prefix + "arrivals",
                    [mux] { return static_cast<int64_t>(mux->arrivals()); });
      reg.AddScalar(prefix + "shed", [mux] { return static_cast<int64_t>(mux->shed()); });
      reg.AddHistogram(prefix + "queue_wait", mux->queue_wait());
    }
  }

  // Degraded-mode accounting per datacenter (Saturn only: the fallback
  // machinery exists only there, and names absent from the registry read as
  // zero through MetricsSnapshot::Scalar).
  const bool saturn_like = config_.protocol == Protocol::kSaturn ||
                           config_.protocol == Protocol::kSaturnTimestamp;
  for (DcId id = 0; id < num_dcs(); ++id) {
    std::string prefix = "dc" + std::to_string(id) + ".";
    reg.AddScalar(prefix + "fallback_entries",
                  [metrics, id] { return static_cast<int64_t>(metrics->FallbackEntries(id)); });
    reg.AddScalar(prefix + "fallback_exits",
                  [metrics, id] { return static_cast<int64_t>(metrics->FallbackExits(id)); });
    reg.AddScalar(prefix + "ts_mode_time_us", [this, metrics, id] {
      return static_cast<int64_t>(metrics->TimestampModeTime(id, sim_.Now()));
    });
    if (saturn_like) {
      SaturnDc* sdc = saturn_dc(id);
      reg.AddGauge(prefix + "in_timestamp_mode",
                   [sdc] { return sdc->in_timestamp_mode() ? int64_t{1} : int64_t{0}; });
      reg.AddScalar(prefix + "link_retransmissions",
                    [sdc] { return static_cast<int64_t>(sdc->link_retransmissions()); });
      reg.AddScalar(prefix + "link_retransmit_storms", [sdc] {
        return static_cast<int64_t>(sdc->link_retransmit_storms());
      });
      reg.AddScalar(prefix + "link_retransmit_coalesced", [sdc] {
        return static_cast<int64_t>(sdc->link_retransmit_coalesced());
      });
    }
  }

  // Serializer tree totals, summed over every deployed epoch. AllSerializers
  // is resolved at snapshot time, so trees deployed after the registry was
  // built (backup epochs) are still counted.
  if (metadata_ != nullptr) {
    MetadataService* metadata = metadata_.get();
    reg.AddScalar("tree.labels_routed", [metadata] {
      int64_t total = 0;
      for (Serializer* s : metadata->AllSerializers()) {
        total += static_cast<int64_t>(s->routed());
      }
      return total;
    });
    reg.AddScalar("tree.link_retransmissions", [metadata] {
      int64_t total = 0;
      for (Serializer* s : metadata->AllSerializers()) {
        total += static_cast<int64_t>(s->link_retransmissions());
      }
      return total;
    });
    reg.AddScalar("tree.link_retransmit_storms", [metadata] {
      int64_t total = 0;
      for (Serializer* s : metadata->AllSerializers()) {
        total += static_cast<int64_t>(s->link_retransmit_storms());
      }
      return total;
    });
    reg.AddScalar("tree.link_retransmit_coalesced", [metadata] {
      int64_t total = 0;
      for (Serializer* s : metadata->AllSerializers()) {
        total += static_cast<int64_t>(s->link_retransmit_coalesced());
      }
      return total;
    });
  }

  if (controller_ != nullptr) {
    ReconfigController* ctl = controller_.get();
    reg.AddScalar("reconfig.completed",
                  [ctl] { return static_cast<int64_t>(ctl->reconfigs()); });
    reg.AddScalar("reconfig.joins", [ctl] { return static_cast<int64_t>(ctl->joins()); });
    reg.AddScalar("reconfig.leaves", [ctl] { return static_cast<int64_t>(ctl->leaves()); });
    reg.AddScalar("reconfig.evals", [ctl] { return static_cast<int64_t>(ctl->evals()); });
    reg.AddScalar("reconfig.rejected_solves",
                  [ctl] { return static_cast<int64_t>(ctl->rejected_solves()); });
    reg.AddHistogram("reconfig_latency", &metrics_->ReconfigLatency());
    reg.AddHistogram("reconfig_visibility", &metrics_->ReconfigVisibility());
  }

  if (trace_ != nullptr) {
    obs::TraceRecorder* trace = trace_.get();
    reg.AddScalar("trace.events_recorded",
                  [trace] { return static_cast<int64_t>(trace->events_recorded()); });
    reg.AddScalar("trace.events_dropped",
                  [trace] { return static_cast<int64_t>(trace->events_dropped()); });
  }

  // Aggregate attribution view. Per-pair detail stays in the profiler (its
  // snapshot feeds the --attribution report); publishing only the aggregates
  // keeps registry snapshots — and every time-series window — small.
  if (attribution_ != nullptr) {
    obs::AttributionProfiler* attr = attribution_.get();
    reg.AddScalar("attribution.samples",
                  [attr] { return static_cast<int64_t>(attr->samples()); });
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      obs::Phase phase = static_cast<obs::Phase>(p);
      reg.AddHistogram(std::string("attribution.phase.") + obs::PhaseKey(phase),
                       attr->phase_histogram(phase));
    }
    reg.AddHistogram("attribution.total", attr->total_histogram());
    reg.AddHistogram("attribution.tree_hop", attr->tree_hop_histogram());
  }

  reg.AddHistogram("visibility.all", &metrics_->AllVisibility());
  reg.AddHistogram("op_latency", &metrics_->OpLatency());
  reg.AddHistogram("attach_latency", &metrics_->AttachLatency());
  reg.AddHistogram("failover_latency", &metrics_->FailoverLatency());
}

SaturnDc* Cluster::saturn_dc(DcId id) {
  SAT_CHECK(config_.protocol == Protocol::kSaturn ||
            config_.protocol == Protocol::kSaturnTimestamp);
  return static_cast<SaturnDc*>(datacenters_[id].get());
}

ExperimentResult Cluster::Run(SimTime warmup, SimTime measure, SimTime drain) {
  window_start_ = sim_.Now() + warmup;
  window_end_ = window_start_ + measure;
  metrics_->SetWindow(window_start_, window_end_);

  if (config_.timeseries_window > 0) {
    SAT_CHECK_MSG(scheduler_ == nullptr,
                  "time-series telemetry requires the deterministic backend");
    // Built here, not in the constructor: the recorder snapshots the fully
    // registered registry once at t=0 as its delta baseline.
    timeseries_ = std::make_unique<obs::TimeSeriesRecorder>(&metrics_registry(),
                                                            config_.timeseries_window);
    sim_.set_timeseries(timeseries_.get());
  }

  for (auto& dc : datacenters_) {
    dc->Start();
  }
  if (monitor_ != nullptr) {
    monitor_->Start();
  }
  for (size_t i = 0; i < clients_.size(); ++i) {
    // Clients homed at a deferred datacenter stay parked until the
    // controller's join completes (the client gate starts them).
    if (initial_active_.Contains(client_homes_[i])) {
      clients_[i]->Start();
    }
  }
  for (size_t i = 0; i < muxes_.size(); ++i) {
    if (initial_active_.Contains(static_cast<DcId>(i))) {
      if (scheduler_ != nullptr) {
        mux_sims_[i]->At(sim_.Now(), [m = muxes_[i].get()]() { m->Start(); });
      } else {
        muxes_[i]->Start();
      }
    }
  }
  if (controller_ != nullptr) {
    controller_->Start();
  }
  if (injector_ != nullptr) {
    injector_->Start();
  }
  if (stop_clients_at_ != kSimTimeNever) {
    if (scheduler_ != nullptr) {
      // Stop each client from its own lane: Stop() writes client state, so it
      // must run where the client runs.
      for (size_t i = 0; i < clients_.size(); ++i) {
        client_sims_[i]->At(stop_clients_at_, [c = clients_[i].get()]() { c->Stop(); });
      }
      for (size_t i = 0; i < muxes_.size(); ++i) {
        mux_sims_[i]->At(stop_clients_at_, [m = muxes_[i].get()]() { m->Stop(); });
      }
    } else {
      sim_.At(stop_clients_at_, [this]() {
        for (auto& client : clients_) {
          client->Stop();
        }
        for (auto& mux : muxes_) {
          mux->Stop();
        }
      });
    }
  }
  if (scheduler_ != nullptr) {
    scheduler_->Run(window_end_ + drain);
    metrics_->MergeShards();
  } else {
    sim_.RunUntil(window_end_ + drain);
  }
  if (timeseries_ != nullptr) {
    timeseries_->Finalize(sim_.Now());
  }
  return Result();
}

ExperimentResult Cluster::Result() const {
  ExperimentResult result;
  result.throughput_ops = metrics_->ThroughputOpsPerSec();
  const LatencyHistogram& vis = metrics_->AllVisibility();
  result.mean_visibility_ms = vis.MeanMs();
  result.p90_visibility_ms = vis.PercentileMs(0.90);
  result.p99_visibility_ms = vis.PercentileMs(0.99);
  result.remote_updates = vis.count();
  result.mean_op_latency_ms = metrics_->OpLatency().MeanMs();
  result.mean_attach_ms = metrics_->AttachLatency().MeanMs();
  result.net_messages = net_->messages_sent();
  result.net_bytes = net_->bytes_sent();
  result.metadata_wire_bytes = net_->metadata_wire_bytes();
  return result;
}

std::vector<DcId> UniformClientHomes(uint32_t num_dcs, uint32_t per_dc) {
  std::vector<DcId> homes;
  homes.reserve(static_cast<size_t>(num_dcs) * per_dc);
  for (DcId dc = 0; dc < num_dcs; ++dc) {
    for (uint32_t i = 0; i < per_dc; ++i) {
      homes.push_back(dc);
    }
  }
  return homes;
}

GeneratorFactory SyntheticGenerators(const SyntheticOpGenerator::Config& workload) {
  return [workload](const ReplicaMap& replicas, DcId, uint32_t) {
    return std::make_unique<SyntheticOpGenerator>(&replicas, workload);
  };
}

}  // namespace saturn
