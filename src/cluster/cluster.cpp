#include "cluster/cluster.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"

namespace smartmem::cluster {

namespace {

SimTime cluster_sim_clock(const void* ctx) {
  return static_cast<const sim::Simulator*>(ctx)->now();
}

/// Stamps this thread's log lines with the driving simulator's time for the
/// guard's lifetime (the cluster-level twin of VirtualNode's guard). The
/// clock is thread-local, so engine workers simply log without timestamps.
class LogClockGuard {
 public:
  explicit LogClockGuard(const sim::Simulator& sim) {
    log::set_sim_clock(&cluster_sim_clock, &sim);
  }
  ~LogClockGuard() { log::set_sim_clock(nullptr, nullptr); }
  LogClockGuard(const LogClockGuard&) = delete;
  LogClockGuard& operator=(const LogClockGuard&) = delete;
};

}  // namespace

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  if (config_.obs.any()) {
    observer_ = std::make_unique<obs::Observer>(config_.obs);
  }
}

Cluster::~Cluster() = default;

std::size_t Cluster::add_node(core::NodeConfig config) {
  if (started_) {
    throw std::logic_error("Cluster: add_node after start");
  }
  // The node is a shard; for one node this is the exact single-node stack.
  nodes_.push_back(std::make_unique<core::VirtualNode>(std::move(config)));
  return nodes_.size() - 1;
}

void Cluster::wire_rack() {
  const std::size_t n = nodes_.size();

  sim::ParallelEngine::Config ecfg;
  ecfg.lookahead = config_.topology.min_internode_latency();
  ecfg.threads = config_.sim_threads;
  engine_ = std::make_unique<sim::ParallelEngine>(ecfg);
  for (std::size_t i = 0; i < n; ++i) {
    engine_->add_shard(&nodes_[i]->simulator());
  }
  rack_shard_ = engine_->add_shard(&sim_);
  engine_->set_barrier_hook([this](SimTime end) { on_barrier(end); });
  if (config_.profile) {
    // Label shards up front so reports and metrics name them; sizing to
    // the final count here keeps the Registry's pointers into the
    // per-shard storage stable (profiler state only ever grows).
    profiler_ = std::make_unique<sim::EngineProfiler>();
    profiler_->resize(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      profiler_->set_shard_label(i, "n" + std::to_string(i));
    }
    profiler_->set_shard_label(rack_shard_, "rack");
    engine_->set_profiler(profiler_.get());
  }

  if (config_.lending) {
    std::vector<hyper::Hypervisor*> hyps;
    hyps.reserve(n);
    for (auto& node : nodes_) hyps.push_back(&node->hypervisor());
    broker_ = std::make_unique<LendingBroker>(std::move(hyps));
    broker_->enable_async(config_.lending_async, config_.topology);
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i]->hypervisor().set_remote_tmem(
          broker_->port(static_cast<NodeId>(i)));
      // Each borrower partition's in-flight timers live on that node's own
      // event stream.
      broker_->attach_sim(static_cast<NodeId>(i), &nodes_[i]->simulator());
    }
  }

  GlobalManagerConfig gcfg;
  gcfg.interval = config_.global_interval > 0
                      ? config_.global_interval
                      : 2 * nodes_[0]->config().sample_interval;
  gcfg.adaptive = config_.global_adaptive;
  gcfg.delta = config_.delta;
  if (gcfg.adaptive.enabled) {
    // Untouched bounds (the 1 s-geometry defaults) are re-derived from the
    // effective global interval so scaled runs keep a sensible band.
    const mm::IntervalControllerConfig defaults;
    if (gcfg.adaptive.min_interval == defaults.min_interval &&
        gcfg.adaptive.max_interval == defaults.max_interval) {
      gcfg.adaptive.min_interval = gcfg.interval / 2;
      gcfg.adaptive.max_interval = gcfg.interval * 4;
    }
  }
  gm_ = std::make_unique<GlobalManager>(
      sim_, parse_global_policy(config_.global_policy), gcfg);

  uplinks_.reserve(n);
  downlinks_.reserve(n);
  last_rollup_.resize(n);
  rollup_rounds_.assign(n, 0);
  rollups_suppressed_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // Uplink: source side (send, latency draw, stats) lives with the node;
    // the receiver (GlobalManager) is reached through the engine. Downlink:
    // the mirror image, sourced from the rack shard.
    uplinks_.push_back(std::make_unique<comm::Channel<NodeStats>>(
        nodes_[i]->simulator(), config_.topology.uplink_for(i)));
    uplinks_.back()->set_sizer(
        [](const NodeStats& s) { return wire_size(s); });
    uplinks_.back()->open(
        [this](const NodeStats& stats) { gm_->on_node_stats(stats); });
    downlinks_.push_back(std::make_unique<comm::Channel<NodeQuotaMsg>>(
        sim_, config_.topology.downlink_for(i)));
    downlinks_.back()->set_sizer(
        [](const NodeQuotaMsg& m) { return wire_size(m); });
    downlinks_.back()->open(
        [this, i](const NodeQuotaMsg& msg) { on_quota(i, msg); });
    uplinks_.back()->bind_cross_shard(engine_.get(), i, rack_shard_);
    downlinks_.back()->bind_cross_shard(engine_.get(), rack_shard_, i);
    nodes_[i]->set_stats_tap([this, i](const hyper::MemStats& stats) {
      on_node_sample(i, stats);
    });
  }
  gm_->set_sender([this](NodeId node, const NodeQuotaMsg& msg) {
    downlinks_[node]->send(msg);
  });

  if (observer_) {
    obs::TraceRecorder* trace = observer_->trace();
    obs::Registry* registry = observer_->registry();
    gm_->attach_obs(trace, observer_->audit());
    if (trace != nullptr) {
      // Each node shard records into a private ring; the rings merge into
      // the rack recorder at teardown. The record hot path therefore never
      // crosses shards.
      obs::TraceConfig tcfg;
      tcfg.categories = config_.obs.trace_categories;
      tcfg.capacity = config_.obs.trace_capacity;
      tcfg.sample_every = config_.obs.trace_sample_every;
      node_traces_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        node_traces_.push_back(std::make_unique<obs::TraceRecorder>(tcfg));
        const std::uint16_t track = node_traces_[i]->register_track(
            "cluster", "fabric-n" + std::to_string(i));
        uplinks_[i]->set_trace(node_traces_[i].get(), track);
        const std::uint16_t down_track = trace->register_track(
            "cluster", "fabric-n" + std::to_string(i));
        downlinks_[i]->set_trace(trace, down_track);
        if (broker_) {
          sim::Simulator* node_sim = &nodes_[i]->simulator();
          broker_->attach_partition_obs(
              static_cast<NodeId>(i), node_traces_[i].get(),
              [node_sim] { return node_sim->now(); });
        }
      }
    }
    if (registry != nullptr) {
      gm_->register_metrics(*registry, n);
      registry->add_gauge("rack.rollups_suppressed", [this] {
        return static_cast<double>(rollups_suppressed());
      });
      if (profiler_) profiler_->register_metrics(*registry);
      if (broker_) broker_->register_metrics(*registry);
      if (broker_ && broker_->fabric() != nullptr) {
        broker_->fabric()->register_metrics(*registry);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::string prefix = "n" + std::to_string(i);
        comm::register_channel_metrics(*registry, prefix + ".gm_up.",
                                       &uplinks_[i]->stats());
        comm::register_channel_metrics(*registry, prefix + ".gm_down.",
                                       &downlinks_[i]->stats());
        hyper::Hypervisor& hyp = nodes_[i]->hypervisor();
        registry->add_gauge(prefix + ".quota", [&hyp] {
          const PageCount q = hyp.node_quota();
          return q == kUnlimitedTarget ? -1.0 : static_cast<double>(q);
        });
        registry->add_gauge(prefix + ".own_used", [&hyp] {
          return static_cast<double>(hyp.own_used_total());
        });
        registry->add_gauge(prefix + ".lent", [&hyp] {
          return static_cast<double>(hyp.lent_pages());
        });
        // Per-tier occupancy and hit attribution for the fleet health
        // report (obs_inspect.py --fleet-report). DRAM always exists; NVM
        // and compressed gauges appear only on nodes that have those
        // tiers, so the default export's column set is unchanged.
        const tmem::TmemStore& st = hyp.store();
        registry->add_gauge(prefix + ".tier.dram.used_pages", [&st] {
          return static_cast<double>(st.used_pages());
        });
        registry->add_gauge(prefix + ".tier.dram.total_pages", [&st] {
          return static_cast<double>(st.total_pages());
        });
        registry->add_counter(prefix + ".tier.dram.gets_hit",
                              &st.stats().gets_hit_dram);
        if (st.nvm_total_pages() > 0) {
          registry->add_gauge(prefix + ".tier.nvm.used_pages", [&st] {
            return static_cast<double>(st.nvm_used_pages());
          });
          registry->add_gauge(prefix + ".tier.nvm.total_pages", [&st] {
            return static_cast<double>(st.nvm_total_pages());
          });
          registry->add_counter(prefix + ".tier.nvm.gets_hit",
                                &st.stats().gets_hit_nvm);
        }
        if (st.compressed_enabled()) {
          const tier::CompressedPool& cp = st.compressed_pool();
          registry->add_gauge(prefix + ".tier.compressed.bytes_used", [&cp] {
            return static_cast<double>(cp.bytes_used());
          });
          registry->add_gauge(prefix + ".tier.compressed.capacity_bytes",
                              [&cp] {
                                return static_cast<double>(
                                    cp.capacity_bytes());
                              });
          registry->add_gauge(prefix + ".tier.compressed.pages", [&cp] {
            return static_cast<double>(cp.pages());
          });
          registry->add_counter(prefix + ".tier.compressed.gets_hit",
                                &st.stats().gets_hit_compressed);
        }
        // Per-node control-plane health rollup (read at barrier snapshots,
        // when every shard is quiescent): resync split, wire bytes and
        // robustness drops on the node's own VM hops, so one rack metrics
        // export carries the whole fleet's endpoint health.
        core::VirtualNode& vn = *nodes_[i];
        registry->add_gauge(prefix + ".ctl.up_payload_bytes", [&vn] {
          const guest::Tkm* tkm = vn.tkm();
          return tkm ? static_cast<double>(tkm->uplink().stats().payload_bytes)
                     : 0.0;
        });
        registry->add_gauge(prefix + ".ctl.down_payload_bytes", [&vn] {
          const guest::Tkm* tkm = vn.tkm();
          return tkm
                     ? static_cast<double>(tkm->downlink().stats().payload_bytes)
                     : 0.0;
        });
        registry->add_gauge(prefix + ".ctl.stats_full_sends", [&vn] {
          const guest::Tkm* tkm = vn.tkm();
          return tkm ? static_cast<double>(tkm->stats_full_sends()) : 0.0;
        });
        registry->add_gauge(prefix + ".ctl.stats_delta_sends", [&vn] {
          const guest::Tkm* tkm = vn.tkm();
          return tkm ? static_cast<double>(tkm->stats_delta_sends()) : 0.0;
        });
        registry->add_gauge(prefix + ".ctl.targets_full_sends", [&vn] {
          const mm::MemoryManager* mgr = vn.manager();
          return mgr ? static_cast<double>(mgr->targets_full_sends()) : 0.0;
        });
        registry->add_gauge(prefix + ".ctl.stats_chain_breaks", [&vn] {
          const mm::MemoryManager* mgr = vn.manager();
          return mgr ? static_cast<double>(mgr->stats_chain_breaks()) : 0.0;
        });
        registry->add_gauge(prefix + ".ctl.stale_samples_dropped", [&vn] {
          const mm::MemoryManager* mgr = vn.manager();
          return mgr ? static_cast<double>(mgr->stale_samples_dropped()) : 0.0;
        });
        registry->add_gauge(prefix + ".ctl.stats_age_intervals", [&vn] {
          const mm::MemoryManager* mgr = vn.manager();
          return mgr ? mgr->last_stats_age_intervals()
                     : std::numeric_limits<double>::quiet_NaN();
        });
        registry->add_gauge(prefix + ".ctl.target_chain_breaks", [&hyp] {
          return static_cast<double>(hyp.target_chain_breaks());
        });
        registry->add_gauge(prefix + ".ctl.stale_targets_dropped", [&hyp] {
          return static_cast<double>(hyp.stale_targets_dropped());
        });
      }
      registry->snapshot(sim_.now());
      // The gauges above reach into every shard, so snapshots may only run
      // at window barriers (on_barrier), never from a mid-window periodic
      // event.
      snapshot_interval_ = gcfg.interval;
      next_snapshot_ = gcfg.interval;
    }
  }

  gm_->start();
}

void Cluster::on_node_sample(std::size_t i, const hyper::MemStats& stats) {
  const hyper::Hypervisor& hyp = nodes_[i]->hypervisor();
  NodeStats ns;
  ns.node = static_cast<NodeId>(i);
  ns.seq = stats.seq;
  ns.when = stats.when;
  ns.phys_tmem = hyp.total_tmem();
  ns.quota = hyp.node_quota();
  ns.used = hyp.own_used_total();
  ns.lent = hyp.lent_pages();
  ns.borrowed = broker_ ? broker_->borrowed_total(static_cast<NodeId>(i)) : 0;
  ns.vm_count = stats.vm_count;
  for (const hyper::VmMemStats& vm : stats.vm) {
    ns.puts_total += vm.puts_total;
    ns.puts_succ += vm.puts_succ;
    ns.cumul_failed_puts += vm.cumul_puts_failed;
  }
  if (config_.delta.enabled) {
    // Suppress-unchanged on the rack uplink (DESIGN §12): a roll-up whose
    // payload matches the last one sent carries no information for the
    // pure global policies. The periodic full resend bounds how long a
    // lost roll-up can keep the GlobalManager's view stale; per-node seq
    // gaps are fine under its strictly-increasing check.
    const bool resend_due =
        config_.delta.resync_every <= 1 ||
        (rollup_rounds_[i] % config_.delta.resync_every) == 0;
    ++rollup_rounds_[i];
    if (!resend_due && last_rollup_[i] &&
        same_payload(*last_rollup_[i], ns)) {
      ++rollups_suppressed_[i];
      return;
    }
    last_rollup_[i] = ns;
  }
  uplinks_[i]->send(ns);
}

std::uint64_t Cluster::rollups_suppressed() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : rollups_suppressed_) total += c;
  return total;
}

std::uint64_t Cluster::rack_control_bytes() const {
  std::uint64_t total = 0;
  for (const auto& ch : uplinks_) total += ch->stats().payload_bytes;
  for (const auto& ch : downlinks_) total += ch->stats().payload_bytes;
  return total;
}

void Cluster::on_quota(std::size_t i, const NodeQuotaMsg& msg) {
  hyper::Hypervisor& hyp = nodes_[i]->hypervisor();
  // Runs on node i's shard. Recalls reach into other shards, so the
  // donor-side consequence of a grown entitlement (frames back from the
  // lent pool) is applied by sync_window() at the next barrier.
  hyp.apply_node_quota(msg.seq, msg.quota);
}

void Cluster::on_barrier(SimTime end) {
  if (broker_) broker_->sync_window();
  if (snapshot_interval_ > 0) {
    obs::Registry* registry = observer_->registry();
    while (next_snapshot_ <= end) {
      registry->snapshot(next_snapshot_);
      next_snapshot_ += snapshot_interval_;
    }
  }
}

void Cluster::start() {
  if (started_) {
    throw std::logic_error("Cluster: started twice");
  }
  if (nodes_.empty()) {
    throw std::logic_error("Cluster: no nodes added");
  }
  if (nodes_.size() >= 2 && config_.topology.min_internode_latency() <= 0) {
    throw std::invalid_argument(
        "Cluster: a multi-node topology needs a positive minimum inter-node "
        "latency (a lognormal or 0 ns hop leaves the engine no safe window)");
  }
  started_ = true;
  // The rack machinery exists only from 2 nodes up: a 1-node cluster must
  // replay the single-node event stream byte-for-byte, and a rack of one
  // has nothing to balance anyway (global-smart would otherwise shrink the
  // lone node's quota below its physical capacity).
  if (nodes_.size() >= 2) wire_rack();
  for (auto& node : nodes_) node->start();
}

bool Cluster::all_done() const {
  for (const auto& node : nodes_) {
    if (!node->all_done()) return false;
  }
  return true;
}

SimTime Cluster::run(SimTime deadline) {
  if (!started_) start();
  if (!engine_) {
    // A rack of one: the node's own loop, exactly the single-node path.
    const SimTime end = nodes_[0]->run(deadline);
    teardown(end);
    return end;
  }
  LogClockGuard log_clock(sim_);
  SimTime end = engine_->run([this] { return all_done(); }, deadline);
  if (!all_done()) {
    log::warn(log::Component::kCore,
              "cluster run() hit the deadline at %.1fs with unfinished VMs",
              to_seconds(end));
    for (auto& node : nodes_) node->stop_all();
    // Drain: stop requests land at the next batch boundaries; run the
    // windows out until every VM has wound down.
    end = engine_->run([this] { return all_done(); },
                       std::numeric_limits<SimTime>::max() / 4);
  }
  teardown(sim_.now());
  return end;
}

void Cluster::teardown(SimTime end) {
  if (finished_) return;
  finished_ = true;
  if (gm_) gm_->stop();
  // Outstanding borrow round trips die with the cluster: cancel their
  // in-flight completion timers exactly as Tkm::stop() cancels deliveries.
  if (broker_) broker_->stop();
  for (auto& ch : uplinks_) ch->close();
  for (auto& ch : downlinks_) ch->close();
  for (auto& node : nodes_) node->finish();
  if (observer_) {
    if (observer_->trace() != nullptr) {
      // Fold the node shards' private rings into the rack recorder so the
      // exported trace covers the whole cluster, as it did pre-sharding.
      for (auto& t : node_traces_) observer_->trace()->merge_from(*t);
      node_traces_.clear();
    }
    if (observer_->registry() != nullptr) {
      observer_->registry()->snapshot(end);
    }
    std::string err;
    if (!observer_->export_all(&err)) {
      log::error(log::Component::kObs, "cluster export failed: %s",
                 err.c_str());
    }
  }
}

}  // namespace smartmem::cluster
