// Fleet-scale experiment: nodes x VMs/node multi-tenant rack runs.
//
// Where the hot/cold cluster experiment stresses the *policies* (one
// pathological node, N-1 donors), the fleet experiment stresses the
// *control plane*: many tenants with zipf-ranked intensity spread over
// many nodes (tenant rank = node * vms_per_node + vm, so node 0 is hottest
// and the rack carries a demand gradient), staggered arrivals, and a
// YCSB-style phase mix per tenant (workloads::make_fleet_tenant). Every
// knob of DESIGN §12 is a config axis here — delta encoding on both the
// per-VM and the rack hops and the O(changed-VMs) MM decide path — so the
// fig_fleet_scaling bench can sweep them against the classic full-vector
// baseline and read the control-plane bytes and decide-time probes off the
// result.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/cluster.hpp"
#include "mm/policy_factory.hpp"
#include "obs/observer.hpp"
#include "workloads/fleet.hpp"

namespace smartmem::cluster {

struct FleetExperimentConfig {
  std::size_t nodes = 4;
  std::size_t vms_per_node = 4;
  /// Zipf exponent of the tenant intensity ranking (0 = uniform fleet).
  double skew = 0.8;
  workloads::FleetMix mix = workloads::FleetMix::kBalanced;

  /// Node-level policy ("global-static", "global-smart[:P]").
  std::string global_policy = "global-smart";
  /// Per-VM policy every node runs internally.
  mm::PolicySpec node_policy = mm::PolicySpec::smart(25.0);
  bool lending = true;

  /// Lending-heavy geometry: node 0's tenants oversubscribe hard
  /// (working set = 1.6x usable RAM) while every other node's tenants fit
  /// in RAM (0.55x). The global policy then grants node 0 a quota above its
  /// physical tmem while the cold nodes' shrunken quotas free their frames
  /// for lending — so the run actually exercises the borrow path. The
  /// default geometry (every node spilling) never lends: no node's quota
  /// can exceed its physical capacity.
  bool lending_heavy = false;

  /// Asynchronous lending data plane (ClusterConfig::lending_async):
  /// borrows become fabric round trips with faults/timeouts/retries and an
  /// optional borrower-side cache (cache_pages).
  AsyncLendingConfig lending_async;

  /// Multiplies the lending-hop wire latencies (async plane only; 1.0 =
  /// the RDMA-class 40us/direction default).
  double lend_rtt_x = 1.0;

  /// Fault surface installed on both lending hops (async plane only).
  comm::FaultSpec lend_fault;

  /// Delta-encode the control plane (per-VM hops and rack hops) with this
  /// resync cadence. Off = classic full-vector messages.
  bool delta = false;
  std::uint64_t resync_every = 16;

  /// Truncates the run at this simulated time when positive (tests: force
  /// a teardown while lending exchanges are still mid-flight). 0 = run to
  /// the scenario deadline.
  SimTime deadline_cap = 0;

  double scale = 0.25;
  std::uint64_t seed = 42;
  /// Parallel-engine worker threads (never changes simulation output).
  std::size_t sim_threads = 1;
  double global_interval_x = 2.0;

  /// Engine self-profiling (ClusterConfig::profile): per-shard busy/
  /// barrier-wait/injection accounting and the bottleneck attribution in
  /// FleetRunResult::profile. Wall-clock observation only — outcomes are
  /// byte-identical with it on or off.
  bool profile = false;
  obs::ObsConfig obs;
};

/// Aggregate outcome of one fleet run. Simulation-visible quantities only,
/// except the wall-clock decide probe (mm_decide_ns / mm_decides), which
/// callers must keep out of determinism-checked output.
struct FleetRunResult {
  std::uint64_t aggregate_failed_puts = 0;
  std::uint64_t puts_total = 0;
  std::uint64_t puts_succ = 0;
  double makespan_s = 0.0;

  // Control-plane accounting.
  std::uint64_t node_control_bytes = 0;  // per-VM hops (TKM up+down), summed
  std::uint64_t rack_control_bytes = 0;  // rack hops (roll-ups + quotas)
  std::uint64_t mm_samples = 0;          // samples delivered to the MMs
  std::uint64_t mm_targets_sent = 0;
  /// Always 0: the MM has one decide path (DESIGN §12). Kept as a CSV
  /// column and a gated outcome field so earlier outputs stay comparable.
  std::uint64_t mm_incremental_decides = 0;
  std::uint64_t mm_decide_ns = 0;  // wall clock — never in deterministic CSVs
  std::uint64_t mm_decides = 0;
  std::uint64_t stats_full_sends = 0;    // uplink resyncs (delta mode)
  std::uint64_t targets_full_sends = 0;  // downlink resyncs (delta mode)

  std::uint64_t gm_decisions = 0;
  std::uint64_t gm_clean_decides = 0;
  std::uint64_t quotas_sent = 0;
  std::uint64_t quota_sends_skipped = 0;
  std::uint64_t rollups_suppressed = 0;

  std::uint64_t borrow_placements = 0;
  std::uint64_t lending_failed_placements = 0;
  std::uint64_t borrow_hits = 0;
  std::uint64_t borrow_misses = 0;
  std::uint64_t lending_recalls = 0;
  std::uint64_t lending_failed_replacements = 0;

  // Async lending fabric (all zero when the synchronous plane ran).
  std::uint64_t fabric_requests = 0;
  std::uint64_t fabric_retries = 0;
  std::uint64_t fabric_timeouts = 0;
  std::uint64_t fabric_give_ups = 0;
  std::uint64_t fabric_congestion_drops = 0;
  std::uint64_t fabric_get_fallbacks = 0;
  /// In-flight borrow timers cancelled by teardown (Cluster::run's
  /// broker->stop(), the Tkm::stop() mirror).
  std::uint64_t fabric_cancelled_timers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidations = 0;
  /// Mean modeled RTT of successful borrowed puts / of borrowed gets
  /// (cache hits count as 0 us — this is the metric the cache improves).
  double put_rtt_mean_us = 0.0;
  double get_rtt_mean_us = 0.0;
  std::uint64_t get_rtt_count = 0;

  // Engine self-profile (cfg.profile, sharded multi-node runs only; empty
  // otherwise). Wall-clock derived like mm_decide_ns — callers must keep
  // every field here out of determinism-checked output.
  struct ShardProfileRow {
    std::string label;  // "n0".."nK", "rack"
    double busy_ms = 0.0;
    double barrier_wait_ms = 0.0;
    double occupancy_mean = 0.0;  // busy / sum of window critical paths
    double occupancy_p95 = 0.0;   // per-window distribution tail
    std::uint64_t events = 0;
    std::uint64_t injections_out = 0;
    std::uint64_t injections_in = 0;
    std::uint64_t critical_windows = 0;
  };
  std::vector<ShardProfileRow> profile;
  std::string bottleneck;  // label of the critical-path attribution winner
  std::uint64_t engine_windows = 0;
  double engine_idle_skip_s = 0.0;
  double engine_window_wall_ms = 0.0;  // sum of per-window critical paths
  double engine_drain_ms = 0.0;        // serial coordinator: outbox drains
  double engine_hook_ms = 0.0;         // serial coordinator: barrier hook
};

/// Builds, runs and tears down one fleet. Deterministic for a given config
/// (modulo the wall-clock fields called out on FleetRunResult) across
/// sim_threads values and delta on/off.
FleetRunResult run_fleet_scenario(const FleetExperimentConfig& cfg);

}  // namespace smartmem::cluster
