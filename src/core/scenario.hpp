// The paper's benchmarking scenarios (Table II), as declarative specs.
//
// Every scenario names its VMs, their RAM, their workload and start rules,
// plus the node's tmem size. A `scale` parameter shrinks all memory sizes
// proportionally (default 0.25) so a figure regenerates in seconds; shapes
// are scale-invariant because every policy decision is relative (targets vs
// pool size, failed puts vs interval). scale = 1.0 reproduces the paper's
// exact geometry (1 GiB VMs, 1 GiB / 384 MiB tmem).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/virtual_node.hpp"
#include "mm/policy_factory.hpp"
#include "workloads/workload.hpp"

namespace smartmem::core {

struct ScenarioVm {
  std::string name;
  PageCount ram_pages = 0;
  std::function<workloads::WorkloadPtr()> make_workload;
  SimTime start_delay = 0;
  bool manual_start = false;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  PageCount tmem_pages = 0;
  std::vector<ScenarioVm> vms;

  /// Installed after the node is built; wires marker-driven coordination
  /// (usemem's conditional start/stop). May be empty.
  std::function<void(VirtualNode&)> install_triggers;

  /// Benchmark-launch jitter: each automatically-started VM gets a seeded
  /// uniform extra delay in [0, start_jitter_max]. Real "simultaneous"
  /// launches are seconds apart, and that skew is what lets the greedy
  /// policy's first-comers over-grab tmem (Figures 4a/6a).
  SimTime start_jitter_max = 2 * kSecond;

  /// Safety net against runaway configurations.
  SimTime deadline = 4 * 3600 * kSecond;

  /// The linear memory scale this spec was built with. build_node() scales
  /// all *time constants* of the node (sampling interval, TKM latencies,
  /// slow-reclaim rate) by the same factor, so the number of policy
  /// decisions per benchmark run is scale-invariant. At scale 1.0 the node
  /// uses exactly the paper's constants (1 s sampling interval).
  double scale = 1.0;
};

/// Scenario 1: three 1 GiB VMs run in-memory-analytics simultaneously,
/// sleep 5 s, run it again. tmem = 1 GiB.
ScenarioSpec scenario1(double scale = 0.25);

/// Scenario 2: three 512 MiB VMs run graph-analytics once; VM3 starts 30 s
/// after VM1/VM2. tmem = 1 GiB.
ScenarioSpec scenario2(double scale = 0.25);

/// Usemem Scenario: three 512 MiB VMs run usemem; VM3 starts when VM1 and
/// VM2 attempt to allocate 640 MB; all stop when VM3 attempts 768 MB.
/// tmem = 384 MiB.
ScenarioSpec usemem_scenario(double scale = 0.25);

/// Scenario 3: VM1/VM2 (512 MiB) run graph-analytics, VM3 (1 GiB) runs
/// in-memory-analytics starting 30 s later. tmem = 1 GiB.
ScenarioSpec scenario3(double scale = 0.25);

/// All four, in paper order.
std::vector<ScenarioSpec> all_scenarios(double scale = 0.25);

/// Default NodeConfig with every time constant scaled by `scale` (the same
/// scaling build_node applies when no overrides are given). Ablation benches
/// start from this and tweak one knob.
NodeConfig scaled_node_defaults(double scale);

/// The NodeConfig exactly as build_node derives it (scaled defaults or
/// overrides + scenario capacity + policy + per-repetition comm-seed
/// mixing), without constructing the node. Cluster wiring derives each
/// member node's config through this so node 0 of a cluster is
/// byte-identical to the single-node path.
NodeConfig node_config_for(const ScenarioSpec& scenario,
                           const mm::PolicySpec& policy, std::uint64_t seed,
                           const NodeConfig* overrides = nullptr);

/// Populates an already-constructed node with the scenario's VMs — launch
/// jitter, per-VM seed streams and marker triggers — exactly as build_node
/// does. Exposed so cluster wiring can construct its nodes itself and
/// still reproduce identical VM streams for the same seed.
void populate_node(VirtualNode& node, const ScenarioSpec& scenario,
                   std::uint64_t seed);

/// Builds a VirtualNode for `scenario` under `policy`. Seed feeds the VMs'
/// RNG streams; repetition r of an experiment passes base_seed + r.
std::unique_ptr<VirtualNode> build_node(const ScenarioSpec& scenario,
                                        const mm::PolicySpec& policy,
                                        std::uint64_t seed,
                                        const NodeConfig* overrides = nullptr);

}  // namespace smartmem::core
