#include "cluster/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/strfmt.hpp"
#include "common/units.hpp"
#include "comm/topology.hpp"
#include "workloads/graph_analytics.hpp"

namespace smartmem::cluster {

namespace {

PageCount scaled_mib(double mib, double scale) {
  return pages_from_mib(static_cast<std::uint64_t>(std::llround(mib * scale)));
}

/// Application-usable RAM after the kernel's share (same convention as the
/// scenario library).
PageCount usable(PageCount ram_pages) { return ram_pages - ram_pages / 8; }

}  // namespace

core::ScenarioSpec cluster_cold_scenario(double scale) {
  core::ScenarioSpec spec;
  spec.name = "cluster-cold";
  spec.description =
      "3 VMs x 512MiB RAM, graph-analytics on a graph that fits in RAM; "
      "tmem = 384MiB (mostly idle — the node is a lending donor)";
  spec.tmem_pages = scaled_mib(384, scale);
  spec.start_jitter_max =
      static_cast<SimTime>(static_cast<double>(2 * kSecond) * scale);
  spec.scale = scale;
  for (int i = 1; i <= 3; ++i) {
    core::ScenarioVm vm;
    vm.name = strfmt("VM%d", i);
    vm.ram_pages = scaled_mib(512, scale);
    vm.make_workload = [ram = vm.ram_pages, scale]() -> workloads::WorkloadPtr {
      // Same workload family as the hot node's scenario2, but the in-memory
      // graph is 55% of usable RAM instead of 170%: the VM stays below its
      // RAM ceiling and produces only incidental tmem traffic.
      workloads::GraphAnalyticsConfig cfg;
      cfg.edge_file_pages = scaled_mib(64, scale);
      cfg.graph_pages =
          static_cast<PageCount>(static_cast<double>(usable(ram)) * 0.55);
      cfg.vertex_pages =
          static_cast<PageCount>(static_cast<double>(usable(ram)) * 0.10);
      cfg.iterations = 6;
      cfg.runs = 1;
      cfg.build_touch_compute = 1 * kMicrosecond;
      cfg.iter_touch_compute = 6 * kMicrosecond;
      cfg.zipf_s = 0.9;
      return std::make_unique<workloads::GraphAnalytics>(cfg);
    };
    spec.vms.push_back(std::move(vm));
  }
  return spec;
}

std::uint64_t node_seed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  return comm::derive_seed(seed, 0x6e6f6465ULL + static_cast<std::uint64_t>(i));
}

SimTime internode_hop(const ClusterExperimentConfig& cfg) {
  return static_cast<SimTime>(5.0 * static_cast<double>(kMillisecond) *
                              cfg.scale * cfg.internode_latency_x);
}

ClusterRunResult run_cluster_scenario(const ClusterExperimentConfig& cfg) {
  const core::NodeConfig base = core::scaled_node_defaults(cfg.scale);

  ClusterConfig ccfg;
  ccfg.topology.node_count = cfg.nodes;
  ccfg.topology.node_comm = base.comm;
  const SimTime hop = internode_hop(cfg);
  ccfg.topology.internode_up.latency = comm::LatencySpec::fixed_at(hop);
  ccfg.topology.internode_down.latency = comm::LatencySpec::fixed_at(hop);
  ccfg.global_policy = cfg.global_policy;
  ccfg.global_interval = static_cast<SimTime>(
      cfg.global_interval_x * static_cast<double>(base.sample_interval));
  ccfg.lending = cfg.lending;
  ccfg.sim_threads = cfg.sim_threads;
  ccfg.obs = cfg.obs;

  Cluster cluster(std::move(ccfg));
  // The hot node runs the sustained-pressure usemem scenario (demand keeps
  // ramping past physical tmem, so failed puts persist interval after
  // interval — the signal Algorithm 4 needs to keep a grown quota). The
  // bursty graph scenarios spill only at iteration boundaries, which a
  // once-per-global-interval manager reacts to after the fact. Every node
  // has the same 384 MiB physical tmem so equal-share arithmetic is exact.
  const core::ScenarioSpec hot = core::usemem_scenario(cfg.scale);
  const core::ScenarioSpec cold = cluster_cold_scenario(cfg.scale);
  SimTime deadline = hot.deadline;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    const core::ScenarioSpec& spec = i == 0 ? hot : cold;
    core::NodeConfig overrides = base;
    overrides.comm = cluster.config().topology.node_comm_for(i);
    // The latency knob is a data-plane property too: a borrowed page costs
    // the guest an inter-node round trip per access, so the Tier::kRemote
    // hypercall costs scale with the same multiplier as the fabric hop. At
    // x1 (RDMA-class, 90us) lending handily beats the virtual disk; by x10
    // it is disk-class and stops paying. Touches only kRemote-tier ops, so
    // a 1-node cluster (which never lends) is unaffected.
    overrides.costs.tmem_put_remote = static_cast<SimTime>(
        static_cast<double>(base.costs.tmem_put_remote) *
        cfg.internode_latency_x);
    overrides.costs.tmem_get_remote = static_cast<SimTime>(
        static_cast<double>(base.costs.tmem_get_remote) *
        cfg.internode_latency_x);
    const std::uint64_t ns = node_seed(cfg.seed, i);
    const std::size_t idx = cluster.add_node(
        core::node_config_for(spec, cfg.node_policy, ns, &overrides));
    core::populate_node(cluster.node(idx), spec, ns);
    deadline = std::max(deadline, spec.deadline);
  }

  const SimTime end = cluster.run(deadline);

  ClusterRunResult out;
  out.makespan_s = to_seconds(end);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    core::VirtualNode& n = cluster.node(i);
    const hyper::Hypervisor& hyp = n.hypervisor();
    ClusterNodeResult r;
    r.node = static_cast<std::uint32_t>(i);
    r.scenario = i == 0 ? hot.name : cold.name;
    for (VmId vm : n.vm_ids()) {
      const hyper::VmData& vd = hyp.vm_data(vm);
      r.failed_puts += vd.cumul_puts_failed;
      r.puts_total += vd.cumul_puts_total;
      r.puts_succ += vd.cumul_puts_succ;
      const core::VcpuRunner& runner = n.runner(vm);
      if (runner.started()) {
        r.runtime_s = std::max(r.runtime_s, to_seconds(runner.finish_time()));
      }
    }
    r.remote_puts = hyp.remote_puts();
    r.remote_gets = hyp.remote_gets();
    r.final_quota = hyp.node_quota();
    r.phys_tmem = hyp.total_tmem();
    out.aggregate_failed_puts += r.failed_puts;
    out.nodes.push_back(std::move(r));
  }
  if (const GlobalManager* gm = cluster.global_manager()) {
    out.gm_decisions = gm->decisions();
    out.quotas_sent = gm->quotas_sent();
  }
  if (const LendingBroker* broker = cluster.broker()) {
    out.borrow_placements = broker->borrow_placements();
    out.borrow_hits = broker->borrow_hits();
    out.recalls = broker->recalls();
    out.peak_borrowed = broker->peak_borrowed();
  }
  return out;
}

}  // namespace smartmem::cluster
