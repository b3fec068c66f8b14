// Cross-thread RNG/seed hygiene: fanning an experiment's seeded runs out
// over a worker pool must be invisible in the results. Every repetition
// constructs its own Rng from base_seed + rep inside run_scenario, shares
// no mutable state with its siblings, and lands in a slot indexed by
// (rep, policy) — so jobs=4 must reproduce jobs=1 bit-for-bit: durations,
// usage series, milestones, guest/hypervisor counters and the aggregated
// statistics.
#include <gtest/gtest.h>

#include "cluster/experiment.hpp"
#include "comm/channel.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"

namespace smartmem::core {
namespace {

void expect_same_series(const SeriesSet& a, const SeriesSet& b) {
  ASSERT_EQ(a.all().size(), b.all().size());
  auto bit = b.all().begin();
  for (const auto& [name, ts] : a.all()) {
    ASSERT_EQ(name, bit->first);
    const auto& sa = ts.samples();
    const auto& sb = bit->second.samples();
    ASSERT_EQ(sa.size(), sb.size()) << "series " << name;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].when, sb[i].when) << name << "[" << i << "]";
      // Bit-for-bit: no tolerance.
      EXPECT_EQ(sa[i].value, sb[i].value) << name << "[" << i << "]";
    }
    ++bit;
  }
}

void expect_same_scenario_result(const ScenarioResult& a,
                                 const ScenarioResult& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.vms.size(), b.vms.size());
  for (std::size_t v = 0; v < a.vms.size(); ++v) {
    const VmResult& va = a.vms[v];
    const VmResult& vb = b.vms[v];
    EXPECT_EQ(va.name, vb.name);
    EXPECT_EQ(va.start_time, vb.start_time);
    EXPECT_EQ(va.finish_time, vb.finish_time);
    ASSERT_EQ(va.milestones.size(), vb.milestones.size());
    for (std::size_t m = 0; m < va.milestones.size(); ++m) {
      EXPECT_EQ(va.milestones[m].label, vb.milestones[m].label);
      EXPECT_EQ(va.milestones[m].when, vb.milestones[m].when);
    }
    ASSERT_EQ(va.durations.size(), vb.durations.size());
    for (std::size_t d = 0; d < va.durations.size(); ++d) {
      EXPECT_EQ(va.durations[d].first, vb.durations[d].first);
      EXPECT_EQ(va.durations[d].second, vb.durations[d].second);
    }
    EXPECT_EQ(va.guest.touches, vb.guest.touches);
    EXPECT_EQ(va.guest.faults, vb.guest.faults);
    EXPECT_EQ(va.guest.swapins_tmem, vb.guest.swapins_tmem);
    EXPECT_EQ(va.guest.swapins_disk, vb.guest.swapins_disk);
    EXPECT_EQ(va.guest.swapouts_tmem, vb.guest.swapouts_tmem);
    EXPECT_EQ(va.guest.swapouts_disk, vb.guest.swapouts_disk);
    EXPECT_EQ(va.guest.pages_reclaimed, vb.guest.pages_reclaimed);
    EXPECT_EQ(va.vm_data.cumul_puts_total, vb.vm_data.cumul_puts_total);
    EXPECT_EQ(va.vm_data.cumul_puts_succ, vb.vm_data.cumul_puts_succ);
    EXPECT_EQ(va.vm_data.cumul_gets_hit, vb.vm_data.cumul_gets_hit);
    EXPECT_EQ(va.vm_data.cumul_flushes, vb.vm_data.cumul_flushes);
  }
  expect_same_series(a.usage, b.usage);
}

void expect_same_experiment_result(const ExperimentResult& a,
                                   const ExperimentResult& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.policy_label, b.policy_label);
  EXPECT_EQ(a.vm_names, b.vm_names);
  EXPECT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  auto bit = b.cells.begin();
  for (const auto& [key, sa] : a.cells) {
    EXPECT_EQ(key, bit->first);
    const Summary& sb = bit->second;
    // Aggregation folds the runs in repetition order on one thread, so even
    // floating-point accumulation is exactly reproducible.
    EXPECT_EQ(sa.mean, sb.mean) << key.first << "/" << key.second;
    EXPECT_EQ(sa.stddev, sb.stddev) << key.first << "/" << key.second;
    EXPECT_EQ(sa.min, sb.min);
    EXPECT_EQ(sa.max, sb.max);
    EXPECT_EQ(sa.n, sb.n);
    ++bit;
  }
  expect_same_scenario_result(a.representative, b.representative);
}

std::vector<mm::PolicySpec> test_policies() {
  return {mm::PolicySpec::greedy(), mm::PolicySpec::reconf_static(),
          mm::PolicySpec::smart(1.0)};
}

class ParallelDeterminismTest
    : public ::testing::TestWithParam<ScenarioSpec (*)(double)> {};

TEST_P(ParallelDeterminismTest, Jobs4MatchesJobs1BitForBit) {
  const ScenarioSpec spec = GetParam()(0.03125);  // 32 MiB VMs: fast runs
  for (const auto& policy : test_policies()) {
    ExperimentConfig serial;
    serial.repetitions = 3;
    serial.base_seed = 11;
    serial.jobs = 1;
    ExperimentConfig parallel = serial;
    parallel.jobs = 4;

    const ExperimentResult a = run_experiment(spec, policy, serial);
    const ExperimentResult b = run_experiment(spec, policy, parallel);
    SCOPED_TRACE(spec.name + " / " + policy.label());
    expect_same_experiment_result(a, b);
  }
}

TEST_P(ParallelDeterminismTest, GridRunnerMatchesPerPolicySerialRuns) {
  const ScenarioSpec spec = GetParam()(0.03125);
  const auto policies = test_policies();

  ExperimentConfig cfg;
  cfg.repetitions = 2;
  cfg.base_seed = 5;
  cfg.jobs = 4;
  const std::vector<ExperimentResult> grid =
      run_experiments(spec, policies, cfg);

  ASSERT_EQ(grid.size(), policies.size());
  ExperimentConfig serial = cfg;
  serial.jobs = 1;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    SCOPED_TRACE(spec.name + " / " + policies[p].label());
    // Deterministic policy order regardless of completion order.
    EXPECT_EQ(grid[p].policy_label, policies[p].label());
    expect_same_experiment_result(grid[p],
                                  run_experiment(spec, policies[p], serial));
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ParallelDeterminismTest,
                         ::testing::Values(&scenario1, &usemem_scenario));

// The comm channels draw from their own per-repetition Rngs, so even a
// heavily faulted control plane — random latencies, loss, duplication,
// reordering, a tiny bounded queue — must fan out bit-identically.
TEST(ParallelDeterminismTest, FaultInjectedChannelsStayDeterministic) {
  const ScenarioSpec spec = scenario1(0.03125);
  NodeConfig cfg = scaled_node_defaults(0.03125);
  for (comm::ChannelConfig* ch : {&cfg.comm.uplink, &cfg.comm.downlink}) {
    ch->latency = comm::LatencySpec::uniform(kMillisecond, 20 * kMillisecond);
    ch->faults.loss_rate = 0.05;
    ch->faults.duplication_rate = 0.05;
    ch->faults.reorder_rate = 0.2;
    ch->faults.reorder_extra = 50 * kMillisecond;
    ch->queue_capacity = 2;
    ch->queue_policy = comm::QueuePolicy::kDropOldest;
  }

  ExperimentConfig serial;
  serial.repetitions = 3;
  serial.base_seed = 17;
  serial.jobs = 1;
  serial.overrides = &cfg;
  ExperimentConfig parallel = serial;
  parallel.jobs = 4;

  const ExperimentResult a =
      run_experiment(spec, mm::PolicySpec::smart(1.0), serial);
  const ExperimentResult b =
      run_experiment(spec, mm::PolicySpec::smart(1.0), parallel);
  expect_same_experiment_result(a, b);
}

void expect_same_cluster_result(const cluster::ClusterRunResult& a,
                                const cluster::ClusterRunResult& b) {
  EXPECT_EQ(a.aggregate_failed_puts, b.aggregate_failed_puts);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.gm_decisions, b.gm_decisions);
  EXPECT_EQ(a.quotas_sent, b.quotas_sent);
  EXPECT_EQ(a.borrow_placements, b.borrow_placements);
  EXPECT_EQ(a.borrow_hits, b.borrow_hits);
  EXPECT_EQ(a.recalls, b.recalls);
  EXPECT_EQ(a.peak_borrowed, b.peak_borrowed);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    const cluster::ClusterNodeResult& na = a.nodes[n];
    const cluster::ClusterNodeResult& nb = b.nodes[n];
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(na.scenario, nb.scenario);
    EXPECT_EQ(na.failed_puts, nb.failed_puts);
    EXPECT_EQ(na.puts_total, nb.puts_total);
    EXPECT_EQ(na.puts_succ, nb.puts_succ);
    EXPECT_EQ(na.runtime_s, nb.runtime_s);
    EXPECT_EQ(na.remote_puts, nb.remote_puts);
    EXPECT_EQ(na.remote_gets, nb.remote_gets);
    EXPECT_EQ(na.final_quota, nb.final_quota);
    EXPECT_EQ(na.phys_tmem, nb.phys_tmem);
  }
}

// Multi-node runs under --jobs: each cluster owns its node and rack shards,
// and all its channel Rngs derive purely from (seed, topology), so fanning
// four seeded 2-node cluster runs over a pool must be invisible in every
// counter of every node — including the GM and lending-broker rack-level
// state.
TEST(ParallelDeterminismTest, MultiNodeClusterFanOutStaysDeterministic) {
  const auto run_all = [](unsigned jobs) {
    std::vector<cluster::ClusterRunResult> out(4);
    parallel_for_each(jobs, out.size(), [&](std::size_t i) {
      cluster::ClusterExperimentConfig cfg;
      cfg.nodes = 2;
      cfg.scale = 0.03125;
      cfg.seed = 42 + i;
      out[i] = cluster::run_cluster_scenario(cfg);
    });
    return out;
  };
  const auto serial = run_all(1);
  const auto fanned = run_all(4);
  ASSERT_EQ(serial.size(), fanned.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    expect_same_cluster_result(serial[i], fanned[i]);
  }
}

}  // namespace
}  // namespace smartmem::core
