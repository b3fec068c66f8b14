// Fleet determinism contracts (DESIGN §12): the fleet experiment is a pure
// function of its config — bit-identical across parallel-engine thread
// counts, and the delta-encoded control plane replays the exact event
// timeline of the full-vector one (only the byte accounting may differ).
#include <gtest/gtest.h>

#include "cluster/fleet.hpp"

namespace smartmem::cluster {
namespace {

FleetExperimentConfig fleet_8x16() {
  FleetExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.vms_per_node = 16;
  cfg.scale = 0.0625;
  cfg.seed = 42;
  return cfg;
}

/// Equality over every deterministic field (everything except the
/// wall-clock decide probe).
void expect_identical(const FleetRunResult& a, const FleetRunResult& b) {
  EXPECT_EQ(a.aggregate_failed_puts, b.aggregate_failed_puts);
  EXPECT_EQ(a.puts_total, b.puts_total);
  EXPECT_EQ(a.puts_succ, b.puts_succ);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.node_control_bytes, b.node_control_bytes);
  EXPECT_EQ(a.rack_control_bytes, b.rack_control_bytes);
  EXPECT_EQ(a.mm_samples, b.mm_samples);
  EXPECT_EQ(a.mm_targets_sent, b.mm_targets_sent);
  EXPECT_EQ(a.mm_incremental_decides, b.mm_incremental_decides);
  EXPECT_EQ(a.mm_decides, b.mm_decides);
  EXPECT_EQ(a.stats_full_sends, b.stats_full_sends);
  EXPECT_EQ(a.targets_full_sends, b.targets_full_sends);
  EXPECT_EQ(a.gm_decisions, b.gm_decisions);
  EXPECT_EQ(a.gm_clean_decides, b.gm_clean_decides);
  EXPECT_EQ(a.quotas_sent, b.quotas_sent);
  EXPECT_EQ(a.quota_sends_skipped, b.quota_sends_skipped);
  EXPECT_EQ(a.rollups_suppressed, b.rollups_suppressed);
  EXPECT_EQ(a.borrow_placements, b.borrow_placements);
  EXPECT_EQ(a.lending_failed_placements, b.lending_failed_placements);
}

/// The simulation-outcome subset (the bench CSV's encoding-independent
/// prefix): what delta-vs-full runs must agree on.
void expect_same_outcome(const FleetRunResult& a, const FleetRunResult& b) {
  EXPECT_EQ(a.aggregate_failed_puts, b.aggregate_failed_puts);
  EXPECT_EQ(a.puts_total, b.puts_total);
  EXPECT_EQ(a.puts_succ, b.puts_succ);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.mm_samples, b.mm_samples);
  EXPECT_EQ(a.mm_decides, b.mm_decides);
  EXPECT_EQ(a.gm_decisions, b.gm_decisions);
  EXPECT_EQ(a.borrow_placements, b.borrow_placements);
  EXPECT_EQ(a.lending_failed_placements, b.lending_failed_placements);
}

TEST(FleetDeterminism, BitIdenticalAcrossSimThreads) {
  FleetExperimentConfig serial = fleet_8x16();
  serial.sim_threads = 1;
  FleetExperimentConfig threaded = fleet_8x16();
  threaded.sim_threads = 4;

  const FleetRunResult a = run_fleet_scenario(serial);
  const FleetRunResult b = run_fleet_scenario(threaded);
  ASSERT_GT(a.puts_total, 0u);
  ASSERT_GT(a.mm_samples, 0u);
  expect_identical(a, b);
}

TEST(FleetDeterminism, DeltaEncodingReplaysFullVectorTimeline) {
  FleetExperimentConfig full = fleet_8x16();
  FleetExperimentConfig delta = fleet_8x16();
  delta.delta = true;

  const FleetRunResult a = run_fleet_scenario(full);
  const FleetRunResult b = run_fleet_scenario(delta);
  ASSERT_GT(a.aggregate_failed_puts, 0u);
  expect_same_outcome(a, b);
  // And the encoding actually did something: fewer bytes, some deltas.
  EXPECT_LT(b.node_control_bytes, a.node_control_bytes);
  EXPECT_LT(b.rack_control_bytes, a.rack_control_bytes);
  EXPECT_GT(b.stats_full_sends, 0u);
  EXPECT_LT(b.stats_full_sends, b.mm_samples);
}

TEST(FleetDeterminism, DeltaWithThreadsMatchesDeltaSerial) {
  FleetExperimentConfig serial = fleet_8x16();
  serial.delta = true;
  FleetExperimentConfig threaded = serial;
  threaded.sim_threads = 4;

  const FleetRunResult a = run_fleet_scenario(serial);
  const FleetRunResult b = run_fleet_scenario(threaded);
  ASSERT_GT(a.mm_decides, 0u);
  expect_identical(a, b);
}

TEST(FleetDeterminism, SeedChangesOutcome) {
  FleetExperimentConfig a_cfg = fleet_8x16();
  FleetExperimentConfig b_cfg = fleet_8x16();
  a_cfg.nodes = 2;
  a_cfg.vms_per_node = 4;
  b_cfg.nodes = 2;
  b_cfg.vms_per_node = 4;
  b_cfg.seed = 43;

  const FleetRunResult a = run_fleet_scenario(a_cfg);
  const FleetRunResult b = run_fleet_scenario(b_cfg);
  // Not a byte-identity target — different seeds must actually reshuffle
  // the workload (guards against the seed being dropped on the floor).
  EXPECT_NE(a.puts_total, b.puts_total);
}

}  // namespace
}  // namespace smartmem::cluster
