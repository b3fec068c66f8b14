// Deterministic 1-in-N span sampling (TraceConfig::sample_every): the
// sampler keeps a per-track counter, so the surviving span *set* — not just
// its size — is a pure function of each track's event sequence. That makes
// it invariant under the parallel engine's thread count (tracks are
// single-writer and per-shard event order is deterministic), and
// merge_from() must carry surviving spans across recorder boundaries
// untouched. The category gate sits before the counter, so disabled
// categories neither record nor perturb the cadence.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fleet.hpp"
#include "core/scenario.hpp"
#include "mm/policy_factory.hpp"
#include "obs/trace.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace smartmem::obs {
namespace {

/// Timestamps of the buffered spans named `name`, parsed out of the Chrome
/// JSON (one event per line; "ts" is microseconds as a JSON number).
std::multiset<std::string> span_timestamps(const TraceRecorder& rec,
                                           const char* name) {
  std::multiset<std::string> out;
  std::istringstream in(rec.to_json());
  const std::string want = std::string("\"name\":\"") + name + "\"";
  for (std::string line; std::getline(in, line);) {
    if (line.find(want) == std::string::npos) continue;
    const std::size_t pos = line.find("\"ts\":");
    EXPECT_NE(pos, std::string::npos) << line;
    if (pos == std::string::npos) continue;
    out.insert(line.substr(pos, line.find(',', pos) - pos));
  }
  return out;
}

TEST(TraceSamplingTest, KeepsEveryNthSpanPerTrack) {
  TraceConfig cfg;
  cfg.sample_every = 4;
  TraceRecorder rec(cfg);
  const std::uint16_t t0 = rec.register_track("p", "t0");
  const std::uint16_t t1 = rec.register_track("p", "t1");

  // Interleave the two tracks at different cadences: each track's counter
  // must tick independently of the other's traffic.
  for (SimTime i = 0; i < 16; ++i) {
    rec.sampled_span(kCatGuest, t0, "a", /*ts=*/1000 + i, 1);
    if (i % 2 == 0) rec.sampled_span(kCatGuest, t1, "b", 2000 + i, 1);
  }
  // t0 keeps counters 0,4,8,12; t1 keeps its own 0th and 4th (i=0, i=8).
  EXPECT_EQ(rec.size(), 4u + 2u);
  EXPECT_EQ(rec.sampled_out(), 12u + 6u);

  const std::multiset<std::string> a = span_timestamps(rec, "a");
  const std::multiset<std::string> b = span_timestamps(rec, "b");
  // ts serializes in microseconds (sim ns / 1000, three decimals).
  EXPECT_EQ(a, (std::multiset<std::string>{"\"ts\":1.000", "\"ts\":1.004",
                                           "\"ts\":1.008", "\"ts\":1.012"}));
  EXPECT_EQ(b, (std::multiset<std::string>{"\"ts\":2.000", "\"ts\":2.008"}));
}

TEST(TraceSamplingTest, SampleEveryOneKeepsEverything) {
  TraceRecorder rec(TraceConfig{});
  const std::uint16_t t = rec.register_track("p", "t");
  for (SimTime i = 0; i < 10; ++i) rec.sampled_span(kCatGuest, t, "a", i, 1);
  EXPECT_EQ(rec.size(), 10u);
  EXPECT_EQ(rec.sampled_out(), 0u);
}

TEST(TraceSamplingTest, CategoryGateSitsBeforeTheCounter) {
  TraceConfig cfg;
  cfg.categories = kCatGuest;  // tmem disabled
  cfg.sample_every = 2;
  TraceRecorder rec(cfg);
  const std::uint16_t t = rec.register_track("p", "t");
  for (SimTime i = 0; i < 8; ++i) {
    // A disabled-category span between every enabled one: it must not
    // record, not count as sampled-out, and not advance the track counter
    // (else the surviving set would shift).
    rec.sampled_span(kCatTmem, t, "off", 100 + i, 1);
    rec.sampled_span(kCatGuest, t, "on", 200 + i, 1);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.sampled_out(), 4u);
  const std::multiset<std::string> on = span_timestamps(rec, "on");
  EXPECT_EQ(on, (std::multiset<std::string>{"\"ts\":0.200", "\"ts\":0.202",
                                            "\"ts\":0.204", "\"ts\":0.206"}));
}

TEST(TraceSamplingTest, MergeFromPreservesSampledEvents) {
  TraceConfig cfg;
  cfg.sample_every = 3;
  TraceRecorder shard(cfg);
  const std::uint16_t t = shard.register_track("node", "vm1");
  for (SimTime i = 0; i < 9; ++i) {
    shard.sampled_span(kCatGuest, t, "vcpu_batch", 10 * i, 5);
  }
  ASSERT_EQ(shard.size(), 3u);

  TraceRecorder root(TraceConfig{});  // root itself does not sample
  root.register_track("rack", "gm");
  root.merge_from(shard);
  // The merge copies the surviving buffered events verbatim — it never
  // re-runs the sampler — and carries the suppression count along.
  EXPECT_EQ(root.size(), 3u);
  EXPECT_EQ(root.sampled_out(), shard.sampled_out());
  const std::multiset<std::string> got = span_timestamps(root, "vcpu_batch");
  EXPECT_EQ(got, (std::multiset<std::string>{"\"ts\":0.000", "\"ts\":0.030",
                                             "\"ts\":0.060"}));
}

/// Sharded recording exactly as the cluster wires it: one private recorder
/// per engine shard, every shard event emits a sampled span, rings merged
/// into a root recorder in shard order after the run. The exported JSON
/// must be byte-identical at any worker-thread count.
std::string run_sampled_cluster(std::size_t threads) {
  sim::Simulator s0, s1, s2;
  sim::ParallelEngine eng({/*lookahead=*/100, threads});
  std::vector<sim::Simulator*> sims = {&s0, &s1, &s2};
  std::vector<std::size_t> ids;
  for (sim::Simulator* s : sims) ids.push_back(eng.add_shard(s));

  TraceConfig cfg;
  cfg.sample_every = 4;
  std::vector<std::unique_ptr<TraceRecorder>> recs;
  std::vector<std::uint16_t> tracks;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    recs.push_back(std::make_unique<TraceRecorder>(cfg));
    tracks.push_back(recs[i]->register_track("shard", "s" + std::to_string(i)));
  }

  // Independent periodics per shard plus a ring of cross-shard posts so
  // windows have real traffic; every event records one sampled span.
  for (std::size_t i = 0; i < sims.size(); ++i) {
    sims[i]->schedule_periodic(7 + static_cast<SimTime>(3 * i), [&, i] {
      recs[i]->sampled_span(kCatGuest, tracks[i], "tick", sims[i]->now(), 2);
    });
    const std::size_t next = (i + 1) % sims.size();
    sims[i]->schedule_periodic(50, [&, i, next] {
      eng.post(ids[i], ids[next], sims[i]->now() + 100, [&, next] {
        recs[next]->sampled_span(kCatGuest, tracks[next], "hop",
                                 sims[next]->now(), 1);
      });
    });
  }
  eng.run([] { return false; }, 5'000);

  TraceRecorder root(TraceConfig{});
  for (const auto& r : recs) root.merge_from(*r);
  return root.to_json();
}

TEST(TraceSamplingTest, SampledSetInvariantUnderSimThreads) {
  const std::string base = run_sampled_cluster(1);
  EXPECT_NE(base.find("tick"), std::string::npos);
  EXPECT_NE(base.find("hop"), std::string::npos);
  EXPECT_EQ(run_sampled_cluster(2), base);
  EXPECT_EQ(run_sampled_cluster(4), base);
}

/// End-to-end on the real call sites: a scenario run with 1-in-4 sampling
/// keeps about a quarter of the guest-path spans, suppresses the rest, and
/// two identical runs produce the identical trace.
TEST(TraceSamplingTest, ScenarioGuestPathSampling) {
  if (!kHotPathTraceCompiled) GTEST_SKIP() << "hot-path spans compiled out";
  auto run = [](std::uint64_t every) {
    core::NodeConfig cfg = core::scaled_node_defaults(0.0625);
    cfg.obs.capture_trace = true;
    cfg.obs.trace_sample_every = every;
    const core::ScenarioSpec spec = core::scenario1(0.0625);
    auto node = core::build_node(spec, mm::PolicySpec::smart(0.75),
                                 /*seed=*/1, &cfg);
    node->run(spec.deadline);
    const TraceRecorder* trace = node->observer()->trace();
    return std::pair<std::string, std::uint64_t>(trace->to_json(),
                                                 trace->sampled_out());
  };
  const auto [full_json, full_out] = run(1);
  const auto [s4_json, s4_out] = run(4);
  EXPECT_EQ(full_out, 0u);
  EXPECT_GT(s4_out, 0u);
  EXPECT_LT(s4_json.size(), full_json.size());
  // Same seed, same config: the sampled run reproduces byte-for-byte.
  EXPECT_EQ(run(4).first, s4_json);
}

/// The fleet path end-to-end: the exported cluster trace (which rides the
/// same per-shard ring + merge machinery) stays byte-identical across
/// sim_threads with sampling configured.
TEST(TraceSamplingTest, FleetTraceInvariantUnderSimThreads) {
  auto run = [](std::size_t threads) {
    const std::string path = ::testing::TempDir() + "/fleet_trace_" +
                             std::to_string(threads) + ".json";
    cluster::FleetExperimentConfig cfg;
    cfg.nodes = 3;
    cfg.vms_per_node = 2;
    cfg.scale = 0.03125;
    cfg.delta = true;
    cfg.sim_threads = threads;
    cfg.obs.trace_out = path;
    cfg.obs.trace_sample_every = 4;
    cluster::run_fleet_scenario(cfg);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string base = run(1);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(run(4), base);
}

}  // namespace
}  // namespace smartmem::obs
