// Conservative-sync engine edge cases: lookahead validation, deterministic
// ordering of simultaneous cross-shard deliveries, and shard-local periodic
// events spanning the sync horizon. Every scenario is run at several thread
// counts and must produce an identical event trace — the engine's core
// contract is that worker scheduling is invisible in simulation results.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "comm/topology.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace smartmem::sim {
namespace {

constexpr SimTime kLookahead = 100;

TEST(ParallelEngineTest, ZeroLookaheadRejected) {
  EXPECT_THROW(ParallelEngine({/*lookahead=*/0, /*threads=*/1}),
               std::invalid_argument);
  EXPECT_THROW(ParallelEngine({/*lookahead=*/-5, /*threads=*/2}),
               std::invalid_argument);
}

TEST(ParallelEngineTest, LognormalLatencyHasZeroLookahead) {
  // The unbounded-tail latency model offers no safe window: min_latency is
  // 0, so a multi-node Cluster rejects a topology using it at start()
  // (cluster_topology_test covers the rejection).
  const comm::LatencySpec spec =
      comm::LatencySpec::lognormal(5 * kMillisecond, 0.5);
  EXPECT_EQ(comm::min_latency(spec), 0);

  comm::ClusterTopology topo;
  EXPECT_GT(topo.min_internode_latency(), 0);  // default fixed 5 ms hops
  topo.internode_up.latency = spec;
  EXPECT_EQ(topo.min_internode_latency(), 0);
}

TEST(ParallelEngineTest, OverrideLatencyLowersLookahead) {
  comm::ClusterTopology topo;
  topo.up_overrides[3].latency = comm::LatencySpec::fixed_at(kMillisecond);
  EXPECT_EQ(topo.min_internode_latency(), kMillisecond);
}

/// Two source shards each post a pair of messages due at the SAME instant on
/// a third shard. Destination execution order must be (time, src, seq) —
/// source 0's messages before source 1's, and within a source, posting
/// order — regardless of which worker ran which shard first.
std::vector<std::string> run_simultaneous(std::size_t threads) {
  Simulator s0, s1, s2;
  ParallelEngine eng({kLookahead, threads});
  const std::size_t a = eng.add_shard(&s0);
  const std::size_t b = eng.add_shard(&s1);
  const std::size_t c = eng.add_shard(&s2);

  std::vector<std::string> order;
  auto stage = [&](Simulator& sim, std::size_t src, const std::string& tag) {
    sim.schedule_at(10, [&, src, tag] {
      eng.post(src, c, 10 + kLookahead,
               [&order, tag] { order.push_back(tag + "-first"); });
      eng.post(src, c, 10 + kLookahead,
               [&order, tag] { order.push_back(tag + "-second"); });
    });
  };
  stage(s0, a, "src0");
  stage(s1, b, "src1");

  eng.run([] { return false; }, 1'000);
  return order;
}

TEST(ParallelEngineTest, SimultaneousCrossShardEventsOrderBySrcThenSeq) {
  const std::vector<std::string> want = {"src0-first", "src0-second",
                                         "src1-first", "src1-second"};
  for (const std::size_t threads : {1u, 2u, 4u}) {
    EXPECT_EQ(run_simultaneous(threads), want) << "threads=" << threads;
  }
}

/// A shard-local periodic ticks straight through window barriers: one
/// period far below the lookahead (many fires per window) and one far above
/// it (a fire every few windows), while a second shard keeps cross-shard
/// traffic flowing so windows actually happen.
struct HorizonResult {
  std::uint64_t short_fires = 0;
  std::uint64_t long_fires = 0;
  std::vector<SimTime> long_times;
  std::uint64_t windows = 0;
  bool operator==(const HorizonResult& o) const {
    return short_fires == o.short_fires && long_fires == o.long_fires &&
           long_times == o.long_times && windows == o.windows;
  }
};

HorizonResult run_periodic_horizon(std::size_t threads) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead, threads});
  const std::size_t a = eng.add_shard(&s0);
  const std::size_t b = eng.add_shard(&s1);

  HorizonResult r;
  s0.schedule_periodic(7, [&r] { ++r.short_fires; });    // << lookahead
  s0.schedule_periodic(260, [&r, &s0] {                  // >> lookahead
    ++r.long_fires;
    r.long_times.push_back(s0.now());
  });
  // Ping-pong keeps both shards live until the deadline cuts the run.
  std::function<void(std::size_t, std::size_t, Simulator*)> bounce =
      [&](std::size_t src, std::size_t dst, Simulator* src_sim) {
        eng.post(src, dst, src_sim->now() + kLookahead, [&, src, dst] {
          Simulator* other = dst == a ? &s0 : &s1;
          bounce(dst, src, other);
        });
      };
  s1.schedule_at(1, [&] { bounce(b, a, &s1); });

  const SimTime deadline = 2'000;
  eng.run([] { return false; }, deadline);
  r.windows = eng.windows_run();
  // Both periodics fire for every multiple of their period below the
  // deadline — no tick is lost or duplicated at a window boundary.
  EXPECT_EQ(r.short_fires, (deadline - 1) / 7);
  EXPECT_EQ(r.long_fires, (deadline - 1) / 260);
  for (std::size_t i = 0; i < r.long_times.size(); ++i) {
    EXPECT_EQ(r.long_times[i], static_cast<SimTime>(260 * (i + 1)));
  }
  return r;
}

TEST(ParallelEngineTest, PeriodicEventsSpanSyncHorizon) {
  const HorizonResult base = run_periodic_horizon(1);
  EXPECT_GT(base.windows, 10u);  // the run really was windowed
  EXPECT_EQ(run_periodic_horizon(2), base);
  EXPECT_EQ(run_periodic_horizon(4), base);
}

/// Idle stretches: with nothing pending before t=5000, the engine must skip
/// ahead instead of marching W-sized windows through dead time.
TEST(ParallelEngineTest, SkipsIdleGaps) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead, 1});
  eng.add_shard(&s0);
  eng.add_shard(&s1);
  int fired = 0;
  s0.schedule_at(5'000, [&] { ++fired; });
  s1.schedule_at(5'010, [&] { ++fired; });
  eng.run([] { return false; }, 100'000);
  EXPECT_EQ(fired, 2);
  EXPECT_LE(eng.windows_run(), 3u);
}

TEST(ParallelEngineTest, StopWhenCutsRunAtBarrier) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead, 1});
  eng.add_shard(&s0);
  eng.add_shard(&s1);
  int fired = 0;
  for (SimTime t = 1; t <= 10'000; t += 50) {
    s0.schedule_at(t, [&] { ++fired; });
  }
  const SimTime end = eng.run([&] { return fired >= 5; }, 1'000'000);
  EXPECT_GE(fired, 5);
  EXPECT_LT(fired, 200);  // stopped long before the queue drained
  EXPECT_LE(end, 1'000);
}

// ---- Outbox drain: sparse sources, hook-staged posts, quiet stretches ----

/// One delivery as its destination shard saw it. Each destination's log is
/// written only by events on that shard, so workers never share a log.
struct Delivery {
  SimTime when;
  std::string tag;
  bool operator==(const Delivery& o) const {
    return when == o.when && tag == o.tag;
  }
};

struct DrainRun {
  std::vector<std::vector<Delivery>> logs;  // per destination shard
  std::uint64_t posted = 0;
  std::uint64_t windows = 0;
};

/// Builds `shards` shards, lets `setup` schedule work and `hook` (may be
/// empty) run at every barrier, and runs to `deadline`.
template <typename Setup, typename Hook>
DrainRun run_drain(std::size_t threads, std::size_t shards, SimTime deadline,
                   Setup&& setup, Hook&& hook) {
  std::vector<std::unique_ptr<Simulator>> sims;
  ParallelEngine eng({kLookahead, threads});
  for (std::size_t i = 0; i < shards; ++i) {
    sims.push_back(std::make_unique<Simulator>());
    eng.add_shard(sims.back().get());
  }
  DrainRun r;
  r.logs.resize(shards);
  // post(src, dst, when, tag): the delivery appends to dst's log.
  auto post = [&](std::size_t src, std::size_t dst, SimTime when,
                  const std::string& tag) {
    eng.post(src, dst, when, [&r, &sims, dst, tag] {
      r.logs[dst].push_back(Delivery{sims[dst]->now(), tag});
    });
  };
  setup(sims, post);
  eng.set_barrier_hook([&](SimTime end) { hook(end, post); });
  eng.run([] { return false; }, deadline);
  r.posted = eng.messages_posted();
  r.windows = eng.windows_run();
  return r;
}

TEST(ParallelEngineTest, DrainDeliversFromOneSourceAmongMany) {
  // Eight live shards, one of which posts: out of time order, with ties,
  // to two destinations. Each destination sees (when, seq) order.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const DrainRun r = run_drain(
        threads, 8, 1'000,
        [](auto& sims, auto& post) {
          for (auto& s : sims) s->schedule_at(5, [] {});
          sims[5]->schedule_at(10, [&post] {
            post(5, 2, 300, "a");
            post(5, 2, 200, "b");
            post(5, 6, 200, "e");
            post(5, 2, 200, "c");
            post(5, 6, 150, "f");
            post(5, 2, 250, "d");
          });
        },
        [](SimTime, auto&) {});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.logs[2], (std::vector<Delivery>{
                             {200, "b"}, {200, "c"}, {250, "d"}, {300, "a"}}));
    EXPECT_EQ(r.logs[6], (std::vector<Delivery>{{150, "f"}, {200, "e"}}));
    for (const std::size_t quiet : {0u, 1u, 3u, 4u, 5u, 7u}) {
      EXPECT_TRUE(r.logs[quiet].empty()) << "shard " << quiet;
    }
    EXPECT_EQ(r.posted, 6u);
  }
}

TEST(ParallelEngineTest, DrainDeliversPostsMadeOnlyFromTheBarrierHook) {
  // No shard posts; the first barrier hook stages four deliveries from
  // three sources. They are injected by the second drain, are the only
  // remaining work, and fire in (when, src, seq) order.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    bool fired = false;
    const DrainRun r = run_drain(
        threads, 4, 10'000,
        [](auto& sims, auto&) {
          for (auto& s : sims) s->schedule_at(10, [] {});
        },
        [&fired](SimTime end, auto& post) {
          if (fired) return;
          fired = true;
          post(2, 1, end + 40, "h2a");
          post(0, 1, end + 40, "h0a");
          post(0, 1, end + 20, "h0b");
          post(3, 1, end + 40, "h3a");
        });
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SimTime end = 10 + kLookahead;
    EXPECT_EQ(r.logs[1], (std::vector<Delivery>{{end + 20, "h0b"},
                                                {end + 40, "h0a"},
                                                {end + 40, "h2a"},
                                                {end + 40, "h3a"}}));
    EXPECT_EQ(r.posted, 4u);
    EXPECT_EQ(r.windows, 2u);
  }
}

TEST(ParallelEngineTest, DrainDeliversAfterSeveralQuietWindows) {
  // Shard 2 posts in the first window, stays quiet while shard 0's
  // periodic keeps windows running, then posts again together with shard
  // 1. Nothing is lost, nothing from the first drain is delivered twice.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const DrainRun r = run_drain(
        threads, 3, 2'000,
        [](auto& sims, auto& post) {
          sims[0]->schedule_periodic(kLookahead, [] {});
          sims[2]->schedule_at(5, [&post] {
            post(2, 1, 5 + kLookahead, "early");
          });
          sims[2]->schedule_at(1'000, [&post] {
            post(2, 1, 1'100, "late1");
            post(2, 0, 1'150, "late0");
            post(2, 1, 1'100, "late2");
          });
          sims[1]->schedule_at(1'000, [&post] { post(1, 0, 1'150, "from1"); });
        },
        [](SimTime, auto&) {});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_GT(r.windows, 8u);  // quiet windows really ran in between
    EXPECT_EQ(r.logs[1], (std::vector<Delivery>{{5 + kLookahead, "early"},
                                                {1'100, "late1"},
                                                {1'100, "late2"}}));
    EXPECT_EQ(r.logs[0],
              (std::vector<Delivery>{{1'150, "from1"}, {1'150, "late0"}}));
    EXPECT_EQ(r.posted, 5u);
  }
}

TEST(ParallelEngineTest, CrossShardChannelRejectsDropOldestBounded) {
  Simulator s0, s1;
  ParallelEngine eng({kLookahead, 1});
  const std::size_t a = eng.add_shard(&s0);
  const std::size_t b = eng.add_shard(&s1);
  comm::ChannelConfig cfg;
  cfg.name = "x";
  cfg.latency = comm::LatencySpec::fixed_at(kLookahead);
  cfg.queue_capacity = 4;
  cfg.queue_policy = comm::QueuePolicy::kDropOldest;
  comm::Channel<int> chan(s0, cfg);
  EXPECT_THROW(chan.bind_cross_shard(&eng, a, b), std::invalid_argument);
}

}  // namespace
}  // namespace smartmem::sim
