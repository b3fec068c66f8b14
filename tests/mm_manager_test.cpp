// MemoryManager: history recording, policy dispatch, the paper's
// change-suppressing send_to_hypervisor behaviour, and the sequenced
// stale-sample rejection added with the comm layer.
#include "mm/manager.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "mm/reconf_static_policy.hpp"
#include "mm/static_policy.hpp"

namespace smartmem::mm {
namespace {

hyper::MemStats make_stats(PageCount total, std::uint32_t vms) {
  hyper::MemStats stats;
  stats.total_tmem = total;
  stats.vm_count = vms;
  for (VmId id = 1; id <= vms; ++id) {
    hyper::VmMemStats v;
    v.vm_id = id;
    stats.vm.push_back(v);
  }
  return stats;
}

TEST(ManagerTest, NullPolicyRejected) {
  EXPECT_THROW(MemoryManager(nullptr, 100), std::invalid_argument);
}

TEST(ManagerTest, SendsTargetsOnFirstSample) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  std::vector<hyper::TargetsMsg> sent;
  mm.set_sender([&](const hyper::TargetsMsg& msg) { sent.push_back(msg); });
  mm.on_stats(make_stats(300, 3));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].targets.size(), 3u);
  EXPECT_EQ(sent[0].targets[0].mm_target, 100u);
  EXPECT_EQ(sent[0].seq, 1u);
}

TEST(ManagerTest, SuppressesUnchangedTargets) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  int sends = 0;
  mm.set_sender([&](const hyper::TargetsMsg&) { ++sends; });
  for (int i = 0; i < 5; ++i) mm.on_stats(make_stats(300, 3));
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(mm.targets_sent(), 1u);
  EXPECT_EQ(mm.sends_suppressed(), 4u);
  EXPECT_EQ(mm.samples_seen(), 5u);
}

TEST(ManagerTest, ResendsWhenTargetsChange) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  int sends = 0;
  mm.set_sender([&](const hyper::TargetsMsg&) { ++sends; });
  mm.on_stats(make_stats(300, 3));
  mm.on_stats(make_stats(300, 3));
  mm.on_stats(make_stats(300, 2));  // VM destroyed: shares change
  EXPECT_EQ(sends, 2);
}

// suppress_unchanged compares against the *last transmitted* vector, not a
// set of ever-sent vectors: after an intervening change, returning to an
// earlier vector must transmit again (the hypervisor's state followed the
// intervening change, so "unchanged vs. two sends ago" is still a change).
TEST(ManagerTest, ResendsEarlierVectorAfterInterveningChange) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  std::vector<hyper::TargetsMsg> sent;
  mm.set_sender([&](const hyper::TargetsMsg& msg) { sent.push_back(msg); });
  mm.on_stats(make_stats(300, 3));  // equal shares of 100 -> send #1
  mm.on_stats(make_stats(300, 2));  // shares of 150       -> send #2
  mm.on_stats(make_stats(300, 3));  // back to 100         -> must send #3
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(sent[0].targets, sent[2].targets);
  EXPECT_EQ(mm.sends_suppressed(), 0u);
  // Sequence numbers keep climbing across the re-send.
  EXPECT_EQ(sent[2].seq, 3u);
}

TEST(ManagerTest, SuppressionCanBeDisabled) {
  ManagerConfig cfg;
  cfg.suppress_unchanged = false;
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300, cfg);
  int sends = 0;
  mm.set_sender([&](const hyper::TargetsMsg&) { ++sends; });
  for (int i = 0; i < 3; ++i) mm.on_stats(make_stats(300, 3));
  EXPECT_EQ(sends, 3);
}

TEST(ManagerTest, RecordsHistory) {
  MemoryManager mm(std::make_unique<ReconfStaticPolicy>(), 300);
  mm.set_sender([](const hyper::TargetsMsg&) {});
  auto stats = make_stats(300, 2);
  stats.vm[0].puts_total = 7;
  stats.vm[0].puts_succ = 4;
  mm.on_stats(stats);
  EXPECT_EQ(mm.history().samples_recorded(), 1u);
  EXPECT_EQ(mm.history().failed_puts_last_interval(1), 3u);
  EXPECT_EQ(mm.history().failed_puts_last_interval(2), 0u);
  EXPECT_FALSE(mm.history().nth_last(1, 5).has_value());
}

TEST(ManagerTest, HistoryDepthIsBounded) {
  ManagerConfig cfg;
  cfg.history_depth = 3;
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300, cfg);
  mm.set_sender([](const hyper::TargetsMsg&) {});
  for (int i = 0; i < 10; ++i) {
    auto stats = make_stats(300, 1);
    stats.vm[0].puts_total = static_cast<std::uint64_t>(i);
    mm.on_stats(stats);
  }
  EXPECT_TRUE(mm.history().nth_last(1, 2).has_value());
  EXPECT_FALSE(mm.history().nth_last(1, 3).has_value());
  EXPECT_EQ(mm.history().nth_last(1, 0)->puts_total, 9u);
  EXPECT_EQ(mm.history().nth_last(1, 2)->puts_total, 7u);
}

// Eviction exactly at the boundary: depth samples all stay; the (depth+1)-th
// evicts precisely the oldest one.
TEST(ManagerTest, HistoryEvictsExactlyAtDepthBoundary) {
  constexpr std::size_t kDepth = 4;
  ManagerConfig cfg;
  cfg.history_depth = kDepth;
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300, cfg);
  mm.set_sender([](const hyper::TargetsMsg&) {});

  for (std::size_t i = 1; i <= kDepth; ++i) {  // exactly depth samples
    auto stats = make_stats(300, 1);
    stats.vm[0].puts_total = i;
    mm.on_stats(stats);
  }
  ASSERT_TRUE(mm.history().nth_last(1, kDepth - 1).has_value());
  EXPECT_EQ(mm.history().nth_last(1, kDepth - 1)->puts_total, 1u)
      << "the first sample must still be resident at exactly depth";
  EXPECT_FALSE(mm.history().nth_last(1, kDepth).has_value());

  auto stats = make_stats(300, 1);  // depth+1: evicts sample 1, keeps 2..5
  stats.vm[0].puts_total = kDepth + 1;
  mm.on_stats(stats);
  ASSERT_TRUE(mm.history().nth_last(1, kDepth - 1).has_value());
  EXPECT_EQ(mm.history().nth_last(1, kDepth - 1)->puts_total, 2u);
  EXPECT_EQ(mm.history().nth_last(1, 0)->puts_total, kDepth + 1);
  EXPECT_FALSE(mm.history().nth_last(1, kDepth).has_value());
}

TEST(ManagerTest, MaterializedTargetsAreExposed) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  mm.set_sender([](const hyper::TargetsMsg&) {});
  EXPECT_TRUE(mm.materialized_targets().empty());
  mm.on_stats(make_stats(300, 3));
  ASSERT_EQ(mm.materialized_targets().size(), 3u);
  EXPECT_EQ(mm.materialized_targets()[2].mm_target, 100u);
  // A VM-set change replaces the vector: the destroyed VM does not linger.
  mm.on_stats(make_stats(300, 2));
  ASSERT_EQ(mm.materialized_targets().size(), 2u);
  EXPECT_EQ(mm.materialized_targets()[1].mm_target, 150u);
}

// A faulty uplink can duplicate or reorder memstats deliveries; the MM must
// fold each interval into its history at most once and never step backwards.
TEST(ManagerTest, DropsDuplicateAndOutOfOrderSamples) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  mm.set_sender([](const hyper::TargetsMsg&) {});

  auto s1 = make_stats(300, 1);
  s1.seq = 1;
  auto s2 = make_stats(300, 1);
  s2.seq = 2;
  mm.on_stats(s1);
  mm.on_stats(s2);
  mm.on_stats(s2);  // duplicated delivery
  mm.on_stats(s1);  // reordered (stale) delivery
  EXPECT_EQ(mm.samples_seen(), 2u);
  EXPECT_EQ(mm.history().samples_recorded(), 2u);
  EXPECT_EQ(mm.stale_samples_dropped(), 2u);
  EXPECT_EQ(mm.last_sample_seq(), 2u);

  auto s3 = make_stats(300, 1);
  s3.seq = 3;
  mm.on_stats(s3);
  EXPECT_EQ(mm.samples_seen(), 3u);
}

// Unsequenced samples (seq 0, e.g. hand-built snapshots in tests and tools)
// bypass the ordering check entirely.
TEST(ManagerTest, UnsequencedSamplesAlwaysAccepted) {
  MemoryManager mm(std::make_unique<StaticPolicy>(), 300);
  mm.set_sender([](const hyper::TargetsMsg&) {});
  for (int i = 0; i < 3; ++i) mm.on_stats(make_stats(300, 1));
  EXPECT_EQ(mm.samples_seen(), 3u);
  EXPECT_EQ(mm.stale_samples_dropped(), 0u);
}

}  // namespace
}  // namespace smartmem::mm
