// Property sweep over the MemoryManager's incremental (delta) downlink
// (DESIGN §12): for any stream of samples driving smart-alloc — through
// Eq. 2 renormalization rounds, node-capacity changes and VM arrivals —
// folding the messages the MM sends must land on exactly the vector
// compute() derives for that sample and keep the Eq. 1/2 sum invariant;
// every entry of a delta frame must differ from the state it folds onto
// (the MM sends only what moved); a VM-set change must go out as a full
// snapshot; and a round in which no target moves sends nothing.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "mm/history.hpp"
#include "mm/manager.hpp"
#include "mm/smart_policy.hpp"

namespace smartmem::mm {
namespace {

struct SweepParams {
  double p_percent;
  PageCount total_tmem;
  std::uint64_t seed;
  /// When non-zero, the sampled capacity alternates between total_tmem and
  /// this every 40 rounds (a node quota landing mid-run).
  PageCount alt_total = 0;
};

/// A MemoryManager with delta framing and no periodic resync, so every send
/// after the first is a delta unless the VM set changed.
struct DeltaManager {
  explicit DeltaManager(const SmartPolicyConfig& cfg, PageCount total)
      : mm(std::make_unique<SmartPolicy>(cfg), total, config()) {
    mm.set_sender([this](const hyper::TargetsMsg& m) { sent.push_back(m); });
  }
  static ManagerConfig config() {
    ManagerConfig c;
    c.delta.enabled = true;
    c.delta.resync_every = 1u << 20;
    return c;
  }
  MemoryManager mm;
  std::vector<hyper::TargetsMsg> sent;
};

class IncrementalSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(IncrementalSweep, FoldedSendsMatchComputeExactly) {
  const auto [p, base_total, seed, alt_total] = GetParam();
  PageCount total = base_total;
  DeltaManager mgr(SmartPolicyConfig{p, 0}, total);
  SmartPolicy oracle(SmartPolicyConfig{p, 0});
  StatsHistory oracle_hist;
  PolicyContext ctx;
  ctx.history = &oracle_hist;

  Rng rng(seed);
  constexpr std::size_t kBaseVms = 16;

  hyper::MemStats s;
  for (std::size_t i = 0; i < kBaseVms; ++i) {
    hyper::VmMemStats vm;
    vm.vm_id = static_cast<VmId>(i + 1);
    vm.mm_target = total / kBaseVms;
    vm.tmem_used = total / kBaseVms;
    s.vm.push_back(vm);
  }

  // The hypervisor's view of the targets: every message folded in order.
  std::map<VmId, PageCount> folded;
  for (int round = 0; round < 400; ++round) {
    if (alt_total != 0 && round % 40 == 20) {
      total = total == base_total ? alt_total : base_total;
    }
    const bool set_change = round == 0 || round == 150 || round == 300;
    if (round == 150 || round == 300) {
      hyper::VmMemStats vm;
      vm.vm_id = static_cast<VmId>(100 + round);
      vm.tmem_used = rng.uniform(total / kBaseVms);
      s.vm.push_back(vm);
    }
    const std::size_t n_dirty = 1 + rng.uniform(3);
    for (std::size_t k = 0; k < n_dirty; ++k) {
      auto& vm = s.vm[rng.uniform(s.vm.size())];
      vm.puts_total = rng.uniform(200);
      vm.puts_succ = vm.puts_total - rng.uniform(vm.puts_total + 1);
      vm.cumul_puts_failed += vm.puts_total - vm.puts_succ;
      vm.tmem_used = rng.uniform(total + 1);
    }
    s.total_tmem = total;
    s.vm_count = static_cast<std::uint32_t>(s.vm.size());
    s.seq = static_cast<std::uint64_t>(round) + 1;

    const std::size_t before = mgr.sent.size();
    mgr.mm.on_stats(s);
    oracle_hist.record(s);
    ctx.total_tmem = total;
    const hyper::MmOut want = oracle.compute(s, ctx);

    ASSERT_LE(mgr.sent.size(), before + 1) << "round " << round;
    if (set_change) {
      ASSERT_EQ(mgr.sent.size(), before + 1) << "round " << round;
    }
    if (mgr.sent.size() > before) {
      const hyper::TargetsMsg& msg = mgr.sent.back();
      ASSERT_EQ(msg.delta, !set_change) << "round " << round;
      if (!msg.delta) folded.clear();
      for (const auto& t : msg.targets) {
        // Minimality: every entry of a delta frame moved.
        if (msg.delta) {
          ASSERT_NE(folded.at(t.vm_id), t.mm_target)
              << "round " << round << " vm " << t.vm_id << " (p=" << p << ")";
        }
        folded[t.vm_id] = t.mm_target;
      }
    }

    // Exact equality, round for round: sending nothing is only correct
    // because the folded state already equals compute().
    ASSERT_EQ(want.size(), s.vm.size()) << "round " << round;
    ASSERT_EQ(folded.size(), want.size()) << "round " << round;
    PageCount sum = 0;
    for (const auto& t : want) {
      ASSERT_EQ(folded.at(t.vm_id), t.mm_target)
          << "round " << round << " vm " << t.vm_id << " (p=" << p << ")";
      sum += t.mm_target;
      ASSERT_LE(t.mm_target, total);
    }
    // Eq. 1/2: one page of floor-rounding slack per VM.
    ASSERT_LE(sum, total + s.vm.size()) << "round " << round;

    // The hypervisor applies the targets; the next sample reports them.
    for (const auto& t : want) {
      for (auto& vm : s.vm) {
        if (vm.vm_id == t.vm_id) vm.mm_target = t.mm_target;
      }
    }
  }
  EXPECT_EQ(mgr.mm.targets_full_sends(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalSweep,
    ::testing::Values(SweepParams{0.25, 1u << 16, 1},
                      SweepParams{0.75, 1u << 18, 2},
                      SweepParams{2.0, 1u << 20, 3},
                      SweepParams{6.0, 100000, 4},
                      SweepParams{0.75, 12345, 5},
                      SweepParams{0.75, 1u << 18, 6, 3u << 16},
                      SweepParams{2.0, 100000, 7, 150000},
                      SweepParams{6.0, 1u << 16, 8, 1u << 15}));

// Suppression in isolation: rounds in which nothing decision-relevant
// changes send nothing.
TEST(IncrementalSuppression, QuietRoundsSendNothing) {
  constexpr PageCount kTotal = 1u << 16;
  DeltaManager mgr(SmartPolicyConfig{}, kTotal);

  hyper::MemStats s;
  s.total_tmem = kTotal;
  for (VmId vm = 1; vm <= 4; ++vm) {
    hyper::VmMemStats v;
    v.vm_id = vm;
    v.mm_target = kTotal / 4;
    v.tmem_used = kTotal / 4;
    s.vm.push_back(v);
  }
  s.vm_count = 4;
  s.seq = 1;
  mgr.mm.on_stats(s);
  ASSERT_EQ(mgr.sent.size(), 1u);
  EXPECT_FALSE(mgr.sent[0].delta);

  // Counter churn that trips no Algorithm 4 condition: successful puts,
  // usage pinned to the target.
  for (int round = 2; round <= 20; ++round) {
    s.vm[static_cast<std::size_t>(round) % 4].puts_total += 10;
    s.vm[static_cast<std::size_t>(round) % 4].puts_succ += 10;
    s.seq = static_cast<std::uint64_t>(round);
    mgr.mm.on_stats(s);
    EXPECT_EQ(mgr.sent.size(), 1u) << "round " << round;
  }
  EXPECT_EQ(mgr.mm.sends_suppressed(), 19u);
}

}  // namespace
}  // namespace smartmem::mm
