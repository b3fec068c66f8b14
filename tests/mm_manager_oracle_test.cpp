// Wire oracle for the MemoryManager's decide-and-send path (DESIGN §12).
//
// The MM diffs each policy output against the vector it last sent,
// suppresses unchanged sends and frames full/delta messages itself.
// ClassicManager below is the reference: a full compute() per sample,
// suppression against a separately kept copy of the last sent vector and
// the full-vector TargetsDeltaEncoder. Seeded fuzz streams with capacity
// changes, VM arrivals and removals, stale deliveries and adaptive
// interval-only sends must produce the same TargetsMsg stream, the same
// wire bytes, the same counters and the same audit records from both, for
// every policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hyper/delta.hpp"
#include "mm/manager.hpp"
#include "mm/policy_factory.hpp"
#include "targets_delta_encoder.hpp"

namespace smartmem::mm {
namespace {

/// What the oracle decided about one sample, for the audit comparison.
struct OracleAudit {
  bool sent = false;
  bool suppressed = false;
  bool empty_output = false;
  std::uint64_t send_seq = 0;
  obs::PolicyAuditScratch scratch;
  hyper::MmOut out;  // compute()'s output, for the MM's synthesized verdicts
};

class ClassicManager {
 public:
  ClassicManager(PolicyPtr policy, PageCount total, ManagerConfig cfg)
      : policy_(std::move(policy)),
        total_(total),
        cfg_(cfg),
        history_(cfg.history_depth) {
    if (cfg_.adaptive.enabled) ctl_.emplace(cfg_.adaptive, cfg_.sample_interval);
    if (cfg_.delta.enabled) enc_.emplace(cfg_.delta);
  }

  /// `stats` is the full sample as the MM materializes it, delivered at
  /// `now`.
  void on_sample(const hyper::MemStats& stats, SimTime now, bool audit) {
    history_.record(stats);
    const SimTime interval =
        stats.interval > 0 ? stats.interval : cfg_.sample_interval;
    const double age = static_cast<double>(now - stats.when) /
                       static_cast<double>(interval);
    PolicyContext ctx;
    ctx.total_tmem = stats.total_tmem != 0 ? stats.total_tmem : total_;
    ctx.history = &history_;
    ctx.stats_age_intervals = age;
    OracleAudit a;
    if (audit) ctx.audit = &a.scratch;
    hyper::MmOut out = policy_->compute(stats, ctx);
    if (audit) a.out = out;

    SimTime update = 0;
    if (ctl_) {
      IntervalSignal sig;
      sig.sample_age_intervals = age;
      for (const auto& vm : stats.vm) sig.failed_puts += vm.puts_total - vm.puts_succ;
      if (auto changed = ctl_->on_sample(now, sig)) update = *changed;
    }

    if (out.empty()) {
      a.empty_output = true;
      interval_only(update);
    } else if (cfg_.suppress_unchanged && last_sent_ && *last_sent_ == out) {
      ++sends_suppressed;
      a.suppressed = true;
      interval_only(update);
    } else {
      last_sent_ = out;
      ++targets_sent;
      a.sent = true;
      a.send_seq = seq_ + 1;
      if (enc_) {
        msgs.push_back(enc_->encode(++seq_, out, update));
      } else {
        msgs.push_back(hyper::TargetsMsg{++seq_, std::move(out), update});
      }
    }
    if (audit) audits.push_back(std::move(a));
  }

  std::uint64_t full_sends() const { return enc_ ? enc_->full_sends() : 0; }

  std::vector<hyper::TargetsMsg> msgs;
  std::vector<OracleAudit> audits;
  std::uint64_t targets_sent = 0;
  std::uint64_t sends_suppressed = 0;
  std::uint64_t interval_msgs_sent = 0;

 private:
  void interval_only(SimTime interval) {
    if (interval <= 0) return;
    ++interval_msgs_sent;
    msgs.push_back(hyper::TargetsMsg{++seq_, {}, interval});
    if (enc_) enc_->note_interval_send(seq_);
  }

  PolicyPtr policy_;
  PageCount total_;
  ManagerConfig cfg_;
  StatsHistory history_;
  std::optional<IntervalController> ctl_;
  std::optional<hyper::TargetsDeltaEncoder> enc_;
  std::optional<hyper::MmOut> last_sent_;
  std::uint64_t seq_ = 0;
};

struct Knobs {
  bool delta = false;
  std::uint64_t resync = 16;
  bool adaptive = false;
  bool audit = false;
  bool suppress = true;
};

std::string label(const PolicySpec& spec, const Knobs& k) {
  return spec.label() + (k.delta ? " delta/" + std::to_string(k.resync) : " full") +
         (k.adaptive ? " adaptive" : "") + (k.audit ? " audit" : "") +
         (k.suppress ? "" : " no-suppress");
}

void expect_verdicts_equal(const obs::VmVerdict& got, const obs::VmVerdict& want,
                           const std::string& where) {
  ASSERT_EQ(got.vm, want.vm) << where;
  ASSERT_STREQ(got.verdict, want.verdict) << where;
  ASSERT_STREQ(got.condition, want.condition) << where;
  ASSERT_EQ(got.target_before, want.target_before) << where;
  ASSERT_EQ(got.target_after, want.target_after) << where;
  ASSERT_EQ(got.failed_puts, want.failed_puts) << where;
  ASSERT_EQ(got.tmem_used, want.tmem_used) << where;
  ASSERT_EQ(got.slack_pages, want.slack_pages) << where;
  ASSERT_EQ(got.renormalized, want.renormalized) << where;
}

/// Drives the MM and the oracle over one seeded stream and compares them.
void run_stream(const PolicySpec& spec, const Knobs& k,
                         std::uint64_t seed) {
  const std::string where = label(spec, k) + " seed " + std::to_string(seed);
  constexpr PageCount kTotal = 1u << 14;
  ManagerConfig cfg;
  cfg.suppress_unchanged = k.suppress;
  cfg.delta.enabled = k.delta;
  cfg.delta.resync_every = k.resync;
  cfg.adaptive.enabled = k.adaptive;
  cfg.adaptive.hysteresis = 0;
  cfg.adaptive.quiet_samples_to_stretch = 2;

  MemoryManager mm(make_policy(spec), kTotal, cfg);
  ClassicManager oracle(make_policy(spec), kTotal, cfg);
  SimTime now = 0;
  mm.set_clock([&now] { return now; });
  std::vector<hyper::TargetsMsg> got;
  mm.set_sender([&got](const hyper::TargetsMsg& m) { got.push_back(m); });
  obs::AuditLog audit;
  if (k.audit) mm.attach_obs(nullptr, &audit);
  hyper::StatsDeltaEncoder uplink(cfg.delta);

  Rng rng(seed);
  hyper::MemStats s;
  s.total_tmem = kTotal;
  s.interval = kSecond;
  VmId next_id = 1;
  auto add_vm = [&] {
    hyper::VmMemStats vm;
    vm.vm_id = next_id++;
    vm.mm_target = kUnlimitedTarget;  // not yet managed
    s.vm.push_back(vm);
  };
  for (int i = 0; i < 6; ++i) add_vm();
  std::vector<hyper::VmMemStats> parked;  // VM set while "all unregistered"

  std::size_t applied = 0;
  for (int round = 0; round < 240; ++round) {
    const std::uint64_t roll = rng.uniform(100);
    if (!parked.empty()) {
      s.vm = std::move(parked);  // the same VMs come back
      parked.clear();
    } else if (round % 80 == 79) {
      parked = std::move(s.vm);  // every VM gone: compute() emits nothing
      s.vm.clear();
    } else if (roll < 6) {
      s.total_tmem = kTotal / 2 + rng.uniform(kTotal);  // node quota lands
    } else if (roll < 10) {
      add_vm();
    } else if (roll < 14 && s.vm.size() > 1) {
      s.vm.erase(s.vm.begin() +
                 static_cast<std::ptrdiff_t>(rng.uniform(s.vm.size())));
    }
    if (roll < 70 && !s.vm.empty()) {
      // Demand churn on a small subset; the rest of the rounds are quiet.
      const std::size_t dirty = 1 + rng.uniform(2);
      for (std::size_t d = 0; d < dirty; ++d) {
        auto& vm = s.vm[rng.uniform(s.vm.size())];
        vm.puts_total = rng.uniform(50);
        vm.puts_succ = vm.puts_total - rng.uniform(vm.puts_total + 1) / 2;
        vm.cumul_puts_failed += vm.puts_total - vm.puts_succ;
        vm.tmem_used = rng.uniform(kTotal / 4);
      }
    }
    s.vm_count = static_cast<std::uint32_t>(s.vm.size());
    s.seq = static_cast<std::uint64_t>(round) + 1;
    s.when = static_cast<SimTime>(round) * kSecond;
    // One delivery in five is late enough to count as stale.
    const SimTime lag = rng.uniform(5) == 0 ? 3 * kSecond : kSecond / 5;
    now = std::max(now, s.when + lag);

    mm.on_stats(k.delta ? uplink.encode(s) : s);
    oracle.on_sample(s, now, k.audit);
    EXPECT_EQ(got.size(), oracle.msgs.size()) << where << " round " << round;
    if (got.size() != oracle.msgs.size()) return;

    // The hypervisor applies what was sent: the next sample reports it.
    for (; applied < got.size(); ++applied) {
      for (const hyper::MmTarget& t : got[applied].targets) {
        for (auto& vm : s.vm) {
          if (vm.vm_id == t.vm_id) vm.mm_target = t.mm_target;
        }
      }
    }
  }

  std::size_t got_bytes = 0;
  std::size_t want_bytes = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const hyper::TargetsMsg& a = got[i];
    const hyper::TargetsMsg& b = oracle.msgs[i];
    EXPECT_EQ(a.seq, b.seq) << where << " msg " << i;
    EXPECT_EQ(a.delta, b.delta) << where << " msg " << i;
    EXPECT_EQ(a.base_seq, b.base_seq) << where << " msg " << i;
    EXPECT_EQ(a.targets, b.targets) << where << " msg " << i;
    EXPECT_EQ(a.new_interval, b.new_interval) << where << " msg " << i;
    if (::testing::Test::HasFailure()) return;
    got_bytes += hyper::wire_size(a);
    want_bytes += hyper::wire_size(b);
  }
  EXPECT_EQ(got_bytes, want_bytes) << where;
  EXPECT_EQ(mm.targets_sent(), oracle.targets_sent) << where;
  EXPECT_EQ(mm.sends_suppressed(), oracle.sends_suppressed) << where;
  EXPECT_EQ(mm.targets_full_sends(), oracle.full_sends()) << where;
  EXPECT_EQ(mm.interval_msgs_sent(), oracle.interval_msgs_sent) << where;

  if (!k.audit) return;
  EXPECT_EQ(audit.size(), oracle.audits.size()) << where;
  if (audit.size() != oracle.audits.size()) return;
  for (std::size_t i = 0; i < audit.size(); ++i) {
    const obs::DecisionRecord& r = audit.records()[i];
    const OracleAudit& o = oracle.audits[i];
    const std::string at = where + " decision " + std::to_string(i);
    EXPECT_EQ(r.sent, o.sent) << at;
    EXPECT_EQ(r.suppressed, o.suppressed) << at;
    EXPECT_EQ(r.empty_output, o.empty_output) << at;
    EXPECT_EQ(r.send_seq, o.send_seq) << at;
    if (o.scratch.vms.empty()) {
      // The policy left the scratch empty: the MM synthesizes one
      // policy:diff verdict per target compute() returned.
      EXPECT_EQ(r.vms.size(), o.out.size()) << at;
      for (std::size_t v = 0; v < r.vms.size() && v < o.out.size(); ++v) {
        EXPECT_EQ(r.vms[v].vm, o.out[v].vm_id) << at;
        EXPECT_EQ(r.vms[v].target_after, o.out[v].mm_target) << at;
        EXPECT_STREQ(r.vms[v].condition, "policy:diff") << at;
      }
      if (::testing::Test::HasFailure()) return;
      continue;
    }
    EXPECT_EQ(r.renormalized, o.scratch.renormalized) << at;
    EXPECT_EQ(r.renorm_factor, o.scratch.renorm_factor) << at;
    EXPECT_EQ(r.vms.size(), o.scratch.vms.size()) << at;
    for (std::size_t v = 0; v < r.vms.size() && v < o.scratch.vms.size(); ++v) {
      expect_verdicts_equal(r.vms[v], o.scratch.vms[v], at);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

std::vector<PolicySpec> all_policies() {
  PolicySpec skip = PolicySpec::smart(0.75);
  skip.smart_config.stale_mode = StaleMode::kSkip;
  PolicySpec widen = PolicySpec::smart(2.0);
  widen.smart_config.stale_mode = StaleMode::kWiden;
  return {PolicySpec::greedy(),        PolicySpec::static_alloc(),
          PolicySpec::reconf_static(), PolicySpec::swap_rate(),
          PolicySpec::wss(),           PolicySpec::smart(0.75),
          PolicySpec::smart(6.0),      skip,
          widen};
}

class ManagerOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ManagerOracle, SameWireStreamAsClassicCompute) {
  const PolicySpec spec = all_policies().at(GetParam());
  std::uint64_t seed = 1000 * (GetParam() + 1);
  const std::vector<Knobs> encodings = {
      {false, 16}, {true, 1}, {true, 3}, {true, 16}};
  for (Knobs k : encodings) {
    for (const bool adaptive : {false, true}) {
      k.adaptive = adaptive;
      for (int rep = 0; rep < 3; ++rep) {
        ++seed;
        // With and without an attached audit: the audit must not change
        // what is sent.
        for (const bool audit : {false, true}) {
          k.audit = audit;
          run_stream(spec, k, seed);
          if (HasFailure()) return;
        }
      }
    }
  }
  // Suppression off: unchanged vectors go out again, as empty deltas.
  run_stream(spec, Knobs{true, 3, false, true, false}, ++seed);
}

INSTANTIATE_TEST_SUITE_P(Policies, ManagerOracle,
                         ::testing::Range<std::size_t>(0, 9));

}  // namespace
}  // namespace smartmem::mm
