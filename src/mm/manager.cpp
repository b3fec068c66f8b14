#include "mm/manager.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace smartmem::mm {

namespace {
constexpr auto kLogComp = log::Component::kMm;
}

MemoryManager::MemoryManager(PolicyPtr policy, PageCount total_tmem,
                             ManagerConfig config)
    : policy_(std::move(policy)),
      total_tmem_(total_tmem),
      config_(config),
      history_(config.history_depth),
      last_stats_interval_(config.sample_interval) {
  if (!policy_) {
    throw std::invalid_argument("MemoryManager: null policy");
  }
  if (config_.adaptive.enabled) {
    interval_ctl_.emplace(config_.adaptive, config_.sample_interval);
  }
}

void MemoryManager::attach_obs(obs::TraceRecorder* trace,
                               obs::AuditLog* audit) {
  trace_ = trace;
  audit_ = audit;
  if (trace_ != nullptr) mm_track_ = trace_->register_track("mm", "policy");
}

void MemoryManager::register_metrics(obs::Registry& reg) const {
  reg.add_counter("mm.samples_seen", &samples_seen_);
  reg.add_counter("mm.targets_sent", &targets_sent_);
  reg.add_counter("mm.sends_suppressed", &sends_suppressed_);
  reg.add_counter("mm.stale_samples_dropped", &stale_samples_dropped_);
  reg.add_gauge("mm.last_sample_seq",
                [this] { return static_cast<double>(last_sample_seq_); });
  // Derived staleness gauge: age *now* of the newest delivered sample, in
  // sampling intervals — normalized by the interval in effect when that
  // sample was captured, so an adaptive resize mid-flight cannot skew the
  // reading. NaN until the first delivery or without a clock.
  reg.add_gauge("mm.stats_staleness_intervals", [this] {
    if (!clock_ || last_stats_when_ < 0 || last_stats_interval_ <= 0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return static_cast<double>(clock_() - last_stats_when_) /
           static_cast<double>(last_stats_interval_);
  });
  // Adaptive control plane: decisions altered on stale samples, plus the
  // controller's cadence state (both flat when the features are off).
  reg.add_counter("mm.stale_decisions", [this] {
    return static_cast<double>(policy_->stale_decisions());
  });
  reg.add_counter("mm.interval_changes", [this] {
    return interval_ctl_ ? static_cast<double>(interval_ctl_->changes()) : 0.0;
  });
  reg.add_counter("mm.interval_msgs_sent", &interval_msgs_sent_);
  // Fleet-scale control plane (DESIGN §12): delta decode/encode health and
  // the decide-time probe. Flat when delta encoding is off.
  metrics_attached_ = true;
  reg.add_histogram("mm.stats_age_intervals", &stats_age_hist_);
  reg.add_counter("mm.stats_chain_breaks",
                  [this] { return static_cast<double>(stats_chain_breaks()); });
  reg.add_counter("mm.targets_full_sends", &downlink_full_sends_);
  reg.add_counter("mm.decide_ns_total", &decide_ns_total_);
  reg.add_gauge("mm.sample_interval_s",
                [this] { return to_seconds(current_interval()); });
}

void MemoryManager::fill_audit_verdicts(obs::DecisionRecord& record,
                                        const hyper::MemStats& stats,
                                        const hyper::MmOut& out) {
  if (!scratch_.vms.empty()) {
    record.renormalized = scratch_.renormalized;
    record.renorm_factor = scratch_.renorm_factor;
    record.vms = scratch_.vms;
    return;
  }
  // Policy did not fill the scratch: synthesize a before/after diff so the
  // record still names a verdict per VM.
  record.vms.reserve(out.size());
  for (const hyper::MmTarget& t : out) {
    obs::VmVerdict v;
    v.vm = t.vm_id;
    v.target_after = t.mm_target;
    v.condition = "policy:diff";
    for (const hyper::VmMemStats& s : stats.vm) {
      if (s.vm_id != t.vm_id) continue;
      v.target_before = s.mm_target;
      v.failed_puts = s.puts_total - s.puts_succ;
      v.tmem_used = s.tmem_used;
      if (s.mm_target != kUnlimitedTarget) {
        v.slack_pages = static_cast<double>(s.mm_target) -
                        static_cast<double>(s.tmem_used);
      }
      break;
    }
    if (v.target_before == kUnlimitedTarget) {
      v.verdict = t.mm_target == kUnlimitedTarget ? "hold" : "limit";
    } else if (t.mm_target > v.target_before) {
      v.verdict = "grow";
    } else if (t.mm_target < v.target_before) {
      v.verdict = "shrink";
    } else {
      v.verdict = "hold";
    }
    record.vms.push_back(v);
  }
}

void MemoryManager::on_stats(const hyper::MemStats& stats) {
  if (stats.seq != 0) {
    if (stats.seq <= last_sample_seq_) {
      ++stale_samples_dropped_;
      log::debug(kLogComp, "dropped stale memstats seq %llu (last %llu)",
                 static_cast<unsigned long long>(stats.seq),
                 static_cast<unsigned long long>(last_sample_seq_));
      return;
    }
    // The materialized view (below) advances last_sample_seq_ only once the
    // message actually applies: a delta on a broken chain must stay
    // droppable without blocking its retransmitted predecessors.
  }
  if (!config_.delta.enabled) {
    if (stats.seq != 0) last_sample_seq_ = stats.seq;
    ++samples_seen_;
    history_.record(stats);
    process_sample(stats);
    return;
  }
  if (!stats_view_.apply(stats)) {
    // Broken delta chain: counted in the view, recovery is the TKM's next
    // full snapshot. (Stale seqs were already dropped above.)
    log::debug(kLogComp, "dropped delta memstats seq %llu: base %llu",
               static_cast<unsigned long long>(stats.seq),
               static_cast<unsigned long long>(stats.base_seq));
    return;
  }
  if (stats.seq != 0) last_sample_seq_ = stats.seq;
  ++samples_seen_;
  history_.record(stats_view_.view());
  process_sample(stats_view_.view());
}

void MemoryManager::process_sample(const hyper::MemStats& stats) {
  const SimTime now = clock_ ? clock_() : stats.when;
  last_stats_when_ = stats.when;
  // Normalize staleness by the interval in effect when *this* sample was
  // captured, not the (possibly since-resized) configured one; samples that
  // do not carry their interval fall back to the configured value.
  last_stats_interval_ =
      stats.interval > 0 ? stats.interval : config_.sample_interval;
  last_stats_age_ =
      last_stats_interval_ > 0
          ? static_cast<double>(now - stats.when) /
                static_cast<double>(last_stats_interval_)
          : 0.0;
  if (metrics_attached_) stats_age_hist_.add(last_stats_age_);

  PolicyContext ctx;
  // A rack-managed hypervisor reports its quota-capped capacity in each
  // sample; the per-VM policy must renormalize (Eq. 2) under *that*, not
  // the static physical size. An unmanaged hypervisor reports exactly the
  // physical size, so this is identical on the single-node path; the
  // fallback covers synthetic MemStats from tests that leave the field 0.
  ctx.total_tmem = stats.total_tmem != 0 ? stats.total_tmem : total_tmem_;
  ctx.history = &history_;
  ctx.stats_age_intervals = last_stats_age_;
  if (audit_ != nullptr) {
    scratch_.clear();
    ctx.audit = &scratch_;
  }

  const auto decide_start = std::chrono::steady_clock::now();
  hyper::MmOut out = policy_->compute(stats, ctx);
  decide_ns_total_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - decide_start)
          .count());
  ++decide_count_;

  // Adaptive cadence: feed the controller this sample's pressure signal and
  // remember any interval change so it can ride the outgoing message (or a
  // dedicated one when the targets path transmits nothing).
  SimTime interval_update = 0;
  if (interval_ctl_) {
    IntervalSignal sig;
    sig.sample_age_intervals = last_stats_age_;
    for (const auto& vm : stats.vm) {
      sig.failed_puts += vm.puts_total - vm.puts_succ;
    }
    if (pressure_probe_) pressure_probe_(sig);
    if (auto changed = interval_ctl_->on_sample(now, sig)) {
      interval_update = *changed;
      if (trace_ != nullptr && trace_->enabled(obs::kCatMm)) {
        trace_->instant(obs::kCatMm, mm_track_, "interval_change", now,
                        {{"interval_s", to_seconds(interval_update)},
                         {"failed_puts",
                          static_cast<double>(sig.failed_puts)},
                         {"uplink_in_flight",
                          static_cast<double>(sig.uplink_in_flight)}});
      }
    }
  }

  if (trace_ != nullptr && trace_->enabled(obs::kCatMm)) {
    // Span from sample capture to decision: its length is the staleness the
    // decision acted under (uplink latency included).
    trace_->span(obs::kCatMm, mm_track_, "policy_decide", stats.when,
                 now - stats.when,
                 {{"seq", static_cast<double>(stats.seq)},
                  {"targets", static_cast<double>(out.size())},
                  {"age_intervals", last_stats_age_}});
  }

  obs::DecisionRecord record;
  const bool auditing = audit_ != nullptr;
  if (auditing) {
    record.stats_seq = stats.seq;
    record.stats_when = stats.when;
    record.decided_at = now;
    record.stats_age_intervals = last_stats_age_;
    record.policy = policy_->name();
    fill_audit_verdicts(record, stats, out);
  }

  if (out.empty()) {
    if (auditing) {
      record.empty_output = true;
      audit_->append(std::move(record));
    }
    send_interval_update(interval_update);
    return;
  }

  // Diff against the last sent vector: a different VM set (`reset`) forces
  // a full send; otherwise the entries that moved are the delta payload.
  bool reset = out.size() != mat_out_.size();
  changed_.clear();
  for (std::size_t i = 0; !reset && i < out.size(); ++i) {
    reset = out[i].vm_id != mat_out_[i].vm_id;
    if (out[i].mm_target != mat_out_[i].mm_target) changed_.push_back(out[i]);
  }

  // send_to_hypervisor(): skip transmission when nothing changed.
  if (config_.suppress_unchanged && !reset && changed_.empty()) {
    ++sends_suppressed_;
    if (auditing) {
      record.suppressed = true;
      audit_->append(std::move(record));
    }
    send_interval_update(interval_update);
    return;
  }
  ++targets_sent_;
  if (auditing) {
    record.sent = true;
    record.send_seq = next_send_seq_ + 1;
    audit_->append(std::move(record));
  }
  mat_out_ = std::move(out);
  if (!sender_) {
    log::warn(kLogComp, "no sender attached; targets dropped");
    return;
  }
  hyper::TargetsMsg msg;
  msg.seq = ++next_send_seq_;
  msg.new_interval = interval_update;
  // Full on the resync cadence (counted per send) and after a VM-set
  // change; otherwise only the entries that changed since the last send,
  // chained onto the previous downlink seq.
  const bool full = !config_.delta.enabled || reset ||
                    config_.delta.resync_every <= 1 ||
                    downlink_sends_ % config_.delta.resync_every == 0;
  if (config_.delta.enabled) {
    ++downlink_sends_;
    if (full) ++downlink_full_sends_;
  }
  if (full) {
    msg.targets = mat_out_;
  } else {
    msg.delta = true;
    msg.base_seq = last_downlink_seq_;
    msg.targets = changed_;
  }
  last_downlink_seq_ = msg.seq;
  sender_(msg);
}

void MemoryManager::send_interval_update(SimTime interval) {
  // A cadence change decided on a sample whose targets path transmitted
  // nothing still has to reach the hypervisor: ship it as a pure interval
  // message (empty targets) on the same sequenced downlink.
  if (interval <= 0) return;
  if (!sender_) {
    log::warn(kLogComp, "no sender attached; interval update dropped");
    return;
  }
  ++interval_msgs_sent_;
  // Interval-only messages are always full-framed (no entries to delta),
  // but they advance the downlink seq, so the next delta must chain onto
  // this seq — the hypervisor's last applied seq moves when it lands.
  sender_(hyper::TargetsMsg{++next_send_seq_, {}, interval});
  last_downlink_seq_ = next_send_seq_;
}

}  // namespace smartmem::mm
