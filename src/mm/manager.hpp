// The Memory Manager (MM) user-space process — Sections III-D and III-E.
//
// The MM runs in Xen's privileged domain. Once per sampling interval it
// receives a memstats sample from the TKM (netlink in the real system),
// records it into its history, runs the configured high-level policy and —
// only if some target changed since the last send — forwards the vector
// (or, with delta encoding, just the changed entries) back to the
// hypervisor through the TKM
// ("send_to_hypervisor ... If no changes are detected, then no transmission
//  takes place, avoiding unnecessary communication overhead").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "comm/delta.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "hyper/delta.hpp"
#include "hyper/memstats.hpp"
#include "mm/interval_controller.hpp"
#include "mm/policy.hpp"
#include "obs/audit.hpp"

namespace smartmem::obs {
class Registry;
class TraceRecorder;
}

namespace smartmem::mm {

struct ManagerConfig {
  /// Suppress re-sending an unchanged target vector (paper behaviour).
  bool suppress_unchanged = true;
  /// History depth in samples.
  std::size_t history_depth = 120;
  /// The hypervisor's *initial* sampling interval. Used to normalize the
  /// stats-staleness readings of samples that do not carry their own
  /// capture interval (MemStats::interval == 0, i.e. hand-built samples)
  /// and as the adaptive controller's starting point.
  SimTime sample_interval = kSecond;
  /// Adaptive sampling-interval controller (disabled by default: the
  /// paper's fixed cadence, byte-identical message stream).
  IntervalControllerConfig adaptive;

  /// Delta-encoded control messages (DESIGN §12): accept MemStats deltas
  /// on the uplink and frame outgoing TargetsMsgs as changed-entries-only
  /// with periodic full resyncs. Mirrored from CommConfig::delta by the
  /// node wiring so both endpoints of each hop agree. Off by default
  /// (every send carries the full vector).
  comm::DeltaConfig delta;
};

class MemoryManager {
 public:
  /// `sender` delivers a sequenced mm_out message towards the hypervisor
  /// (in the full stack this is Tkm::submit_targets, i.e. the downlink
  /// channel). The MM stamps a fresh monotonic seq on every transmission.
  using TargetSender = std::function<void(const hyper::TargetsMsg&)>;

  MemoryManager(PolicyPtr policy, PageCount total_tmem,
                ManagerConfig config = {});

  void set_sender(TargetSender sender) { sender_ = std::move(sender); }

  /// Entry point: one memstats sample arriving from the TKM. Sequenced
  /// samples (seq != 0) that are older than — or duplicates of — the newest
  /// sample already seen are discarded: a faulty uplink must not fold stale
  /// intervals into the history the policies read.
  void on_stats(const hyper::MemStats& stats);

  const Policy& policy() const { return *policy_; }
  Policy& policy() { return *policy_; }
  const StatsHistory& history() const { return history_; }

  std::uint64_t samples_seen() const { return samples_seen_; }
  std::uint64_t targets_sent() const { return targets_sent_; }
  std::uint64_t sends_suppressed() const { return sends_suppressed_; }
  std::uint64_t stale_samples_dropped() const {
    return stale_samples_dropped_;
  }
  std::uint64_t last_sample_seq() const { return last_sample_seq_; }

  // ---- Fleet-scale control plane (DESIGN §12) ------------------------------

  /// The target vector last sent to the hypervisor, in vm_id order (empty
  /// before the first send).
  const hyper::MmOut& materialized_targets() const { return mat_out_; }
  /// Uplink delta messages dropped on a broken chain / stale seq inside the
  /// materialized view (0 when delta decoding is off).
  std::uint64_t stats_chain_breaks() const {
    return stats_view_.chain_breaks();
  }
  /// Downlink target sends that carried a full snapshot (delta mode only).
  std::uint64_t targets_full_sends() const { return downlink_full_sends_; }
  /// Wall-clock nanoseconds spent inside policy decides, and their count —
  /// the mm_decide_ns probe. Never fed back into the simulation.
  std::uint64_t decide_ns_total() const { return decide_ns_total_; }
  std::uint64_t decide_count() const { return decide_count_; }

  // ---- Adaptive sampling interval ------------------------------------------

  /// Installs the uplink congestion probe feeding the IntervalController
  /// (fills the uplink fields of the signal; failed puts come from the
  /// sample itself). The node wiring points this at the TKM's uplink.
  using PressureProbe = std::function<void(IntervalSignal&)>;
  void set_pressure_probe(PressureProbe probe) {
    pressure_probe_ = std::move(probe);
  }

  /// nullptr when the adaptive controller is disabled.
  const IntervalController* interval_controller() const {
    return interval_ctl_ ? &*interval_ctl_ : nullptr;
  }

  /// Interval currently requested of the hypervisor (the configured one
  /// until the controller first changes it).
  SimTime current_interval() const {
    return interval_ctl_ ? interval_ctl_->current() : config_.sample_interval;
  }

  /// Downlink messages whose only payload was an interval update (the
  /// policy's targets were suppressed or empty that sample).
  std::uint64_t interval_msgs_sent() const { return interval_msgs_sent_; }

  // ---- Observability --------------------------------------------------------

  /// Installs a simulated-time source. Needed for staleness readings and
  /// the decision trace spans; without it stats_age_intervals stays 0.
  using Clock = std::function<SimTime()>;
  void set_clock(Clock clock) { clock_ = std::move(clock); }

  /// Attaches the trace recorder (policy invocations become spans on an
  /// "mm" track) and/or the decision audit log. nullptr disables either.
  void attach_obs(obs::TraceRecorder* trace, obs::AuditLog* audit);

  /// Registers MM counters plus the stats-staleness gauge into `reg`.
  void register_metrics(obs::Registry& reg) const;

  /// Staleness of the most recently delivered sample, measured at delivery
  /// time, in sampling intervals — normalized by the interval in effect
  /// when that sample was *captured* (MemStats::interval), so a resize
  /// while samples are in flight cannot mis-normalize them.
  double last_stats_age_intervals() const { return last_stats_age_; }

 private:
  /// Fills `record` from the scratch the policy populated, or synthesizes
  /// generic before/after verdicts when the policy ignored the scratch.
  void fill_audit_verdicts(obs::DecisionRecord& record,
                           const hyper::MemStats& stats,
                           const hyper::MmOut& out);

  /// Ships a pure interval update (no targets) downlink. No-op when
  /// `interval` is 0.
  void send_interval_update(SimTime interval);

  /// Everything after uplink decode: staleness, policy decide, adaptive
  /// cadence, audit, suppression and the (full or delta) downlink send.
  void process_sample(const hyper::MemStats& stats);

  PolicyPtr policy_;
  PageCount total_tmem_;
  ManagerConfig config_;
  StatsHistory history_;
  TargetSender sender_;
  std::uint64_t samples_seen_ = 0;
  std::uint64_t targets_sent_ = 0;
  std::uint64_t sends_suppressed_ = 0;
  std::uint64_t last_sample_seq_ = 0;
  std::uint64_t stale_samples_dropped_ = 0;
  std::uint64_t next_send_seq_ = 0;
  Clock clock_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::AuditLog* audit_ = nullptr;
  std::uint16_t mm_track_ = 0;
  obs::PolicyAuditScratch scratch_;  // reused across decisions
  SimTime last_stats_when_ = -1;     // capture time of last delivered sample
  SimTime last_stats_interval_ = 0;  // interval in effect at that capture
  double last_stats_age_ = 0.0;
  /// Applied-sample age at delivery, in capture intervals — one entry per
  /// processed sample, so the exported distribution says how stale the
  /// decisions actually ran, not just the latest reading. Fed only while a
  /// registry is attached (process_sample is otherwise obs-free).
  Histogram stats_age_hist_{0.0, 4.0, 32};
  mutable bool metrics_attached_ = false;
  std::optional<IntervalController> interval_ctl_;
  PressureProbe pressure_probe_;
  std::uint64_t interval_msgs_sent_ = 0;

  // ---- Fleet-scale control plane (DESIGN §12) ------------------------------
  // Uplink decode: materialized sample (delta encoding only).
  hyper::StatsDeltaView stats_view_;
  // Downlink: the last sent vector, and the entries of the current output
  // that differ from it (the payload of a delta frame).
  hyper::MmOut mat_out_;
  hyper::MmOut changed_;
  std::uint64_t downlink_sends_ = 0;
  std::uint64_t downlink_full_sends_ = 0;
  std::uint64_t last_downlink_seq_ = 0;
  std::uint64_t decide_ns_total_ = 0;
  std::uint64_t decide_count_ = 0;
};

}  // namespace smartmem::mm
