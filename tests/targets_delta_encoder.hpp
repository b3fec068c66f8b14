// Reference TargetsMsg delta framer for tests (DESIGN §12).
//
// Diffs each full target vector against the last one it encoded and emits
// a delta chained to it via base_seq; every resync_every-th send (counted
// per send, starting with the first) and every VM-set change is a full
// snapshot. The MemoryManager frames its downlink itself; this framer is
// the reference it is checked against.
#pragma once

#include <cstdint>

#include "comm/delta.hpp"
#include "hyper/memstats.hpp"

namespace smartmem::hyper {

class TargetsDeltaEncoder {
 public:
  explicit TargetsDeltaEncoder(comm::DeltaConfig cfg) : cfg_(cfg) {}

  /// Encodes the full target vector `full` under sequence number `seq`.
  TargetsMsg encode(std::uint64_t seq, const MmOut& full,
                    SimTime new_interval) {
    const bool cadence_full =
        cfg_.resync_every <= 1 || (sends_ % cfg_.resync_every) == 0;
    ++sends_;
    TargetsMsg out;
    out.seq = seq;
    out.new_interval = new_interval;
    if (cadence_full || !same_ids(last_, full)) {
      out.targets = full;
      ++full_sends_;
    } else {
      out.delta = true;
      out.base_seq = last_seq_;
      for (std::size_t i = 0; i < full.size(); ++i) {
        if (!(full[i] == last_[i])) out.targets.push_back(full[i]);
      }
    }
    last_ = full;
    last_seq_ = seq;
    return out;
  }

  /// Records an interval-only send (empty targets, delta=false) so the next
  /// delta chains onto its seq.
  void note_interval_send(std::uint64_t seq) { last_seq_ = seq; }

  std::uint64_t sends() const { return sends_; }
  std::uint64_t full_sends() const { return full_sends_; }

 private:
  static bool same_ids(const MmOut& a, const MmOut& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].vm_id != b[i].vm_id) return false;
    }
    return true;
  }

  comm::DeltaConfig cfg_;
  MmOut last_;  // target vector as of the previous send
  std::uint64_t last_seq_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t full_sends_ = 0;
};

}  // namespace smartmem::hyper
