// Read-only view into LendingBroker's per-borrower ledgers (credit, pending
// releases, placements per donor), so tests can check the lease identity
//   leased_pages(d) == sum over b of (borrowed_from(b, d) + credit(b, d)
//                                     + pending_release(b, d))
// against the donors' real lease depth. A friend of the broker.
#pragma once

#include <cstddef>

#include "cluster/lending.hpp"

namespace smartmem::cluster {

struct LendingProbe {
  static std::size_t nodes(const LendingBroker& br) {
    return br.state_.size();
  }
  static PageCount credit(const LendingBroker& br, NodeId b, NodeId d) {
    return br.state_[b].credit[d];
  }
  static PageCount pending_release(const LendingBroker& br, NodeId b,
                                   NodeId d) {
    return br.state_[b].pending_release[d];
  }
  /// Pages borrower `b` currently holds on donor `d`.
  static PageCount borrowed_from(const LendingBroker& br, NodeId b, NodeId d) {
    PageCount n = 0;
    for (const auto& [key, entry] : br.state_[b].index) {
      if (entry.donor == d) ++n;
    }
    return n;
  }
  /// The lease depth the identity predicts for donor `d`.
  static PageCount lease_backed(const LendingBroker& br, NodeId d) {
    PageCount total = 0;
    for (NodeId b = 0; b < br.state_.size(); ++b) {
      if (b == d) continue;
      total += borrowed_from(br, b, d) + credit(br, b, d) +
               pending_release(br, b, d);
    }
    return total;
  }
};

}  // namespace smartmem::cluster
