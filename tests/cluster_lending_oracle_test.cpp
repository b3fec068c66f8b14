// Settlement oracle: LendingBroker::sync_window() settles only the dirty
// borrower partitions and rewrites a donor's credit column only when its
// pool moved. This test keeps the dense O(nodes^2) settlement (every
// credit and pending-release counter pooled, zeroed and re-split by
// largest remainder at every barrier) as a reference, drives two identical
// racks through the same seeded mix of placements, flushes, ephemeral-hit
// consumes, releases, guest puts, quota shrinks/grows and idle barriers,
// settles one rack with each, and requires the two to agree on every
// broker and donor counter after every barrier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/lending.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "hyper/hypervisor.hpp"
#include "lending_probe.hpp"
#include "sim/simulator.hpp"

namespace smartmem::cluster {

/// Test-only reference settlement: the broker's historic dense barrier.
struct SettlementOracle {
  /// Historic even split: largest-remainder apportionment over uniform
  /// weights (allocates and sorts, like the code it replaced).
  static std::vector<PageCount> split(PageCount pool, std::size_t n) {
    std::vector<PageCount> share(n, 0);
    if (n == 0 || pool == 0) return share;
    std::vector<std::uint64_t> frac(n, 0);
    PageCount assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      share[i] = pool / n;
      frac[i] = pool % n;
      assigned += share[i];
    }
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (frac[a] != frac[b]) return frac[a] > frac[b];
      return a < b;
    });
    for (std::size_t k = 0; assigned < pool; ++k) {
      share[order[k]] += 1;
      ++assigned;
    }
    return share;
  }

  static void sync_window(LendingBroker& br) {
    const NodeId n = static_cast<NodeId>(br.hyps_.size());

    // 1. Pool every partition's unused credit and freed frames.
    std::vector<PageCount> credit_pool(n, 0);
    std::vector<PageCount> freed(n, 0);
    for (NodeId b = 0; b < n; ++b) {
      LendingBroker::NodeState& st = br.state_[b];
      st.dirty = false;
      for (NodeId d = 0; d < n; ++d) {
        credit_pool[d] += st.credit[d];
        st.credit[d] = 0;
        freed[d] += st.pending_release[d];
        st.pending_release[d] = 0;
      }
    }
    for (NodeId d = 0; d < n; ++d) {
      if (freed[d] > 0) br.hyps_[d]->host_unlease(freed[d]);
    }

    // 2. Entitlement pressure: shed credit, then recall.
    for (NodeId d = 0; d < n; ++d) {
      const hyper::Hypervisor& hyp = *br.hyps_[d];
      const PageCount phys = hyp.total_tmem();
      const PageCount quota = hyp.node_quota();
      const PageCount entitlement =
          quota == kUnlimitedTarget ? phys : std::min(quota, phys);
      const PageCount cap = phys > entitlement ? phys - entitlement : 0;
      const PageCount lent = hyp.lent_pages();
      if (lent <= cap) continue;
      PageCount excess = lent - cap;
      const PageCount shed = std::min(excess, credit_pool[d]);
      if (shed > 0) {
        br.hyps_[d]->host_unlease(shed);
        credit_pool[d] -= shed;
        excess -= shed;
      }
      if (excess > 0) br.recall_lent(d, excess);
    }

    // 3. Top up every lease and re-split every pool.
    for (NodeId d = 0; d < n; ++d) {
      credit_pool[d] += br.hyps_[d]->host_lease(br.hyps_[d]->lendable_pages());
      if (credit_pool[d] == 0) continue;
      const std::vector<PageCount> share = split(credit_pool[d], n - 1);
      std::size_t k = 0;
      for (NodeId b = 0; b < n; ++b) {
        if (b != d) br.state_[b].credit[d] = share[k++];
      }
    }

    PageCount total = 0;
    for (const LendingBroker::NodeState& s : br.state_) {
      total += s.borrowed_total;
    }
    br.peak_borrowed_ = std::max(br.peak_borrowed_, total);
  }
};

namespace {

using tmem::PoolType;

constexpr VmId kVm = 1;

/// One rack: N hypervisors on one simulator behind a broker.
struct Rack {
  explicit Rack(const std::vector<PageCount>& phys) {
    std::vector<hyper::Hypervisor*> ptrs;
    for (const PageCount pages : phys) {
      hyper::HypervisorConfig cfg;
      cfg.total_tmem_pages = pages;
      hyps.push_back(std::make_unique<hyper::Hypervisor>(sim, cfg));
      ptrs.push_back(hyps.back().get());
    }
    broker = std::make_unique<LendingBroker>(ptrs);
    for (NodeId i = 0; i < hyps.size(); ++i) {
      hyps[i]->register_vm(kVm);
      hyps[i]->set_remote_tmem(broker->port(i));
    }
  }

  sim::Simulator sim;
  std::vector<std::unique_ptr<hyper::Hypervisor>> hyps;
  std::unique_ptr<LendingBroker> broker;
};

PageCount pick_quota(Rng& rng, PageCount phys) {
  switch (rng.uniform(6)) {
    case 0: return phys / 4;
    case 1: return phys / 2;
    case 2: return 3 * phys / 4;
    case 3: return phys;
    case 4: return 2 * phys;
    default: return kUnlimitedTarget;
  }
}

/// Asserts the two racks agree on everything the settlement writes.
void expect_same(const Rack& real, const Rack& ref, int window) {
  SCOPED_TRACE(strfmt("after barrier %d", window));
  const NodeId n = static_cast<NodeId>(real.hyps.size());
  const LendingBroker& a = *real.broker;
  const LendingBroker& b = *ref.broker;
  for (NodeId bo = 0; bo < n; ++bo) {
    for (NodeId d = 0; d < n; ++d) {
      ASSERT_EQ(LendingProbe::credit(a, bo, d), LendingProbe::credit(b, bo, d))
          << "credit[" << bo << "][" << d << "]";
      ASSERT_EQ(LendingProbe::pending_release(a, bo, d),
                LendingProbe::pending_release(b, bo, d))
          << "pending_release[" << bo << "][" << d << "]";
    }
    ASSERT_EQ(a.borrowed_total(bo), b.borrowed_total(bo)) << "node " << bo;
  }
  for (NodeId d = 0; d < n; ++d) {
    ASSERT_EQ(real.hyps[d]->lent_pages(), ref.hyps[d]->lent_pages())
        << "donor " << d;
    ASSERT_EQ(real.hyps[d]->leased_pages(), ref.hyps[d]->leased_pages())
        << "donor " << d;
    ASSERT_EQ(real.hyps[d]->leased_pages(), LendingProbe::lease_backed(a, d))
        << "lease identity, donor " << d;
    ASSERT_EQ(real.hyps[d]->free_tmem(), ref.hyps[d]->free_tmem())
        << "node " << d;
  }
  ASSERT_EQ(a.peak_borrowed(), b.peak_borrowed());
  ASSERT_EQ(a.recalls(), b.recalls());
  ASSERT_EQ(a.recall_migrations(), b.recall_migrations());
  ASSERT_EQ(a.borrow_placements(), b.borrow_placements());
  ASSERT_EQ(a.failed_placements(), b.failed_placements());
}

struct Totals {
  std::uint64_t placements = 0;
  std::uint64_t recalls = 0;
  std::uint64_t quota_changes = 0;
  std::uint64_t idle_windows = 0;
};

void run_oracle(NodeId n, std::uint64_t seed, Totals& totals) {
  SCOPED_TRACE(strfmt("nodes=%u seed=%llu", n,
                      static_cast<unsigned long long>(seed)));
  Rng rng(seed);
  std::vector<PageCount> phys(n);
  for (PageCount& p : phys) p = 16 + rng.uniform(49);
  Rack real(phys);
  Rack ref(phys);

  // Apply one mutation to both racks; the results must agree op by op.
  auto both = [&](auto&& op) {
    const auto x = op(real);
    const auto y = op(ref);
    ASSERT_EQ(x, y);
  };
  for (NodeId i = 0; i < n; ++i) {
    const PageCount q = pick_quota(rng, phys[i]);
    both([&](Rack& r) {
      r.hyps[i]->set_node_quota(q);
      return 0;
    });
  }

  for (int window = 0; window < 80; ++window) {
    const bool idle = rng.chance(0.25);
    const std::uint64_t ops = idle ? 0 : rng.uniform(24);
    if (idle) ++totals.idle_windows;
    for (std::uint64_t op = 0; op < ops; ++op) {
      const NodeId node = static_cast<NodeId>(rng.uniform(n));
      const PoolType type =
          rng.chance(0.5) ? PoolType::kPersistent : PoolType::kEphemeral;
      const std::uint64_t object = 1 + rng.uniform(4);
      const auto index = static_cast<std::uint32_t>(rng.uniform(16));
      const std::uint64_t payload = rng.next();
      const std::uint64_t kind = rng.uniform(100);
      if (kind < 40) {  // placement (fresh or replacement)
        both([&](Rack& r) {
          return r.broker->port(node)->remote_put(kVm, type, object, index,
                                                  payload);
        });
      } else if (kind < 50) {  // guest flush of a borrowed page
        both([&](Rack& r) {
          return r.broker->port(node)->remote_flush(kVm, type, object,
                                                    index);
        });
      } else if (kind < 53) {  // whole-object flush
        both([&](Rack& r) {
          return r.broker->port(node)->remote_flush_object(kVm, type, object);
        });
      } else if (kind < 65) {  // get: an ephemeral hit consumes the page
        both([&](Rack& r) {
          return r.broker->port(node)->remote_get(kVm, type, object, index);
        });
      } else if (kind < 68) {  // quota-shrink release of ephemeral pages
        const PageCount k = rng.uniform(4);
        both([&](Rack& r) {
          return r.broker->port(node)->release_borrowed(k);
        });
      } else if (kind < 85) {  // the node's own guest fills/frees frames
        const std::uint64_t gobj = 100 + rng.uniform(3);
        if (rng.chance(0.7)) {
          both([&](Rack& r) {
            return r.hyps[node]->frontswap_put(kVm, gobj, index, payload);
          });
        } else {
          both([&](Rack& r) {
            return r.hyps[node]->frontswap_flush(kVm, gobj, index);
          });
        }
      } else {  // quota shrink or grow (a grow makes the donor recall)
        const PageCount q = pick_quota(rng, phys[node]);
        ++totals.quota_changes;
        both([&](Rack& r) {
          r.hyps[node]->set_node_quota(q);
          return 0;
        });
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    real.broker->sync_window();
    SettlementOracle::sync_window(*ref.broker);
    expect_same(real, ref, window);
    if (::testing::Test::HasFatalFailure()) return;
  }
  totals.placements += real.broker->borrow_placements();
  totals.recalls += real.broker->recalls();
}

TEST(LendingSettlementOracleTest, DirtySetSettlementMatchesDenseReference) {
  Totals totals;
  for (NodeId n = 2; n <= 9; ++n) {  // n = 2: one borrower per donor (m = 1)
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      run_oracle(n, seed * 1000 + n, totals);
      if (HasFatalFailure()) return;
    }
  }
  // The mix must actually exercise what the settlement handles.
  EXPECT_GT(totals.placements, 0u);
  EXPECT_GT(totals.recalls, 0u);
  EXPECT_GT(totals.quota_changes, 0u);
  EXPECT_GT(totals.idle_windows, 0u);
}

}  // namespace
}  // namespace smartmem::cluster
