// LendingBroker: cross-node placement against window credit, victim-cache
// semantics for ephemeral-typed borrows, flush forwarding, quota-driven
// release, recall migration, and the donor-side lendable/entitlement and
// lease arithmetic. Credit is granted and frees settle only at barriers
// (sync_window), exactly as between engine windows in a cluster.
#include "cluster/lending.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hyper/hypervisor.hpp"
#include "lending_probe.hpp"
#include "sim/simulator.hpp"
#include "tmem/store.hpp"

namespace smartmem::cluster {
namespace {

using tmem::PoolType;

constexpr VmId kVm = 1;
constexpr PageCount kPhys = 64;

hyper::HypervisorConfig hyp_config(PageCount pages) {
  hyper::HypervisorConfig cfg;
  cfg.total_tmem_pages = pages;
  return cfg;
}

/// Asserts the lease identity for every donor of `broker`.
void expect_lease_identity(const LendingBroker& broker,
                           const std::vector<const hyper::Hypervisor*>& hyps) {
  for (NodeId d = 0; d < hyps.size(); ++d) {
    EXPECT_EQ(hyps[d]->leased_pages(), LendingProbe::lease_backed(broker, d))
        << "donor " << d;
  }
}

/// Two-node rig: node 0 borrows, node 1 donates. The donor's quota is set
/// to half its physical capacity — entitlement = min(quota, phys), and only
/// frames beyond the entitlement reserve are lendable, so an
/// unlimited-quota donor can never lend. A first barrier leases the
/// donor's lendable frames and grants them to the borrower as credit.
class LendingBrokerTest : public ::testing::Test {
 protected:
  LendingBrokerTest()
      : borrower_(sim_, hyp_config(kPhys)),
        donor_(sim_, hyp_config(kPhys)),
        broker_({&borrower_, &donor_}) {
    borrower_.register_vm(kVm);
    donor_.register_vm(kVm);
    borrower_.set_remote_tmem(broker_.port(0));
    donor_.set_remote_tmem(broker_.port(1));
    donor_.set_node_quota(kPhys / 2);
    broker_.sync_window();
  }

  /// Window barrier, then the lease identity must hold.
  void settle() {
    broker_.sync_window();
    expect_lease_identity(broker_, {&borrower_, &donor_});
  }
  PageCount credit() const { return LendingProbe::credit(broker_, 0, 1); }
  PageCount pending() const {
    return LendingProbe::pending_release(broker_, 0, 1);
  }

  sim::Simulator sim_;
  hyper::Hypervisor borrower_;
  hyper::Hypervisor donor_;
  LendingBroker broker_;
};

TEST_F(LendingBrokerTest, RequiresAtLeastTwoNodes) {
  EXPECT_THROW(LendingBroker({&borrower_}), std::invalid_argument);
}

TEST_F(LendingBrokerTest, FirstBarrierLeasesTheLendableFramesAsCredit) {
  EXPECT_EQ(donor_.leased_pages(), kPhys / 2);
  EXPECT_EQ(donor_.lent_pages(), kPhys / 2);
  EXPECT_EQ(donor_.lendable_pages(), 0u);
  EXPECT_EQ(credit(), kPhys / 2);
  EXPECT_EQ(borrower_.leased_pages(), 0u);  // unlimited quota: lends nothing
  expect_lease_identity(broker_, {&borrower_, &donor_});
}

TEST_F(LendingBrokerTest, DonorWithUnlimitedQuotaLendsNothing) {
  // The grown entitlement sheds the unused credit at the next barrier.
  donor_.set_node_quota(kUnlimitedTarget);
  settle();
  EXPECT_EQ(donor_.leased_pages(), 0u);
  EXPECT_EQ(donor_.lendable_pages(), 0u);
  EXPECT_FALSE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  EXPECT_EQ(broker_.borrow_placements(), 0u);
}

TEST_F(LendingBrokerTest, PersistentBorrowRoundTripsAndStays) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_EQ(credit(), kPhys / 2 - 1);  // the placement consumed one credit
  EXPECT_EQ(LendingProbe::borrowed_from(broker_, 0, 1), 1u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));

  // Persistent-typed pages survive gets: two hits, page still owned.
  for (int i = 0; i < 2; ++i) {
    const auto payload =
        broker_.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, 42u);
  }
  EXPECT_EQ(broker_.borrow_hits(), 2u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  EXPECT_EQ(pending(), 0u);  // hits free no frame
  settle();
  EXPECT_EQ(donor_.leased_pages(), kPhys / 2);
  EXPECT_EQ(credit(), kPhys / 2 - 1);  // the page still holds its frame
}

TEST_F(LendingBrokerTest, EphemeralBorrowIsAVictimCache) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 1, 0, 7));
  // The hit consumes the page: the index forgets it and its frame is queued
  // for release; the barrier turns it back into credit.
  const auto hit = broker_.port(0)->remote_get(kVm, PoolType::kEphemeral, 1, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 7u);
  EXPECT_FALSE(broker_.port(0)->owns(kVm, PoolType::kEphemeral, 1, 0));
  EXPECT_EQ(pending(), 1u);
  EXPECT_EQ(broker_.borrowed_total(0), 0u);
  settle();
  EXPECT_EQ(pending(), 0u);
  EXPECT_EQ(credit(), kPhys / 2);
  EXPECT_FALSE(
      broker_.port(0)->remote_get(kVm, PoolType::kEphemeral, 1, 0).has_value());
  EXPECT_EQ(broker_.borrow_misses(), 1u);
}

TEST_F(LendingBrokerTest, ReplacementPutStaysOnItsDonorWithoutNewFrame) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 43));
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_EQ(broker_.borrow_placements(), 1u);
  EXPECT_EQ(credit(), kPhys / 2 - 1);
  EXPECT_EQ(pending(), 0u);
  EXPECT_EQ(*broker_.port(0)->remote_get(kVm, PoolType::kPersistent, 1, 0),
            43u);
  settle();
}

TEST_F(LendingBrokerTest, FlushRemovesAtDonorAndFlushObjectIsRanged) {
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 5, i, 100 + i));
  }
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 6, 0, 200));
  EXPECT_EQ(credit(), kPhys / 2 - 4);

  EXPECT_TRUE(broker_.port(0)->remote_flush(kVm, PoolType::kPersistent, 5, 1));
  EXPECT_EQ(pending(), 1u);
  EXPECT_FALSE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 5, 1));

  // Object flush removes the rest of object 5 and nothing of object 6.
  EXPECT_EQ(broker_.port(0)->remote_flush_object(kVm, PoolType::kPersistent, 5),
            2u);
  EXPECT_EQ(pending(), 3u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 6, 0));
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  settle();
  EXPECT_EQ(credit(), kPhys / 2 - 1);
}

TEST_F(LendingBrokerTest, ReleaseBorrowedDropsOnlyEphemeralEntries) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7));
  ASSERT_TRUE(broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 1, 8));

  EXPECT_EQ(broker_.port(0)->release_borrowed(16), 2u);
  EXPECT_EQ(broker_.borrowed_total(0), 1u);
  EXPECT_TRUE(broker_.port(0)->owns(kVm, PoolType::kPersistent, 1, 0));
  EXPECT_FALSE(broker_.port(0)->owns(kVm, PoolType::kEphemeral, 2, 0));
  EXPECT_EQ(pending(), 2u);
  settle();
  EXPECT_EQ(credit(), kPhys / 2 - 1);
}

TEST_F(LendingBrokerTest, RecallMigratesPersistentPagesHome) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7));
  settle();  // the peak is sampled at barriers
  EXPECT_EQ(broker_.peak_borrowed(), 2u);

  // Donor recall: the ephemeral entry is just dropped (victim cache); the
  // persistent one is migrated into the borrower's own store. Each recalled
  // page's leased frame goes straight back to the donor.
  EXPECT_EQ(broker_.recall_lent(1, 16), 2u);
  EXPECT_EQ(broker_.recalls(), 2u);
  EXPECT_EQ(broker_.recall_migrations(), 1u);
  EXPECT_EQ(broker_.borrowed_total(0), 0u);
  EXPECT_EQ(donor_.leased_pages(), kPhys / 2 - 2);
  expect_lease_identity(broker_, {&borrower_, &donor_});

  // The migrated page now hits locally through the normal hypercall path.
  const auto local = borrower_.frontswap_get(kVm, 1, 0);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(*local, 42u);
}

TEST_F(LendingBrokerTest, GrownDonorQuotaShedsCreditThenRecallsAtTheBarrier) {
  ASSERT_TRUE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  ASSERT_TRUE(broker_.port(0)->remote_put(kVm, PoolType::kEphemeral, 2, 0, 7));

  // The donor is entitled to its whole store again: the barrier sheds the
  // 30 unused credits first and recalls the 2 placed pages for the rest.
  donor_.set_node_quota(kPhys);
  settle();
  EXPECT_EQ(broker_.recalls(), 2u);
  EXPECT_EQ(broker_.recall_migrations(), 1u);
  EXPECT_EQ(broker_.borrowed_total(0), 0u);
  EXPECT_EQ(donor_.leased_pages(), 0u);
  EXPECT_EQ(credit(), 0u);
  const auto local = borrower_.frontswap_get(kVm, 1, 0);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(*local, 42u);
}

// End-to-end Algorithm 1 fallback: a physically full node below its quota
// sends the overflow put to a donor and reads it back at the remote tier.
TEST(LendingIntegrationTest, FullNodeBelowQuotaSpillsToDonor) {
  sim::Simulator sim;
  hyper::Hypervisor borrower(sim, hyp_config(8));
  hyper::Hypervisor donor(sim, hyp_config(kPhys));
  LendingBroker broker({&borrower, &donor});
  borrower.register_vm(kVm);
  donor.register_vm(kVm);
  borrower.set_remote_tmem(broker.port(0));
  donor.set_remote_tmem(broker.port(1));
  donor.set_node_quota(kPhys / 2);
  borrower.set_node_quota(12);  // quota > phys: entitled to donor frames
  broker.sync_window();         // grants the donor's frames as credit

  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_EQ(borrower.frontswap_put(kVm, 1, i, 1000 + i),
              hyper::OpStatus::kSuccess);
  }
  EXPECT_EQ(borrower.remote_puts(), 0u);

  // Ninth page: store full, zero ephemerals to recycle, quota headroom left.
  tmem::Tier tier = tmem::Tier::kDram;
  ASSERT_EQ(borrower.frontswap_put(kVm, 1, 8, 1008, &tier),
            hyper::OpStatus::kSuccess);
  EXPECT_EQ(tier, tmem::Tier::kRemote);
  EXPECT_EQ(borrower.remote_puts(), 1u);
  EXPECT_EQ(broker.borrowed_total(0), 1u);
  EXPECT_EQ(LendingProbe::borrowed_from(broker, 0, 1), 1u);
  EXPECT_EQ(borrower.own_used_total(), 9u);

  const auto back = borrower.frontswap_get(kVm, 1, 8, &tier);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, 1008u);
  EXPECT_EQ(tier, tmem::Tier::kRemote);
  EXPECT_EQ(borrower.remote_gets(), 1u);

  // At the quota wall the remote fallback stops too.
  borrower.set_node_quota(9);
  EXPECT_EQ(borrower.frontswap_put(kVm, 1, 9, 1009),
            hyper::OpStatus::kNoCapacity);
}

// ---- even_credit_share: the closed-form even credit split ---------------

TEST(EvenCreditShare, RemainderGoesToTheLowestIndices) {
  // base = pool / members, remainder to the lowest indices.
  EXPECT_EQ(even_credit_share(10, 3, 0), 4u);
  EXPECT_EQ(even_credit_share(10, 3, 1), 3u);
  EXPECT_EQ(even_credit_share(10, 3, 2), 3u);
  // pool 7 over 4 members: base 1, remainder 3 -> indices 0,1,2.
  for (PageCount k = 0; k < 4; ++k) {
    EXPECT_EQ(even_credit_share(7, 4, k), k < 3 ? 2u : 1u) << "k " << k;
  }
}

TEST(EvenCreditShare, SharesConserveThePoolAndDifferByAtMostOne) {
  for (PageCount members : {1u, 2u, 5u, 63u}) {
    for (PageCount pool : {0u, 1u, 7u, 10u, 64u, 1000u}) {
      PageCount sum = 0;
      for (PageCount k = 0; k < members; ++k) {
        const PageCount share = even_credit_share(pool, members, k);
        EXPECT_LE(share, pool / members + 1);
        EXPECT_GE(share, pool / members);
        sum += share;
      }
      EXPECT_EQ(sum, pool) << "pool " << pool << " members " << members;
    }
  }
}

TEST_F(LendingBrokerTest, FailedPlacementsAreCounted) {
  // No donor has a lendable frame (unlimited quota reserves everything, and
  // the barrier sheds the credit): each fresh placement that finds no donor
  // credit counts as failed.
  donor_.set_node_quota(kUnlimitedTarget);
  settle();
  EXPECT_FALSE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 0, 42));
  EXPECT_FALSE(
      broker_.port(0)->remote_put(kVm, PoolType::kPersistent, 1, 1, 43));
  EXPECT_EQ(broker_.failed_placements(), 2u);
}

}  // namespace
}  // namespace smartmem::cluster
