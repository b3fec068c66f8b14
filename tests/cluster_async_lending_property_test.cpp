// Fault-model battery for the asynchronous lending fabric (DESIGN §15).
//
// Part 1 is a seeded fuzz over the fault grid (loss x reorder x outage x
// cache capacity x seed) driving a 3-node rig through random
// put/get/flush/release/recall traffic against a model map, with a window
// barrier (sync_window) every 16 operations. It asserts the broker
// invariants: lease-depth conservation (borrower index == model, and after
// every barrier, per donor d, leased_pages(d) == sum over borrowers b of
// (pages b borrowed from d + credit[b][d] + pending_release[b][d])), no
// page loss or duplication (every owned key serves exactly the model
// payload; a recalled persistent page reappears in the borrower's own
// store), and that every borrow terminates as placed, failed, or recalled —
// which the fabric's counter identities (requests == responses + timeouts,
// timeouts fully attributed to a fault, attempts fully attributed to
// success/retry/give-up) make checkable.
//
// Part 2 re-proves thread-count invariance with the async fabric in the
// loop: a lending-heavy fleet run (with and without wire faults) must be
// byte-identical at --sim-threads 1, 2 and 4.
//
// Part 3 is the recall-vs-in-flight-borrow regression: a donor entitlement
// grow whose barrier recalls pages while borrow completion timers are still
// pending must not crash, strand in-flight accounting, or leave a stale
// cache entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "cluster/lending.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "comm/topology.hpp"
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

/// Three-node async rig: node 0 borrows, nodes 1 and 2 donate half their
/// frames each. A first barrier grants the donors' frames as credit.
struct FuzzRig {
  FuzzRig(const comm::ClusterTopology& topo, const AsyncLendingConfig& acfg)
      : borrower(sim, hyp_config(kPhys)),
        donor1(sim, hyp_config(kPhys)),
        donor2(sim, hyp_config(kPhys)),
        broker({&borrower, &donor1, &donor2}) {
    for (hyper::Hypervisor* h : {&borrower, &donor1, &donor2}) {
      h->register_vm(kVm);
    }
    borrower.set_remote_tmem(broker.port(0));
    donor1.set_remote_tmem(broker.port(1));
    donor2.set_remote_tmem(broker.port(2));
    donor1.set_node_quota(kPhys / 2);
    donor2.set_node_quota(kPhys / 2);
    broker.enable_async(acfg, topo);
    for (NodeId n = 0; n < 3; ++n) broker.attach_sim(n, &sim);
    broker.sync_window();
  }

  const hyper::Hypervisor& hyp(NodeId n) const {
    return n == 0 ? borrower : (n == 1 ? donor1 : donor2);
  }

  sim::Simulator sim;
  hyper::Hypervisor borrower;
  hyper::Hypervisor donor1;
  hyper::Hypervisor donor2;
  LendingBroker broker;
};

struct FaultCase {
  double loss;
  double reorder;
  bool outage;
  PageCount cache;
};

/// The fabric's attempt bookkeeping must attribute every frame exactly
/// once, whatever the fault mix did to the run.
void check_counter_identities(const LendFabricStats& t) {
  ASSERT_EQ(t.requests, t.responses + t.timeouts);
  ASSERT_EQ(t.timeouts, t.lost_requests + t.lost_responses +
                            t.late_responses + t.outage_drops);
  ASSERT_EQ(t.requests, t.responses + t.retries + t.give_ups);
}

void fuzz_run(const FaultCase& fc, std::uint64_t seed) {
  SCOPED_TRACE(strfmt("loss=%.1f reorder=%.1f outage=%d cache=%llu seed=%llu",
                      fc.loss, fc.reorder, fc.outage ? 1 : 0,
                      static_cast<unsigned long long>(fc.cache),
                      static_cast<unsigned long long>(seed)));
  comm::ClusterTopology topo;
  topo.internode_lend_req.faults.loss_rate = fc.loss;
  topo.internode_lend_resp.faults.loss_rate = fc.loss / 2.0;
  topo.internode_lend_resp.faults.reorder_rate = fc.reorder;
  if (fc.outage) {
    topo.internode_lend_req.faults.down_from = 1 * kMillisecond;
    topo.internode_lend_req.faults.down_until = 5 * kMillisecond;
  }
  AsyncLendingConfig acfg;
  acfg.enabled = true;
  acfg.cache_pages = fc.cache;
  FuzzRig rig(topo, acfg);

  // Model of what the broker must own: borrowed key -> payload.
  std::map<RemoteKey, tmem::PagePayload> model;
  Rng rng(seed);

  auto random_key = [&rng] {
    const PoolType type =
        rng.chance(0.5) ? PoolType::kPersistent : PoolType::kEphemeral;
    return RemoteKey{kVm, type, 1 + rng.uniform(3),
                     static_cast<std::uint32_t>(rng.uniform(8))};
  };
  auto check_conservation = [&] {
    // Every model entry is owned and placed on exactly one donor, and
    // nothing else is.
    ASSERT_EQ(rig.broker.borrowed_total(0), model.size());
    ASSERT_EQ(LendingProbe::borrowed_from(rig.broker, 0, 1) +
                  LendingProbe::borrowed_from(rig.broker, 0, 2),
              model.size());
  };
  auto barrier = [&] {
    // Settle the window, then every donor's lease depth must equal what
    // the borrowers hold against it: placed pages, unused credit and
    // (always 0 right after settlement) pending releases.
    rig.broker.sync_window();
    for (NodeId d = 0; d < 3; ++d) {
      for (NodeId b = 0; b < 3; ++b) {
        ASSERT_EQ(LendingProbe::pending_release(rig.broker, b, d), 0u);
      }
      ASSERT_EQ(rig.hyp(d).leased_pages(),
                LendingProbe::lease_backed(rig.broker, d))
          << "lease identity, donor " << d;
    }
  };

  for (int op = 0; op < 200; ++op) {
    const std::uint64_t kind = rng.uniform(100);
    if (kind < 50) {  // put (fresh placement or replacement)
      const RemoteKey key = random_key();
      const tmem::PagePayload payload = rng.next();
      const bool existed = model.contains(key);
      const bool ok = rig.broker.port(0)->remote_put(
          kVm, key.type, key.object, key.index, payload);
      if (ok) {
        model[key] = payload;
      } else if (existed) {
        // A replacement lost to the fabric drops the whole entry so owns()
        // never vouches for a stale payload.
        model.erase(key);
      }
      ASSERT_EQ(rig.broker.port(0)->owns(kVm, key.type, key.object, key.index),
                model.contains(key));
    } else if (kind < 70) {  // get: exact payload, ephemeral consumed
      const RemoteKey key = random_key();
      const auto got =
          rig.broker.port(0)->remote_get(kVm, key.type, key.object, key.index);
      auto it = model.find(key);
      if (it != model.end()) {
        ASSERT_TRUE(got.has_value());  // persistent gets may never fail
        ASSERT_EQ(*got, it->second);   // no corruption, no duplication
        if (key.type == PoolType::kEphemeral) model.erase(it);
      } else {
        ASSERT_FALSE(got.has_value());
      }
    } else if (kind < 80) {  // flush one page
      const RemoteKey key = random_key();
      const bool ok = rig.broker.port(0)->remote_flush(kVm, key.type,
                                                       key.object, key.index);
      ASSERT_EQ(ok, model.contains(key));
      model.erase(key);
    } else if (kind < 85) {  // flush a whole object
      const PoolType type =
          rng.chance(0.5) ? PoolType::kPersistent : PoolType::kEphemeral;
      const std::uint64_t object = 1 + rng.uniform(3);
      const PageCount flushed =
          rig.broker.port(0)->remote_flush_object(kVm, type, object);
      PageCount expected = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->first.type == type && it->first.object == object) {
          it = model.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(flushed, expected);
    } else if (kind < 90) {  // quota-style release of ephemeral borrows
      const PageCount max = 1 + rng.uniform(8);
      const PageCount released = rig.broker.port(0)->release_borrowed(max);
      // Mirror the broker: ephemeral-typed entries die in key order.
      PageCount expected = 0;
      for (auto it = model.begin(); it != model.end() && expected < max;) {
        if (it->first.type == PoolType::kEphemeral) {
          it = model.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(released, expected);
    } else if (kind < 95) {  // donor-side recall
      const NodeId donor = rng.chance(0.5) ? 1 : 2;
      rig.broker.recall_lent(donor, 1 + rng.uniform(8));
      for (auto it = model.begin(); it != model.end();) {
        const RemoteKey& key = it->first;
        if (rig.broker.port(0)->owns(kVm, key.type, key.object, key.index)) {
          ++it;
          continue;
        }
        if (key.type == PoolType::kPersistent) {
          // A recalled persistent page must have migrated home intact —
          // recall may drop only ephemeral (victim-cache) entries.
          const auto local =
              rig.borrower.frontswap_get(kVm, key.object, key.index);
          ASSERT_TRUE(local.has_value());
          ASSERT_EQ(*local, it->second);
        }
        it = model.erase(it);
      }
    } else {  // let simulated time pass (crosses the outage window)
      rig.sim.run_until(rig.sim.now() +
                        static_cast<SimTime>(rng.uniform_range(50, 500)) *
                            kMicrosecond);
    }
    if (op % 16 == 0) {
      check_conservation();
      check_counter_identities(rig.broker.fabric()->totals());
      barrier();
      check_conservation();
    }
  }

  // Every borrow terminated: drain the completion timers, then the books
  // must balance exactly.
  rig.sim.run();
  ASSERT_EQ(rig.broker.fabric()->in_flight(0), 0u);
  check_conservation();
  barrier();
  check_counter_identities(rig.broker.fabric()->totals());
  const LendFabricStats t = rig.broker.fabric()->totals();
  if (fc.loss >= 1.0) {
    ASSERT_EQ(t.responses, 0u);  // nothing ever crossed a dead wire
    ASSERT_TRUE(model.empty());
  }
}

TEST(AsyncLendingPropertyTest, FaultGridFuzzPreservesBrokerInvariants) {
  const std::vector<FaultCase> grid = {
      {0.0, 0.0, false, 0},  {0.0, 0.0, false, 8}, {0.3, 0.0, false, 8},
      {0.3, 0.5, false, 0},  {0.3, 0.5, true, 8},  {1.0, 0.0, false, 8},
      {0.0, 0.5, true, 0},   {1.0, 0.5, true, 8},
  };
  for (const FaultCase& fc : grid) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      fuzz_run(fc, seed);
      if (HasFatalFailure()) return;
    }
  }
}

// ---- Part 2: thread-count invariance with the fabric in the loop ----------

std::string serialize(const FleetRunResult& r) {
  std::string out = strfmt(
      "makespan=%.9f failed=%llu total=%llu succ=%llu nodeb=%llu rackb=%llu\n",
      r.makespan_s, static_cast<unsigned long long>(r.aggregate_failed_puts),
      static_cast<unsigned long long>(r.puts_total),
      static_cast<unsigned long long>(r.puts_succ),
      static_cast<unsigned long long>(r.node_control_bytes),
      static_cast<unsigned long long>(r.rack_control_bytes));
  out += strfmt(
      "borrow=%llu bfail=%llu bhits=%llu bmiss=%llu recalls=%llu brepl=%llu\n",
      static_cast<unsigned long long>(r.borrow_placements),
      static_cast<unsigned long long>(r.lending_failed_placements),
      static_cast<unsigned long long>(r.borrow_hits),
      static_cast<unsigned long long>(r.borrow_misses),
      static_cast<unsigned long long>(r.lending_recalls),
      static_cast<unsigned long long>(r.lending_failed_replacements));
  out += strfmt(
      "freq=%llu fret=%llu ftmo=%llu fgup=%llu fcng=%llu ffbk=%llu fcan=%llu\n",
      static_cast<unsigned long long>(r.fabric_requests),
      static_cast<unsigned long long>(r.fabric_retries),
      static_cast<unsigned long long>(r.fabric_timeouts),
      static_cast<unsigned long long>(r.fabric_give_ups),
      static_cast<unsigned long long>(r.fabric_congestion_drops),
      static_cast<unsigned long long>(r.fabric_get_fallbacks),
      static_cast<unsigned long long>(r.fabric_cancelled_timers));
  out += strfmt(
      "chit=%llu cmiss=%llu cinv=%llu prtt=%.9f grtt=%.9f gcnt=%llu\n",
      static_cast<unsigned long long>(r.cache_hits),
      static_cast<unsigned long long>(r.cache_misses),
      static_cast<unsigned long long>(r.cache_invalidations), r.put_rtt_mean_us,
      r.get_rtt_mean_us, static_cast<unsigned long long>(r.get_rtt_count));
  return out;
}

FleetExperimentConfig lending_fleet(std::size_t sim_threads, bool flaky) {
  FleetExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.vms_per_node = 4;
  cfg.scale = 0.0625;
  cfg.seed = 42;
  cfg.delta = true;
  cfg.lending_heavy = true;
  cfg.lending_async.enabled = true;
  cfg.lending_async.cache_pages = 64;
  if (flaky) {
    cfg.lend_fault.loss_rate = 0.05;
    cfg.lend_fault.reorder_rate = 0.10;
  }
  cfg.sim_threads = sim_threads;
  return cfg;
}

TEST(AsyncLendingPropertyTest, FleetThreadCountInvisibleWithAsyncFabric) {
  const FleetRunResult r1 = run_fleet_scenario(lending_fleet(1, false));
  // The run must actually exercise the fabric for the comparison to mean
  // anything.
  ASSERT_GT(r1.borrow_placements, 0u);
  ASSERT_GT(r1.fabric_requests, 0u);
  const std::string base = serialize(r1);
  EXPECT_EQ(serialize(run_fleet_scenario(lending_fleet(2, false))), base);
  EXPECT_EQ(serialize(run_fleet_scenario(lending_fleet(4, false))), base);
}

TEST(AsyncLendingPropertyTest, FleetThreadCountInvisibleUnderWireFaults) {
  const std::string base = serialize(run_fleet_scenario(lending_fleet(1, true)));
  EXPECT_EQ(serialize(run_fleet_scenario(lending_fleet(4, true))), base);
}

// ---- Part 3: recall-on-quota-shrink races an in-flight borrow -------------

TEST(AsyncLendingPropertyTest, RecallWhileBorrowTimersInFlight) {
  AsyncLendingConfig acfg;
  acfg.enabled = true;
  acfg.cache_pages = 8;
  FuzzRig rig((comm::ClusterTopology()), acfg);

  // Several placements leave completion timers pending on the fabric.
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.broker.port(0)->remote_put(kVm, PoolType::kPersistent, 1,
                                               i, 100 + i));
  }
  ASSERT_GT(rig.broker.fabric()->in_flight(0), 0u);

  // Both donors are entitled to their whole store again: the next barrier
  // sheds their unused credit and recalls every placed page mid-flight.
  rig.donor1.set_node_quota(kPhys);
  rig.donor2.set_node_quota(kPhys);
  rig.broker.sync_window();
  EXPECT_EQ(rig.broker.recalls(), 4u);
  EXPECT_EQ(rig.broker.borrowed_total(0), 0u);
  EXPECT_EQ(rig.donor1.lent_pages() + rig.donor2.lent_pages(), 0u);
  // The borrower cache cannot outlive the entries it mirrored.
  EXPECT_EQ(rig.broker.fabric()->cache(0).size(), 0u);

  // The stale completion timers fire harmlessly and the window drains.
  rig.sim.run();
  EXPECT_EQ(rig.broker.fabric()->in_flight(0), 0u);

  // Recalled pages migrated home intact.
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto local = rig.borrower.frontswap_get(kVm, 1, i);
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(*local, 100u + i);
  }
}

}  // namespace
}  // namespace smartmem::cluster
