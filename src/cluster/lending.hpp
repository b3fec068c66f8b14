// Remote-tmem lending broker: the rack's cross-node page placement.
//
// A node whose quota exceeds its physical capacity is entitled to frames it
// does not own; the broker turns that entitlement into pages hosted on
// donor nodes with spare, un-entitled frames (lendable_pages() > 0). Each
// node gets a Port implementing hyper::RemoteTmem; the hypervisor's
// Algorithm 1 falls through to the port when the node is physically full
// but below quota.
//
// Data plane (lease + shadow): donors live on other engine shards, so a
// borrower never touches a donor's store mid-window. Each borrower
// partition keeps the authoritative payload of every page it borrowed,
// shard-local, plus per-donor placement *credit* — frames the coordinator
// reserved on the donor (Hypervisor::host_lease) at the last window
// barrier. A fresh placement consumes one credit; a flush, release or
// ephemeral-hit consume queues the freed frame as a pending release.
// sync_window() settles all of it against the donor stores between
// windows. For every donor d the lease identity holds:
//   leased_pages(d) == sum over borrowers b of
//                      (pages b borrowed from d + credit[b][d]
//                       + pending_release[b][d]).
//
// Semantics:
//  - The borrower's (vm, type, object, index) key is the identity; the
//    broker keeps a per-borrower sorted index key -> (donor, payload).
//  - Leased frames live in a persistent, incompressible pool under the
//    pseudo-VM hyper::kLeaseVmId, so a donor-side eviction can never drop
//    the frame behind a borrower's only copy of a frontswap page.
//  - Borrowed *ephemeral*-typed pages are still a victim cache from the
//    borrower's point of view: a remote_get hit consumes the page (its
//    donor frame is released at the next barrier); release_borrowed()
//    (quota shrink, slow reclaim) drops only ephemeral-typed entries.
//    Persistent-typed pages move only through recall_lent(), which
//    migrates them back into the borrower's own store.
//  - Donor choice is a deterministic rotation over the other nodes, so a
//    given (seed, topology) always produces the same placement.
//
// Latency: with the asynchronous data plane off (the historic default) a
// borrower's guest pays the remote-tier cost (CostModel tmem_put_remote /
// tmem_get_remote) on every borrowed-page operation and the broker's calls
// are shard-local bookkeeping. With enable_async() the broker
// routes every put/get through a LendFabric round trip
// (cluster/lend_fabric.hpp): the modeled request/response exchange decides
// whether the operation succeeds at all (loss / reorder / outage /
// timeout / congestion, bounded retries, deterministic give-up) and its
// elapsed time surfaces to the guest through RemoteTmem::last_op_elapsed.
// A borrower-side BorrowCache short-circuits repeated gets of hot
// borrowed pages.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cluster/lend_fabric.hpp"
#include "cluster/node_stats.hpp"
#include "hyper/hypervisor.hpp"
#include "hyper/remote_tmem.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace smartmem::cluster {

/// Borrower `k`'s share (k in [0, members)) of a donor's credit pool split
/// evenly over `members` borrowers, the remainder going to the lowest
/// indices: pool / members + (k < pool % members). The shares sum to `pool`.
constexpr PageCount even_credit_share(PageCount pool, PageCount members,
                                      PageCount k) {
  return pool / members + (k < pool % members ? 1 : 0);
}

class LendingBroker {
 public:
  /// `nodes[i]` is node i's hypervisor; the broker holds the pointers for
  /// the cluster's lifetime. No partition holds credit until the first
  /// sync_window().
  explicit LendingBroker(std::vector<hyper::Hypervisor*> nodes);

  LendingBroker(const LendingBroker&) = delete;
  LendingBroker& operator=(const LendingBroker&) = delete;

  /// Node `node`'s borrower port (wire via Hypervisor::set_remote_tmem).
  hyper::RemoteTmem* port(NodeId node);

  /// Switches the data plane to asynchronous round trips over the
  /// topology's lending hops (no-op when cfg.enabled is false). Must be
  /// called before traffic starts; attach_sim() wires each borrower
  /// partition to its shard simulator afterwards.
  void enable_async(const AsyncLendingConfig& cfg,
                    const comm::ClusterTopology& topo);
  void attach_sim(NodeId node, sim::Simulator* sim);

  /// Cancels the fabric's outstanding in-flight borrow timers (cluster
  /// teardown — the Tkm::stop() mirror). Idempotent; safe without a fabric.
  void stop();

  /// The async data plane, or nullptr when running synchronously.
  LendFabric* fabric() { return fabric_.get(); }
  const LendFabric* fabric() const { return fabric_.get(); }

  /// Donor-side recall: pulls up to `max_pages` pages lent *by* `donor`
  /// back out (quota grew, the donor needs its frames again). Ephemeral-
  /// typed entries are dropped (victim cache); persistent-typed ones are
  /// migrated home into the borrower's own store when it has a free frame,
  /// and stay put otherwise. Each recalled page's leased frame returns to
  /// the donor's free pool. Returns pages actually recalled. Touches every
  /// borrower partition: coordinator context only (sync_window calls it).
  PageCount recall_lent(NodeId donor, PageCount max_pages);

  /// Window barrier (coordinator context, all shards quiescent). Settles the window's lending activity against the donor
  /// stores: frames freed by borrower flushes are unleased; donors whose
  /// entitlement grew past their lease shed unused credit and recall
  /// borrowed pages; every donor then tops its lease back up to its full
  /// lendable capacity and the resulting credit pool is split evenly across
  /// the borrowers.
  ///
  /// Cost: only borrowers whose partition marked itself dirty (consumed
  /// credit or freed a frame) are read, O(nodes) each; a donor's credit
  /// column is rewritten, O(nodes), only when its pool moved (credit used,
  /// shed, or a fresh lease). Every donor still gets one O(1) entitlement
  /// check and lease probe, so an idle barrier is O(nodes), and no barrier
  /// allocates. Only lease *deltas* touch the store.
  void sync_window();

  PageCount borrowed_total(NodeId node) const;
  PageCount peak_borrowed() const { return peak_borrowed_; }
  std::uint64_t borrow_placements() const;
  std::uint64_t borrow_hits() const;
  std::uint64_t borrow_misses() const;
  /// Lifetime fresh placements that found no donor with remaining window
  /// credit (or that the async fabric failed to deliver).
  std::uint64_t failed_placements() const;
  /// Replacement puts lost to the fabric (async data plane only).
  std::uint64_t failed_replacements() const;
  std::uint64_t recalls() const { return recalls_; }
  std::uint64_t recall_migrations() const { return recall_migrations_; }

  /// Borrower `node`'s partition writes its trace instants to its own
  /// shard's recorder, stamped by `clock` (partitions run concurrently, so
  /// no recorder is shared between them).
  void attach_partition_obs(NodeId node, obs::TraceRecorder* trace,
                            std::function<SimTime()> clock);

  void register_metrics(obs::Registry& reg) const;

 private:
  // RemoteKey (the borrower-relative page identity) lives at namespace
  // scope in cluster/lend_fabric.hpp so the BorrowCache can share it.

  class Port final : public hyper::RemoteTmem {
   public:
    Port(LendingBroker& broker, NodeId node) : broker_(broker), node_(node) {}
    bool remote_put(VmId vm, tmem::PoolType type, std::uint64_t object,
                    std::uint32_t index, tmem::PagePayload payload) override {
      return broker_.do_put(node_, vm, type, object, index, payload);
    }
    std::optional<tmem::PagePayload> remote_get(VmId vm, tmem::PoolType type,
                                                std::uint64_t object,
                                                std::uint32_t index) override {
      return broker_.do_get(node_, vm, type, object, index);
    }
    bool remote_flush(VmId vm, tmem::PoolType type, std::uint64_t object,
                      std::uint32_t index) override {
      return broker_.do_flush(node_, vm, type, object, index);
    }
    PageCount remote_flush_object(VmId vm, tmem::PoolType type,
                                  std::uint64_t object) override {
      return broker_.do_flush_object(node_, vm, type, object);
    }
    bool owns(VmId vm, tmem::PoolType type, std::uint64_t object,
              std::uint32_t index) const override {
      return broker_.do_owns(node_, vm, type, object, index);
    }
    PageCount borrowed_pages(VmId vm) const override {
      return broker_.do_borrowed_pages(node_, vm);
    }
    PageCount borrowed_total() const override {
      return broker_.borrowed_total(node_);
    }
    PageCount release_borrowed(PageCount max_pages) override {
      return broker_.do_release(node_, max_pages);
    }
    bool async_data_plane() const override {
      return broker_.fabric_ != nullptr;
    }
    SimTime last_op_elapsed() const override {
      return broker_.state_[node_].last_elapsed;
    }

   private:
    LendingBroker& broker_;
    NodeId node_;
  };

  /// One borrowed page: its donor and its authoritative payload (the donor
  /// store holds only an opaque leased frame).
  struct Borrowed {
    NodeId donor;
    tmem::PagePayload payload;
  };

  struct NodeState {
    NodeId self = 0;
    std::map<RemoteKey, Borrowed> index;
    std::map<VmId, PageCount> borrowed_per_vm;
    PageCount borrowed_total = 0;
    NodeId rotation = 0;  // donor rotation cursor
    std::unique_ptr<Port> port;
    /// Modeled fabric time of this borrower's last remote_put/remote_get
    /// (async data plane only; stays 0 otherwise). Surfaced through the
    /// port so the guest charges real round-trip time instead of the
    /// static remote-tier constants.
    SimTime last_elapsed = 0;
    // Per-partition op counters: written from this borrower's shard
    // mid-window, summed by the accessors (which run at barriers or after
    // the run, never concurrently with a window).
    std::uint64_t placements = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t failed_placements = 0;
    /// Replacement puts the fabric failed to deliver: the borrowed entry is
    /// dropped (the guest falls back to disk) so owns() never lies. Not a
    /// placement failure.
    std::uint64_t failed_replacements = 0;
    // credit[d]: fresh placements this borrower may still charge against
    // donor d's lease before the next barrier.
    std::vector<PageCount> credit;
    // pending_release[d]: frames freed this window (flush / ephemeral-hit
    // consume) that sync_window() returns to donor d's free pool.
    std::vector<PageCount> pending_release;
    // Set by this partition whenever it consumes credit or queues a freed
    // frame; sync_window() settles (and clears) only dirty partitions.
    bool dirty = false;
    // Partition-local trace sink (attach_partition_obs).
    obs::TraceRecorder* trace = nullptr;
    std::function<SimTime()> clock;
    std::uint16_t track = 0;
  };

  bool do_put(NodeId node, VmId vm, tmem::PoolType type, std::uint64_t object,
              std::uint32_t index, const tmem::PagePayload& payload);
  std::optional<tmem::PagePayload> do_get(NodeId node, VmId vm,
                                          tmem::PoolType type,
                                          std::uint64_t object,
                                          std::uint32_t index);
  bool do_flush(NodeId node, VmId vm, tmem::PoolType type,
                std::uint64_t object, std::uint32_t index);
  PageCount do_flush_object(NodeId node, VmId vm, tmem::PoolType type,
                            std::uint64_t object);
  bool do_owns(NodeId node, VmId vm, tmem::PoolType type, std::uint64_t object,
               std::uint32_t index) const;
  PageCount do_borrowed_pages(NodeId node, VmId vm) const;
  PageCount do_release(NodeId node, PageCount max_pages);

  /// Removes one borrowed entry (and its cached copy) and fixes the borrow
  /// accounting.
  void drop_entry(NodeState& st, const RemoteKey& key);
  /// drop_entry() plus queueing the freed frame for `donor`, which the
  /// next sync_window() unleases.
  void release_entry(NodeState& st, const RemoteKey& key, NodeId donor);
  void trace_instant(NodeState& st, const char* name, NodeId borrower,
                     NodeId donor);
  /// Borrower `b`'s share of donor `d`'s credit pool `pool`.
  PageCount credit_share(PageCount pool, NodeId d, NodeId b) const {
    const PageCount members = hyps_.size() - 1;
    return even_credit_share(pool, members, b < d ? b : b - 1);
  }

  std::vector<hyper::Hypervisor*> hyps_;
  std::vector<NodeState> state_;
  std::unique_ptr<LendFabric> fabric_;  // async data plane (null = sync)
  // ---- Settlement state (coordinator-owned) --------------------------------
  // granted_[d]: donor d's credit pool as split at the last barrier, so
  // state_[b].credit[d] == credit_share(granted_[d], d, b) for every
  // partition that stayed clean since.
  std::vector<PageCount> granted_;
  // Per-barrier scratch, sized once: credit the dirty partitions consumed
  // from each donor, and each donor's working pool.
  std::vector<PageCount> consumed_;
  std::vector<PageCount> pool_;
  PageCount peak_borrowed_ = 0;
  std::uint64_t recalls_ = 0;
  std::uint64_t recall_migrations_ = 0;

  // Test-only dense O(nodes^2) settlement the dirty-set sync_window() is
  // checked against (tests/cluster_lending_oracle_test.cpp), and read-only
  // access to the per-partition ledgers (tests/lending_probe.hpp).
  friend struct SettlementOracle;
  friend struct LendingProbe;
};

}  // namespace smartmem::cluster
