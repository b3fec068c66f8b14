// Borrower-side interface to cluster remote-tmem lending.
//
// When a node's quota exceeds its physical capacity (the global policy
// granted it more than it owns), Algorithm 1 may place a put into a donor
// node's pool across the rack fabric. The hypervisor only sees this
// interface; the cluster's LendingBroker implements it, keeping the
// per-borrower owner index, picking donors deterministically and doing the
// donor-side bookkeeping. A null RemoteTmem (the single-node default)
// disables lending entirely — no code path changes, no extra state.
//
// Key space: a borrowed page is identified by the borrower's own
// (vm, pool type, object, index) tuple. The broker maps that tuple to the
// donor whose leased frame backs it and keeps the payload itself on the
// borrower side, so borrowed keys never enter the donor's own pools.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "tmem/key.hpp"

namespace smartmem::hyper {

class RemoteTmem {
 public:
  virtual ~RemoteTmem() = default;

  /// Tries to place the page with a donor. Returns false when no donor has
  /// lendable capacity (the put then fails exactly as a full node would).
  /// Re-putting a key the broker already holds replaces it in place on the
  /// same donor.
  virtual bool remote_put(VmId vm, tmem::PoolType type, std::uint64_t object,
                          std::uint32_t index, tmem::PagePayload payload) = 0;

  /// Fetches a borrowed page. Ephemeral-typed pages keep their victim-cache
  /// semantics: a hit removes the page from the donor.
  virtual std::optional<tmem::PagePayload> remote_get(VmId vm,
                                                      tmem::PoolType type,
                                                      std::uint64_t object,
                                                      std::uint32_t index) = 0;

  /// Drops one borrowed page / every borrowed page of an object.
  virtual bool remote_flush(VmId vm, tmem::PoolType type, std::uint64_t object,
                            std::uint32_t index) = 0;
  virtual PageCount remote_flush_object(VmId vm, tmem::PoolType type,
                                        std::uint64_t object) = 0;

  /// Whether the broker currently holds this exact key for this borrower.
  /// The hypervisor routes replacement puts through this check so a
  /// borrowed key is never duplicated locally.
  virtual bool owns(VmId vm, tmem::PoolType type, std::uint64_t object,
                    std::uint32_t index) const = 0;

  /// Pages currently borrowed on behalf of one VM / of the whole node.
  virtual PageCount borrowed_pages(VmId vm) const = 0;
  virtual PageCount borrowed_total() const = 0;

  /// Releases up to `max_pages` ephemeral-typed borrowed pages (quota
  /// shrink and slow reclaim; persistent pages hold the only copy of guest
  /// data and are only moved by the broker's recall path). Returns the
  /// number of pages actually released.
  virtual PageCount release_borrowed(PageCount max_pages) = 0;

  /// True when remote operations run over a modeled asynchronous fabric.
  /// The hypervisor then charges the guest last_op_elapsed() instead of the
  /// static remote-tier cost constants.
  virtual bool async_data_plane() const { return false; }

  /// Modeled fabric time of the most recent remote_put/remote_get on this
  /// port (success RTT, or accumulated timeouts on a give-up). Valid until
  /// the next remote operation; 0 on the synchronous data plane.
  virtual SimTime last_op_elapsed() const { return 0; }
};

}  // namespace smartmem::hyper
