#include "cluster/lending.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace smartmem::cluster {

LendingBroker::LendingBroker(std::vector<hyper::Hypervisor*> nodes)
    : hyps_(std::move(nodes)) {
  if (hyps_.size() < 2) {
    throw std::invalid_argument("LendingBroker: needs at least 2 nodes");
  }
  state_.resize(hyps_.size());
  for (NodeId i = 0; i < state_.size(); ++i) {
    state_[i].self = i;
    state_[i].port = std::make_unique<Port>(*this, i);
    state_[i].credit.assign(hyps_.size(), 0);
    state_[i].pending_release.assign(hyps_.size(), 0);
  }
  granted_.assign(hyps_.size(), 0);
  consumed_.assign(hyps_.size(), 0);
  pool_.assign(hyps_.size(), 0);
}

void LendingBroker::enable_async(const AsyncLendingConfig& cfg,
                                 const comm::ClusterTopology& topo) {
  if (!cfg.enabled) return;
  fabric_ = std::make_unique<LendFabric>(topo, cfg, hyps_.size());
}

void LendingBroker::attach_sim(NodeId node, sim::Simulator* sim) {
  if (fabric_ != nullptr) fabric_->attach_sim(node, sim);
}

void LendingBroker::stop() {
  if (fabric_ != nullptr) fabric_->stop();
}

hyper::RemoteTmem* LendingBroker::port(NodeId node) {
  return state_.at(node).port.get();
}

void LendingBroker::attach_partition_obs(NodeId node,
                                         obs::TraceRecorder* trace,
                                         std::function<SimTime()> clock) {
  NodeState& st = state_.at(node);
  st.trace = trace;
  st.clock = std::move(clock);
  if (st.trace != nullptr) {
    st.track = st.trace->register_track("cluster", "lending");
  }
}

void LendingBroker::trace_instant(NodeState& st, const char* name,
                                  NodeId borrower, NodeId donor) {
  if (st.trace == nullptr || !st.trace->enabled(obs::kCatCluster)) return;
  st.trace->instant(obs::kCatCluster, st.track, name,
                    st.clock ? st.clock() : 0,
                    {{"borrower", static_cast<double>(borrower)},
                     {"donor", static_cast<double>(donor)}});
}

void LendingBroker::drop_entry(NodeState& st, const RemoteKey& key) {
  auto it = st.index.find(key);
  if (it == st.index.end()) return;
  // Single choke point for cache coherence: whenever a borrowed entry dies
  // (flush, release, recall, ephemeral-hit consume, failed replacement)
  // the borrower-side cached copy dies with it.
  if (fabric_ != nullptr) fabric_->cache(st.self).erase(key);
  st.index.erase(it);
  st.borrowed_total -= 1;
  auto pv = st.borrowed_per_vm.find(key.vm);
  if (pv != st.borrowed_per_vm.end() && --pv->second == 0) {
    st.borrowed_per_vm.erase(pv);
  }
}

void LendingBroker::release_entry(NodeState& st, const RemoteKey& key,
                                  NodeId donor) {
  st.pending_release[donor] += 1;
  st.dirty = true;
  drop_entry(st, key);
}

bool LendingBroker::do_put(NodeId node, VmId vm, tmem::PoolType type,
                           std::uint64_t object, std::uint32_t index,
                           const tmem::PagePayload& payload) {
  NodeState& st = state_[node];
  const RemoteKey key{vm, type, object, index};
  st.last_elapsed = 0;

  // Replacement of a key the broker already holds stays on its donor: the
  // payload is swapped in place and no new frame is consumed.
  auto it = st.index.find(key);
  if (it != st.index.end()) {
    const NodeId donor = it->second.donor;
    if (fabric_ != nullptr) {
      comm::LendRequest req{0, comm::LendOp::kPut, node, vm,
                            type,  object,          index, true};
      const LendFabric::Outcome out =
          fabric_->round_trip(node, donor, req, /*resp_carries_page=*/false);
      st.last_elapsed = out.elapsed;
      if (!out.ok) {
        // The replacement never reached the donor and the guest is about to
        // fall back to disk — drop the entry (and free the stale donor
        // frame) so owns() never vouches for a payload the guest stopped
        // trusting.
        ++st.failed_replacements;
        fabric_->send_invalidate(node, donor, comm::LendOp::kFlush);
        release_entry(st, key, donor);
        return false;
      }
      fabric_->record_put_rtt(node, out.elapsed);
      fabric_->cache(node).insert(key, payload);
    }
    it->second.payload = payload;
    return true;
  }

  // Fresh placement: deterministic rotation over the other nodes, first
  // donor with remaining window credit wins. The cursor advances past a
  // chosen donor so successive placements spread instead of piling on
  // node 0. With the async data plane the credit probe only *selects* the
  // donor; the request/response exchange then decides whether the
  // placement lands — and a transport give-up degrades to a local failed
  // put rather than hammering the next donor with a guest already waiting
  // on its timeout.
  const NodeId n = static_cast<NodeId>(hyps_.size());
  for (NodeId j = 0; j < n; ++j) {
    const NodeId donor = (node + 1 + st.rotation + j) % n;
    if (donor == node || st.credit[donor] == 0) continue;
    if (fabric_ != nullptr) {
      comm::LendRequest req{0, comm::LendOp::kPut, node, vm,
                            type,  object,          index, true};
      const LendFabric::Outcome out =
          fabric_->round_trip(node, donor, req, /*resp_carries_page=*/false);
      st.last_elapsed += out.elapsed;
      if (!out.ok) {
        ++st.failed_placements;
        return false;
      }
      fabric_->record_put_rtt(node, st.last_elapsed);
      fabric_->cache(node).insert(key, payload);
    }
    st.credit[donor] -= 1;
    st.dirty = true;
    st.index.emplace(key, Borrowed{donor, payload});
    st.borrowed_total += 1;
    st.borrowed_per_vm[vm] += 1;
    st.rotation = (st.rotation + j + 1) % n;
    ++st.placements;
    trace_instant(st, "borrow_place", node, donor);
    return true;
  }
  ++st.failed_placements;
  return false;
}

std::optional<tmem::PagePayload> LendingBroker::do_get(NodeId node, VmId vm,
                                                       tmem::PoolType type,
                                                       std::uint64_t object,
                                                       std::uint32_t index) {
  NodeState& st = state_[node];
  const RemoteKey key{vm, type, object, index};
  st.last_elapsed = 0;
  auto it = st.index.find(key);
  if (it == st.index.end()) {
    // The owner index is borrower-local knowledge — a miss costs no wire.
    ++st.misses;
    return std::nullopt;
  }
  const NodeId donor = it->second.donor;

  // Borrower-side cache: a hit serves the page at the access point and
  // skips the inter-node round trip entirely.
  if (fabric_ != nullptr && fabric_->cache(node).enabled()) {
    if (const auto cached = fabric_->cache(node).lookup(key)) {
      ++st.hits;
      fabric_->record_get_rtt(node, 0);
      if (type == tmem::PoolType::kEphemeral) {
        // Exclusivity survives the cache: the donor copy is consumed via a
        // fire-and-forget invalidate (drop_entry also erases the cache).
        fabric_->send_invalidate(node, donor, comm::LendOp::kFlush);
        release_entry(st, key, donor);
      }
      trace_instant(st, "borrow_cache_hit", node, donor);
      return cached;
    }
  }

  if (fabric_ != nullptr) {
    comm::LendRequest req{0,    comm::LendOp::kGet, node,  vm,
                          type, object,             index, false};
    const LendFabric::Outcome out =
        fabric_->round_trip(node, donor, req, /*resp_carries_page=*/true);
    st.last_elapsed = out.elapsed;
    if (out.ok) {
      fabric_->record_get_rtt(node, out.elapsed);
    } else {
      // A persistent get holds the only copy of guest data — it must not
      // fail. The broker rescues it synchronously (the reliable
      // control-plane path), charging the accumulated timeout cost.
      fabric_->count_get_fallback(node);
    }
  }

  const tmem::PagePayload payload = it->second.payload;
  ++st.hits;
  if (fabric_ != nullptr && type == tmem::PoolType::kPersistent) {
    // Hot borrowed pages earn a seat at the access point; ephemeral pages
    // are consumed on their first (and only) hit below.
    fabric_->cache(node).insert(key, payload);
  }
  if (type == tmem::PoolType::kEphemeral) {
    // Victim-cache semantics survive the rack hop: an ephemeral hit
    // consumes the page.
    release_entry(st, key, donor);
  }
  trace_instant(st, "borrow_hit", node, donor);
  return payload;
}

bool LendingBroker::do_flush(NodeId node, VmId vm, tmem::PoolType type,
                             std::uint64_t object, std::uint32_t index) {
  NodeState& st = state_[node];
  const RemoteKey key{vm, type, object, index};
  auto it = st.index.find(key);
  if (it == st.index.end()) return false;
  // A guest flush does not wait on the donor: the invalidate frame is
  // fire-and-forget (retried implicitly — the donor frame is reclaimed at
  // the latest by the next recall sweep).
  const NodeId donor = it->second.donor;
  if (fabric_ != nullptr) {
    fabric_->send_invalidate(node, donor, comm::LendOp::kFlush);
  }
  release_entry(st, key, donor);
  return true;
}

PageCount LendingBroker::do_flush_object(NodeId node, VmId vm,
                                         tmem::PoolType type,
                                         std::uint64_t object) {
  NodeState& st = state_[node];
  PageCount flushed = 0;
  // RemoteKey orders by (vm, type, object, index): the object's pages form
  // one contiguous index range.
  auto it = st.index.lower_bound(RemoteKey{vm, type, object, 0});
  while (it != st.index.end() && it->first.vm == vm &&
         it->first.type == type && it->first.object == object) {
    const RemoteKey key = it->first;
    const NodeId donor = it->second.donor;
    ++it;
    if (fabric_ != nullptr) {
      fabric_->send_invalidate(node, donor, comm::LendOp::kFlushObject);
    }
    release_entry(st, key, donor);
    ++flushed;
  }
  return flushed;
}

bool LendingBroker::do_owns(NodeId node, VmId vm, tmem::PoolType type,
                            std::uint64_t object, std::uint32_t index) const {
  const NodeState& st = state_[node];
  return st.index.contains(RemoteKey{vm, type, object, index});
}

PageCount LendingBroker::do_borrowed_pages(NodeId node, VmId vm) const {
  const NodeState& st = state_[node];
  auto it = st.borrowed_per_vm.find(vm);
  return it == st.borrowed_per_vm.end() ? 0 : it->second;
}

PageCount LendingBroker::borrowed_total(NodeId node) const {
  return state_.at(node).borrowed_total;
}

std::uint64_t LendingBroker::borrow_placements() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.placements;
  return total;
}

std::uint64_t LendingBroker::borrow_hits() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.hits;
  return total;
}

std::uint64_t LendingBroker::borrow_misses() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.misses;
  return total;
}

std::uint64_t LendingBroker::failed_placements() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.failed_placements;
  return total;
}

std::uint64_t LendingBroker::failed_replacements() const {
  std::uint64_t total = 0;
  for (const NodeState& s : state_) total += s.failed_replacements;
  return total;
}

PageCount LendingBroker::do_release(NodeId node, PageCount max_pages) {
  NodeState& st = state_[node];
  PageCount released = 0;
  auto it = st.index.begin();
  while (it != st.index.end() && released < max_pages) {
    if (it->first.type != tmem::PoolType::kEphemeral) {
      ++it;
      continue;
    }
    const RemoteKey key = it->first;
    const NodeId donor = it->second.donor;
    ++it;
    if (fabric_ != nullptr) {
      fabric_->send_invalidate(node, donor, comm::LendOp::kFlush);
    }
    release_entry(st, key, donor);
    ++released;
  }
  return released;
}

PageCount LendingBroker::recall_lent(NodeId donor, PageCount max_pages) {
  PageCount recalled = 0;
  // Walk every borrower's entries pointing at this donor, borrowers in
  // node order, keys in index order — fully deterministic.
  for (NodeId b = 0; b < state_.size() && recalled < max_pages; ++b) {
    if (b == donor) continue;
    NodeState& st = state_[b];
    auto it = st.index.begin();
    while (it != st.index.end() && recalled < max_pages) {
      if (it->second.donor != donor) {
        ++it;
        continue;
      }
      const RemoteKey key = it->first;
      const tmem::PagePayload payload = it->second.payload;
      ++it;
      if (key.type == tmem::PoolType::kEphemeral) {
        // Victim cache: the borrower just loses the cached copy.
        drop_entry(st, key);
        ++recalled;
        ++recalls_;
        continue;
      }
      // Persistent: migrate the only copy home. When the borrower has no
      // free frame the page must stay borrowed.
      if (!hyps_[b]->rehome_page(key.vm, key.type, key.object, key.index,
                                 payload)) {
        continue;
      }
      drop_entry(st, key);
      ++recalled;
      ++recalls_;
      ++recall_migrations_;
      trace_instant(st, "recall_migrate", b, donor);
    }
  }
  // Every recalled page frees one of the donor's leased frames.
  if (recalled > 0) hyps_[donor]->host_unlease(recalled);
  return recalled;
}

void LendingBroker::sync_window() {
  const NodeId n = static_cast<NodeId>(hyps_.size());

  // 1. Settle the dirty partitions. A clean partition still holds exactly
  //    its share of each donor's last grant, so only dirty ones can have
  //    used credit (counters only, no store traffic) or freed frames.
  for (NodeId b = 0; b < n; ++b) {
    NodeState& st = state_[b];
    if (!st.dirty) continue;
    st.dirty = false;
    for (NodeId d = 0; d < n; ++d) {
      if (d == b) continue;
      consumed_[d] += credit_share(granted_[d], d, b) - st.credit[d];
      if (st.pending_release[d] > 0) {
        hyps_[d]->host_unlease(st.pending_release[d]);
        st.pending_release[d] = 0;
      }
    }
  }
  for (NodeId d = 0; d < n; ++d) pool_[d] = granted_[d] - consumed_[d];

  // 2. Entitlement pressure: a donor whose quota grew needs frames back.
  //    Shed unused credit first (free), recall actually-borrowed pages only
  //    for the remainder. Runs for every donor before any lease below: a
  //    recall re-homes pages into borrower stores, which moves their
  //    lendable capacity.
  for (NodeId d = 0; d < n; ++d) {
    const hyper::Hypervisor& hyp = *hyps_[d];
    const PageCount phys = hyp.total_tmem();
    const PageCount quota = hyp.node_quota();
    const PageCount entitlement =
        quota == kUnlimitedTarget ? phys : std::min(quota, phys);
    const PageCount cap = phys > entitlement ? phys - entitlement : 0;
    PageCount lent = hyp.lent_pages();
    if (lent <= cap) continue;
    PageCount excess = lent - cap;
    const PageCount shed = std::min(excess, pool_[d]);
    if (shed > 0) {
      hyps_[d]->host_unlease(shed);
      pool_[d] -= shed;
      excess -= shed;
    }
    if (excess > 0) recall_lent(d, excess);
  }

  // 3. Top every donor's lease back up to its lendable capacity and split
  //    the pool evenly for the next window. A donor whose pool neither moved
  //    nor had credit used still has its last split in place.
  for (NodeId d = 0; d < n; ++d) {
    pool_[d] += hyps_[d]->host_lease(hyps_[d]->lendable_pages());
    if (pool_[d] == granted_[d] && consumed_[d] == 0) continue;
    for (NodeId b = 0; b < n; ++b) {
      if (b != d) state_[b].credit[d] = credit_share(pool_[d], d, b);
    }
    granted_[d] = pool_[d];
    consumed_[d] = 0;
  }

  PageCount total = 0;
  for (const NodeState& s : state_) total += s.borrowed_total;
  peak_borrowed_ = std::max(peak_borrowed_, total);
}

void LendingBroker::register_metrics(obs::Registry& reg) const {
  // Placements/hits/misses live per partition; the registry snapshots only
  // at barriers (or after the run), where summing is safe.
  reg.add_gauge("lend.borrow_placements", [this] {
    return static_cast<double>(borrow_placements());
  });
  reg.add_gauge("lend.borrow_hits",
                [this] { return static_cast<double>(borrow_hits()); });
  reg.add_gauge("lend.borrow_misses",
                [this] { return static_cast<double>(borrow_misses()); });
  reg.add_gauge("lend.failed_placements",
                [this] { return static_cast<double>(failed_placements()); });
  reg.add_counter("lend.recalls", &recalls_);
  reg.add_counter("lend.recall_migrations", &recall_migrations_);
  reg.add_gauge("lend.peak_borrowed",
                [this] { return static_cast<double>(peak_borrowed_); });
  reg.add_gauge("lend.borrowed_total", [this] {
    PageCount total = 0;
    for (const NodeState& s : state_) total += s.borrowed_total;
    return static_cast<double>(total);
  });
}

}  // namespace smartmem::cluster
