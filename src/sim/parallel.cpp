#include "sim/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "sim/profiler.hpp"

namespace smartmem::sim {

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ParallelEngine::ParallelEngine(Config config) : config_(config) {
  if (config_.lookahead <= 0) {
    throw std::invalid_argument(
        "ParallelEngine: lookahead must be positive (a zero-lookahead "
        "topology admits no safe window)");
  }
  if (config_.threads == 0) {
    config_.threads = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  }
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ParallelEngine::add_shard(Simulator* sim) {
  if (sim == nullptr) {
    throw std::invalid_argument("ParallelEngine: null shard simulator");
  }
  shards_.push_back(Shard{sim, {}, 0, 0});
  for (Shard& s : shards_) s.outbox.resize(shards_.size());
  return shards_.size() - 1;
}

void ParallelEngine::post(std::size_t src, std::size_t dst, SimTime when,
                          std::function<void()> action) {
  Shard& s = shards_.at(src);
  s.outbox.at(dst).push_back(
      Staged{when, s.next_post_seq++, std::move(action)});
  ++s.staged;
}

void ParallelEngine::set_barrier_hook(std::function<void(SimTime)> hook) {
  hook_ = std::move(hook);
}

void ParallelEngine::set_profiler(EngineProfiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) profiler_->resize(shards_.size());
}

void ParallelEngine::run_shard_window(std::size_t i, SimTime end) {
  Simulator* sim = shards_[i].sim;
  if (profiler_ == nullptr) {
    sim->run_window(end);
    return;
  }
  // Slot discipline: shard i's window slot is written only by the one
  // worker advancing shard i this window (same rule as the outboxes), so
  // the profiler needs no locks.
  const std::uint64_t t0 = wall_ns();
  const std::uint64_t ev0 = sim->executed_events();
  sim->run_window(end);
  profiler_->record_shard_window(i, wall_ns() - t0,
                                 sim->executed_events() - ev0);
}

void ParallelEngine::worker_loop(std::size_t worker) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    SimTime end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock,
                    [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      end = window_end_;
    }
    // Static slice: worker w advances shards w, w+T, w+2T, ... Shards are
    // independent inside a window, so the assignment affects wall-clock
    // only, never the produced schedule.
    for (std::size_t i = worker; i < shards_.size(); i += config_.threads) {
      run_shard_window(i, end);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    cv_done_.notify_one();
  }
}

void ParallelEngine::run_window_parallel(SimTime end) {
  if (config_.threads <= 1 || shards_.size() <= 1) {
    for (std::size_t i = 0; i < shards_.size(); ++i) run_shard_window(i, end);
    return;
  }
  if (workers_.empty()) {
    const std::size_t n = std::min(config_.threads, shards_.size());
    config_.threads = n;
    workers_.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_end_ = end;
    workers_done_ = 0;
    ++epoch_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return workers_done_ == workers_.size(); });
  }
}

void ParallelEngine::drain_outboxes(SimTime end) {
  // Gather every staged delivery and impose the deterministic total order:
  // (deliver time, source shard, source sequence). Destination simulators
  // assign their tie-break sequence numbers in this order, so equal-time
  // deliveries on one shard always fire in the same relative order no
  // matter which worker staged them first in wall-clock. Sources that
  // staged nothing are skipped outright, so a quiet window costs one count
  // test per shard.
  std::vector<DrainEntry>& all = drain_buf_;
  all.clear();
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    if (shards_[src].staged == 0) continue;
    for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
      std::vector<Staged>& box = shards_[src].outbox[dst];
      if (box.empty()) continue;
      if (profiler_ != nullptr) {
        profiler_->record_injections(src, dst, box.size());
      }
      for (Staged& st : box) {
        all.push_back(DrainEntry{st.when, src, st.seq, dst, &st.action});
      }
    }
  }
  if (all.empty()) return;
  std::sort(all.begin(), all.end(),
            [](const DrainEntry& a, const DrainEntry& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (DrainEntry& e : all) {
    // The lookahead discipline guarantees nothing staged in a window is due
    // before the window's end; a violation would mean the message raced
    // events that already executed.
    assert(e.when >= end);
    const SimTime when = e.when < end ? end : e.when;
    shards_[e.dst].sim->schedule_at(when, std::move(*e.action));
    ++posted_;
  }
  for (Shard& s : shards_) {
    if (s.staged == 0) continue;
    for (auto& box : s.outbox) box.clear();
    s.staged = 0;
  }
}

SimTime ParallelEngine::run(const std::function<bool()>& stop_when,
                            SimTime deadline) {
  if (shards_.empty()) {
    throw std::logic_error("ParallelEngine: run() with no shards");
  }
  SimTime global = 0;
  while (true) {
    // Next window starts at the globally earliest pending event — idle
    // stretches are skipped entirely. Computed from shard state between
    // windows, so it is a pure function of the simulation, not the threads.
    SimTime m = -1;
    for (Shard& s : shards_) {
      const SimTime t = s.sim->next_event_time();
      if (t >= 0 && (m < 0 || t < m)) m = t;
    }
    if (m < 0 || m >= deadline) {
      if (m >= 0) global = std::max(global, deadline);
      break;
    }
    const SimTime end = std::min(m + config_.lookahead, deadline);
    if (profiler_ != nullptr) {
      profiler_->resize(shards_.size());
      profiler_->begin_window(m, global);
    }
    run_window_parallel(end);
    global = end;
    ++windows_;
    if (profiler_ != nullptr) {
      const std::uint64_t t0 = wall_ns();
      drain_outboxes(end);
      profiler_->add_drain_ns(wall_ns() - t0);
    } else {
      drain_outboxes(end);
    }
    if (hook_) {
      const std::uint64_t t0 = profiler_ != nullptr ? wall_ns() : 0;
      hook_(end);
      // The hook may itself stage deliveries (it runs in coordinator context
      // where post() is legal). Inject them now: if one of them is the only
      // remaining work, the earliest-event scan above must be able to see it.
      drain_outboxes(end);
      if (profiler_ != nullptr) profiler_->add_hook_ns(wall_ns() - t0);
    }
    if (profiler_ != nullptr) profiler_->end_window();
    if (stop_when && stop_when()) break;
  }
  return global;
}

}  // namespace smartmem::sim
