// Conservative parallel discrete-event engine.
//
// A fleet-scale run shards the simulation per VirtualNode: every shard owns
// a private Simulator (event queue, clock, RNG streams) and the engine
// advances all shards together in bounded time windows. The safety argument
// is the classic conservative-synchronization one: if every cross-shard
// interaction crosses a channel whose minimum latency is L (the ~5 ms rack
// hop), then an event executing at time t can only affect a peer shard at
// t' >= t + L. A window [m, m + W) with W <= L — m being the globally
// earliest pending event — therefore cannot receive any message generated
// inside itself, and all shards may execute their window concurrently with
// no locks on simulation state. The window barrier plays the role of the
// null message in a distributed CMB protocol: it broadcasts "no shard will
// send anything before m + W" to everyone at once.
//
// Cross-shard sends are *staged*, not delivered: during a window a shard
// appends timestamped closures to a private per-destination outbox; at the
// barrier the coordinator drains every outbox and schedules the closures
// into the destination simulators in (deliver_time, source shard, source
// sequence) order. That total order — never the thread schedule — decides
// destination-side sequence numbers, which is what makes a multi-node run
// byte-identical at any thread count, including 1: a single-threaded run
// executes the exact same windowed schedule, just without workers.
//
// Zero lookahead is rejected outright (an unbounded-tail latency model such
// as lognormal gives no safe window), and the engine skips idle stretches by
// starting each window at the globally earliest pending event instead of
// marching in fixed W steps.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace smartmem::sim {

class EngineProfiler;

class ParallelEngine {
 public:
  struct Config {
    /// Minimum cross-shard latency: no message staged inside a window may be
    /// due before the window ends. Must be > 0 (throws otherwise).
    SimTime lookahead = 0;
    /// Worker threads; 1 runs windows inline on the calling thread. The
    /// produced event schedule is identical for every value.
    std::size_t threads = 1;
  };

  explicit ParallelEngine(Config config);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Registers `sim` as the next shard; returns its shard id. All shards
  /// must be added before run(). The simulator must outlive the engine.
  std::size_t add_shard(Simulator* sim);
  std::size_t shard_count() const { return shards_.size(); }

  /// Stages a cross-shard delivery: `action` runs on shard `dst` at absolute
  /// time `when`. Must be called from shard `src`'s window (its own worker)
  /// or between windows; `when` must respect the lookahead discipline (due
  /// no earlier than the end of the current window — checked at the
  /// barrier).
  void post(std::size_t src, std::size_t dst, SimTime when,
            std::function<void()> action);

  /// Runs once at every window barrier (coordinator thread, all workers
  /// quiescent) with the window's end time. Cross-shard reads/writes are
  /// safe here; keep it cheap — it is the serial fraction of the run.
  void set_barrier_hook(std::function<void(SimTime)> hook);

  /// Attaches a self-profiler (per-shard busy/barrier-wait/injection and
  /// per-window idle-skip accounting — see sim/profiler.hpp). nullptr
  /// detaches; without one every hot-path hook is a single pointer test.
  /// The profiler observes wall clocks and counts only — it never alters
  /// the event schedule, so profiled runs stay byte-identical. Attach
  /// before run(); the profiler must outlive the engine's last run() call.
  void set_profiler(EngineProfiler* profiler);

  /// Advances every shard in conservative windows until `stop_when` returns
  /// true (evaluated at each barrier), no events remain anywhere, or the
  /// next window would start past `deadline`. Returns the global time (the
  /// last window end, or `deadline` when it cut the run short).
  SimTime run(const std::function<bool()>& stop_when, SimTime deadline);

  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t messages_posted() const { return posted_; }
  SimTime lookahead() const { return config_.lookahead; }

 private:
  struct Staged {
    SimTime when;
    std::uint64_t seq;  // per-source monotonic: ties break by posting order
    std::function<void()> action;
  };
  struct Shard {
    Simulator* sim;
    // outbox[dst]: staged deliveries, written only by this shard's worker
    // during a window, drained only by the coordinator at the barrier.
    std::vector<std::vector<Staged>> outbox;
    std::uint64_t next_post_seq = 0;
    // Deliveries staged since the last drain (same ownership as outbox):
    // the drain skips a source whose count is 0 without touching its boxes.
    std::size_t staged = 0;
  };
  // One staged delivery in the drain's (when, src, seq) order.
  struct DrainEntry {
    SimTime when;
    std::size_t src;
    std::uint64_t seq;
    std::size_t dst;
    std::function<void()>* action;
  };

  void run_window_parallel(SimTime end);
  void drain_outboxes(SimTime end);
  void worker_loop(std::size_t worker);

  /// Advances shard `i` to `end`, timing it into the profiler when one is
  /// attached (called from workers and the inline path alike).
  void run_shard_window(std::size_t i, SimTime end);

  Config config_;
  std::vector<Shard> shards_;
  std::function<void(SimTime)> hook_;
  EngineProfiler* profiler_ = nullptr;
  std::uint64_t windows_ = 0;
  std::uint64_t posted_ = 0;
  // Coordinator-only sort buffer, reused by every drain.
  std::vector<DrainEntry> drain_buf_;

  // Window barrier for persistent workers (created on first run() when
  // threads > 1): the coordinator publishes a window end and an epoch; each
  // worker runs its static slice of shards and reports done.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  std::uint64_t epoch_ = 0;
  SimTime window_end_ = 0;
  std::size_t workers_done_ = 0;
  bool shutdown_ = false;
};

}  // namespace smartmem::sim
