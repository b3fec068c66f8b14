// Fleet scaling figure: the control plane at nodes x VMs/node scale.
//
// Sweeps the fleet geometry (node count x tenants per node) x the control-
// plane encoding (classic full-vector vs DESIGN §12 delta) under the
// multi-tenant fleet workload: zipf-ranked tenant intensity (node 0 holds
// the hottest tenants), staggered arrivals, YCSB-style phase mixes. The
// simulated outcome (failed puts, makespan, decisions) is byte-identical
// between the two encodings — the sweep isolates what the encodings cost:
// control-plane payload bytes per sampling interval, resync counts, and
// the suppression counters, all reported in the trailing CSV columns.
//
// CSV layout contract (checked by CI):
//   - columns 1-10 (nodes..makespan_s) are encoding-independent: a
//     `--fleet-encoding delta` run and a `--fleet-encoding full` run md5
//     to the same value after `cut -d, -f1-10`.
//   - column 2 is sim_threads: runs at different --sim-threads md5 to the
//     same value after `cut -d, -f2 --complement`.
//   - wall-clock and the mm_decide_ns probe are printed to stdout only.
//
// Flags (all values strictly validated; garbage exits with status 2):
//   --scale/--reps/--seed/--jobs/--csv   as every figure bench
//   --sim-threads n          parallel-engine workers (output-invariant)
//   --fleet-nodes n          restrict to one node count (default sweep 2,4,8)
//   --fleet-vms n            tenants per node (default 8)
//   --fleet-skew f           zipf exponent of tenant intensity (default 0.8)
//   --fleet-mix m            read-heavy | balanced | write-heavy
//   --fleet-policy p         global-static | global-smart[:P]
//   --fleet-encoding e       delta | full | both (default both)
//   --fleet-resync n         delta resync cadence (default 16)
//   --fleet-no-lending       disable remote-tmem lending
//   --fleet-lending-heavy    hot-node/cold-donor geometry (node 0 spills at
//                            1.6x usable RAM, others fit at 0.55x) so the
//                            borrow path actually runs
//   --fleet-async-lending    borrows as fabric round trips (DESIGN §15)
//   --fleet-lend-cache n     borrower-side cache capacity in pages (0 = off)
//   --fleet-lend-rtt-x f     multiply the lending-hop wire latencies
//   --fleet-lend-loss p      per-message loss probability on both lend hops
//   --fleet-lend-reorder p   per-message reorder probability on both hops
//   --fleet-lend-outage-from-s s / --fleet-lend-outage-dur-s d
//                            outage window on both lend hops
//                            (async lending runs also write fleet_lending.csv
//                            with --csv: deterministic columns only, no
//                            sim_threads column, md5-comparable across
//                            --sim-threads)
//   --profile                engine self-profile: per-shard busy/barrier-wait/
//                            injection table + bottleneck attribution (stdout;
//                            fleet_profile.csv with --csv). Wall-clock only —
//                            fig_fleet_scaling.csv stays byte-identical.
//   --trace-sample n         keep 1-in-n hot-path spans in the observed run
//   --trace-out/--metrics-out/--audit-out f
//                            one extra observed run (first delta cell, rep
//                            0) exporting the requested pillars; feed the
//                            metrics file to obs_inspect.py fleet-report.
//                            With --csv its outcome row goes to
//                            fleet_observed.csv, which must equal that
//                            cell's rep-0 row except gm_clean_decides (an
//                            audit turns the GM's clean-decide path off)
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace smartmem;

struct Options {
  double scale = 0.125;
  std::size_t reps = 2;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  std::size_t sim_threads = 1;
  std::string csv_dir;
  std::size_t nodes = 0;  // 0 = sweep {2, 4, 8}
  std::size_t vms = 8;
  double skew = 0.8;
  workloads::FleetMix mix = workloads::FleetMix::kBalanced;
  std::string policy = "global-smart";
  std::string encoding = "both";  // delta | full | both
  std::uint64_t resync = 16;
  bool lending = true;
  bool lending_heavy = false;
  bool async_lending = false;
  std::uint64_t lend_cache = 0;
  double lend_rtt_x = 1.0;
  double lend_loss = 0.0;
  double lend_reorder = 0.0;
  double lend_outage_from_s = -1.0;
  double lend_outage_dur_s = 0.0;
  bool profile = false;
  std::uint64_t trace_sample = 1;
  std::string trace_out;
  std::string metrics_out;
  std::string audit_out;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "fig_fleet_scaling [--scale f] [--reps n] [--seed n] [--jobs n]\n"
      "  [--sim-threads n] [--csv dir]\n"
      "  [--fleet-nodes n] [--fleet-vms n] [--fleet-skew f]\n"
      "  [--fleet-mix read-heavy|balanced|write-heavy]\n"
      "  [--fleet-policy p] [--fleet-encoding delta|full|both]\n"
      "  [--fleet-resync n]\n"
      "  [--fleet-no-lending] [--fleet-lending-heavy] [--fleet-async-lending]\n"
      "  [--fleet-lend-cache n] [--fleet-lend-rtt-x f] [--fleet-lend-loss p]\n"
      "  [--fleet-lend-reorder p] [--fleet-lend-outage-from-s s]\n"
      "  [--fleet-lend-outage-dur-s d] [--profile] [--trace-sample n]\n"
      "  [--trace-out f] [--metrics-out f] [--audit-out f]\n");
}

[[noreturn]] void bad_value(const char* flag, const char* value) {
  std::fprintf(stderr, "bad value for %s: '%s'\n", flag, value);
  usage(stderr);
  std::exit(2);
}

/// Strict numeric parsers: the whole token must convert, and the result
/// must sit inside the flag's valid range.
std::uint64_t parse_u64(const char* flag, const char* value,
                        std::uint64_t min, std::uint64_t max) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' || v < min || v > max) {
    bad_value(flag, value);
  }
  return static_cast<std::uint64_t>(v);
}

double parse_f64(const char* flag, const char* value, double min, double max) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (errno != 0 || end == value || *end != '\0' || !(v >= min) || !(v <= max)) {
    bad_value(flag, value);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      usage(stderr);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale") {
      o.scale = parse_f64("--scale", next(i), 1e-3, 16.0);
    } else if (arg == "--reps") {
      o.reps = parse_u64("--reps", next(i), 1, 1000);
    } else if (arg == "--seed") {
      o.seed = parse_u64("--seed", next(i), 0, UINT64_MAX);
    } else if (arg == "--jobs") {
      o.jobs = parse_u64("--jobs", next(i), 0, 4096);
    } else if (arg == "--sim-threads") {
      o.sim_threads = parse_u64("--sim-threads", next(i), 0, 4096);
    } else if (arg == "--csv") {
      o.csv_dir = next(i);
    } else if (arg == "--fleet-nodes") {
      o.nodes = parse_u64("--fleet-nodes", next(i), 2, 256);
    } else if (arg == "--fleet-vms") {
      o.vms = parse_u64("--fleet-vms", next(i), 1, 256);
    } else if (arg == "--fleet-skew") {
      o.skew = parse_f64("--fleet-skew", next(i), 0.0, 4.0);
    } else if (arg == "--fleet-mix") {
      const char* v = next(i);
      if (!workloads::parse_fleet_mix(v, o.mix)) bad_value("--fleet-mix", v);
    } else if (arg == "--fleet-policy") {
      o.policy = next(i);
    } else if (arg == "--fleet-encoding") {
      o.encoding = next(i);
      if (o.encoding != "delta" && o.encoding != "full" &&
          o.encoding != "both") {
        bad_value("--fleet-encoding", o.encoding.c_str());
      }
    } else if (arg == "--fleet-resync") {
      o.resync = parse_u64("--fleet-resync", next(i), 1, 1u << 20);
    } else if (arg == "--fleet-no-lending") {
      o.lending = false;
    } else if (arg == "--fleet-lending-heavy") {
      o.lending_heavy = true;
    } else if (arg == "--fleet-async-lending") {
      o.async_lending = true;
    } else if (arg == "--fleet-lend-cache") {
      o.lend_cache = parse_u64("--fleet-lend-cache", next(i), 0, 1u << 24);
    } else if (arg == "--fleet-lend-rtt-x") {
      o.lend_rtt_x = parse_f64("--fleet-lend-rtt-x", next(i), 0.01, 1000.0);
    } else if (arg == "--fleet-lend-loss") {
      o.lend_loss = parse_f64("--fleet-lend-loss", next(i), 0.0, 1.0);
    } else if (arg == "--fleet-lend-reorder") {
      o.lend_reorder = parse_f64("--fleet-lend-reorder", next(i), 0.0, 1.0);
    } else if (arg == "--fleet-lend-outage-from-s") {
      o.lend_outage_from_s =
          parse_f64("--fleet-lend-outage-from-s", next(i), 0.0, 1e6);
    } else if (arg == "--fleet-lend-outage-dur-s") {
      o.lend_outage_dur_s =
          parse_f64("--fleet-lend-outage-dur-s", next(i), 0.0, 1e6);
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--trace-sample") {
      o.trace_sample = parse_u64("--trace-sample", next(i), 1, 1u << 20);
    } else if (arg == "--trace-out") {
      o.trace_out = next(i);
    } else if (arg == "--metrics-out") {
      o.metrics_out = next(i);
    } else if (arg == "--audit-out") {
      o.audit_out = next(i);
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(stderr);
      std::exit(2);
    }
  }
  return o;
}

struct Cell {
  std::size_t nodes = 2;
  bool delta = false;
};

/// Applies the lending knobs shared by the measured grid and the observed
/// run. The async block only fires under --fleet-async-lending, so default
/// runs keep the historic config byte-for-byte.
void apply_lending(const Options& o, cluster::FleetExperimentConfig& cfg) {
  cfg.lending = o.lending;
  cfg.lending_heavy = o.lending_heavy;
  if (o.async_lending) {
    cfg.lending_async.enabled = true;
    cfg.lending_async.cache_pages = o.lend_cache;
    cfg.lend_rtt_x = o.lend_rtt_x;
    cfg.lend_fault.loss_rate = o.lend_loss;
    cfg.lend_fault.reorder_rate = o.lend_reorder;
    if (o.lend_outage_from_s >= 0.0) {
      cfg.lend_fault.down_from = static_cast<SimTime>(
          o.lend_outage_from_s * static_cast<double>(kSecond));
      cfg.lend_fault.down_until = static_cast<SimTime>(
          (o.lend_outage_from_s + o.lend_outage_dur_s) *
          static_cast<double>(kSecond));
    }
  }
}

cluster::FleetExperimentConfig cell_config(const Options& o, const Cell& cell,
                                           std::uint64_t seed) {
  cluster::FleetExperimentConfig cfg;
  cfg.nodes = cell.nodes;
  cfg.vms_per_node = o.vms;
  cfg.skew = o.skew;
  cfg.mix = o.mix;
  cfg.global_policy = o.policy;
  apply_lending(o, cfg);
  cfg.delta = cell.delta;
  cfg.resync_every = o.resync;
  cfg.scale = o.scale;
  cfg.seed = seed;
  cfg.sim_threads = o.sim_threads;
  cfg.profile = o.profile;
  return cfg;
}

double per_interval(std::uint64_t bytes, std::uint64_t intervals) {
  return intervals == 0 ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(intervals);
}

// Columns 1-10 are encoding-independent (delta-vs-full md5 cross-check cuts
// to them); column 2 is sim_threads (thread-count check cuts it away);
// everything encoding-dependent rides at the end.
constexpr const char* kCsvHeader =
    "nodes,sim_threads,vms_per_node,skew,mix,global_policy,"
    "rep,failed_puts,puts_total,makespan_s,"
    "encoding,puts_succ,node_control_bytes,rack_control_bytes,"
    "mm_samples,node_bytes_per_interval,stats_full_sends,"
    "targets_full_sends,rollups_suppressed,quota_sends_skipped,"
    "gm_clean_decides,mm_incremental_decides,borrow_placements,"
    "lending_failed_placements\n";

void write_row(std::ostream& csv, const Options& o, const Cell& cell,
               std::size_t rep, const cluster::FleetRunResult& r) {
  char line[640];
  std::snprintf(
      line, sizeof line,
      "%zu,%zu,%zu,%g,%s,%s,%zu,%llu,%llu,%.6f,"
      "%s,%llu,%llu,%llu,%llu,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,"
      "%llu,%llu\n",
      cell.nodes, o.sim_threads, o.vms, o.skew, workloads::to_string(o.mix),
      o.policy.c_str(), rep,
      static_cast<unsigned long long>(r.aggregate_failed_puts),
      static_cast<unsigned long long>(r.puts_total), r.makespan_s,
      cell.delta ? "delta" : "full",
      static_cast<unsigned long long>(r.puts_succ),
      static_cast<unsigned long long>(r.node_control_bytes),
      static_cast<unsigned long long>(r.rack_control_bytes),
      static_cast<unsigned long long>(r.mm_samples),
      per_interval(r.node_control_bytes, r.mm_samples),
      static_cast<unsigned long long>(r.stats_full_sends),
      static_cast<unsigned long long>(r.targets_full_sends),
      static_cast<unsigned long long>(r.rollups_suppressed),
      static_cast<unsigned long long>(r.quota_sends_skipped),
      static_cast<unsigned long long>(r.gm_clean_decides),
      static_cast<unsigned long long>(r.mm_incremental_decides),
      static_cast<unsigned long long>(r.borrow_placements),
      static_cast<unsigned long long>(r.lending_failed_placements));
  csv << line;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  const std::vector<std::size_t> node_counts =
      o.nodes != 0 ? std::vector<std::size_t>{o.nodes}
                   : std::vector<std::size_t>{2, 4, 8};
  std::vector<bool> encodings;
  if (o.encoding == "full" || o.encoding == "both") encodings.push_back(false);
  if (o.encoding == "delta" || o.encoding == "both") encodings.push_back(true);

  std::vector<Cell> cells;
  for (const std::size_t n : node_counts) {
    for (const bool d : encodings) cells.push_back(Cell{n, d});
  }

  std::printf("=== fleet scaling: %zu tenants/node, skew %g, mix %s, %s ===\n",
              o.vms, o.skew, workloads::to_string(o.mix), o.policy.c_str());
  std::printf("%zu cell(s) x %zu rep(s), scale %g, resync %llu, "
              "lending %s, sim-threads %zu\n\n",
              cells.size(), o.reps, o.scale,
              static_cast<unsigned long long>(o.resync),
              o.lending ? "on" : "off",
              o.sim_threads);

  // Wall-clock and the decide-ns probe go to stdout only — the CSV must
  // stay byte-identical across --sim-threads and machine speeds.
  std::vector<cluster::FleetRunResult> runs(cells.size() * o.reps);
  std::vector<double> wall(runs.size());
  parallel_for_each(o.jobs, runs.size(), [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    runs[i] = cluster::run_fleet_scenario(
        cell_config(o, cells[i / o.reps], o.seed + (i % o.reps)));
    wall[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  });

  std::printf("%-6s %-5s %14s %13s %13s %12s %10s %12s %9s\n", "nodes",
              "enc", "failed_puts", "node_B/intvl", "rack_B/intvl",
              "mm_samples", "makespan", "decide_ns/d", "wall");
  std::vector<double> mean_bpi(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    RunningStats failed, bpi, rbpi, makespan, wall_s, decide;
    std::uint64_t samples = 0;
    for (std::size_t rep = 0; rep < o.reps; ++rep) {
      const cluster::FleetRunResult& r = runs[c * o.reps + rep];
      failed.add(static_cast<double>(r.aggregate_failed_puts));
      bpi.add(per_interval(r.node_control_bytes, r.mm_samples));
      rbpi.add(per_interval(r.rack_control_bytes, r.gm_decisions));
      makespan.add(r.makespan_s);
      wall_s.add(wall[c * o.reps + rep]);
      if (r.mm_decides > 0) {
        decide.add(static_cast<double>(r.mm_decide_ns) /
                   static_cast<double>(r.mm_decides));
      }
      samples += r.mm_samples;
    }
    mean_bpi[c] = bpi.mean();
    std::printf("%-6zu %-5s %14.0f %13.1f %13.1f %12llu %9.1fs %12.0f %8.2fs\n",
                cells[c].nodes, cells[c].delta ? "delta" : "full",
                failed.mean(), bpi.mean(), rbpi.mean(),
                static_cast<unsigned long long>(samples / o.reps),
                makespan.mean(), decide.mean(), wall_s.mean());
  }

  if (o.profile) {
    // Engine self-profile (wall-clock — stdout and fleet_profile.csv only;
    // the outcome CSV above must stay byte-identical with --profile on).
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const cluster::FleetRunResult& r = runs[c * o.reps];  // rep 0
      if (r.profile.empty()) continue;
      std::printf("\n--- profile: %zu nodes, %s (rep 0) ---\n",
                  cells[c].nodes, cells[c].delta ? "delta" : "full");
      std::printf("%-6s %10s %10s %8s %8s %10s %9s %9s %7s\n", "shard",
                  "busy_ms", "wait_ms", "occ_mean", "occ_p95", "events",
                  "inj_out", "inj_in", "crit_w");
      // Busiest first; at 64 nodes the full table is noise, so cap at the
      // top 10 — the CSV keeps every shard.
      std::vector<const cluster::FleetRunResult::ShardProfileRow*> rows;
      rows.reserve(r.profile.size());
      for (const auto& row : r.profile) rows.push_back(&row);
      std::sort(rows.begin(), rows.end(),
                [](const auto* a, const auto* b) {
                  return a->busy_ms > b->busy_ms;
                });
      const std::size_t shown = std::min<std::size_t>(rows.size(), 10);
      for (std::size_t s = 0; s < shown; ++s) {
        const auto& row = *rows[s];
        std::printf("%-6s %10.2f %10.2f %8.2f %8.2f %10llu %9llu %9llu "
                    "%7llu\n",
                    row.label.c_str(), row.busy_ms, row.barrier_wait_ms,
                    row.occupancy_mean, row.occupancy_p95,
                    static_cast<unsigned long long>(row.events),
                    static_cast<unsigned long long>(row.injections_out),
                    static_cast<unsigned long long>(row.injections_in),
                    static_cast<unsigned long long>(row.critical_windows));
      }
      if (shown < rows.size()) {
        std::printf("  ... %zu more shards (see fleet_profile.csv)\n",
                    rows.size() - shown);
      }
      std::printf("bottleneck: %s | windows %llu, idle-skip %.1fs sim, "
                  "critical-path %.1fms, drain %.2fms, hook %.2fms\n",
                  r.bottleneck.c_str(),
                  static_cast<unsigned long long>(r.engine_windows),
                  r.engine_idle_skip_s, r.engine_window_wall_ms,
                  r.engine_drain_ms, r.engine_hook_ms);
    }
  }

  if (o.async_lending) {
    // Lending summary (all simulation-visible, so deterministic): one line
    // per cell so the smoke job can grep borrow_placements straight off
    // stdout as well as out of fleet_lending.csv.
    std::printf("\n%-6s %-5s %9s %9s %9s %8s %8s %8s %8s %9s %9s\n", "nodes",
                "enc", "borrows", "fab_reqs", "retries", "giveups", "c_hits",
                "c_miss", "c_inval", "put_rtt", "get_rtt");
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::uint64_t borrows = 0, reqs = 0, retries = 0, giveups = 0;
      std::uint64_t chits = 0, cmiss = 0, cinval = 0;
      RunningStats put_rtt, get_rtt;
      for (std::size_t rep = 0; rep < o.reps; ++rep) {
        const cluster::FleetRunResult& r = runs[c * o.reps + rep];
        borrows += r.borrow_placements;
        reqs += r.fabric_requests;
        retries += r.fabric_retries;
        giveups += r.fabric_give_ups;
        chits += r.cache_hits;
        cmiss += r.cache_misses;
        cinval += r.cache_invalidations;
        put_rtt.add(r.put_rtt_mean_us);
        get_rtt.add(r.get_rtt_mean_us);
      }
      std::printf(
          "%-6zu %-5s %9llu %9llu %9llu %8llu %8llu %8llu %8llu %8.1fu %8.1fu\n",
          cells[c].nodes, cells[c].delta ? "delta" : "full",
          static_cast<unsigned long long>(borrows),
          static_cast<unsigned long long>(reqs),
          static_cast<unsigned long long>(retries),
          static_cast<unsigned long long>(giveups),
          static_cast<unsigned long long>(chits),
          static_cast<unsigned long long>(cmiss),
          static_cast<unsigned long long>(cinval), put_rtt.mean(),
          get_rtt.mean());
    }
  }

  // Headline: the delta encoding's steady-state saving where both
  // encodings ran at the same geometry.
  for (std::size_t a = 0; a < cells.size(); ++a) {
    if (cells[a].delta) continue;
    for (std::size_t b = 0; b < cells.size(); ++b) {
      if (!cells[b].delta || cells[b].nodes != cells[a].nodes) continue;
      if (mean_bpi[b] > 0.0) {
        std::printf("\n%zu nodes: delta control-plane bytes/interval %.1f vs "
                    "full %.1f (%.1fx saving)\n",
                    cells[a].nodes, mean_bpi[b], mean_bpi[a],
                    mean_bpi[a] / mean_bpi[b]);
      }
    }
  }

  if (!o.csv_dir.empty()) {
    const std::string path = o.csv_dir + "/fig_fleet_scaling.csv";
    std::ofstream csv(path);
    csv << kCsvHeader;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t rep = 0; rep < o.reps; ++rep) {
        write_row(csv, o, cells[c], rep, runs[c * o.reps + rep]);
      }
    }
    std::printf("\nwrote %s\n", path.c_str());

    if (o.async_lending) {
      // Separate artifact so the md5-checked fig_fleet_scaling.csv layout
      // never changes on the default path. Deliberately no sim_threads
      // column and no wall-clock fields: the whole file md5-compares across
      // --sim-threads values (the CI lending smoke job does exactly that).
      const std::string lpath = o.csv_dir + "/fleet_lending.csv";
      std::ofstream lcsv(lpath);
      lcsv << "nodes,encoding,rep,borrow_placements,failed_placements,"
              "borrow_hits,borrow_misses,recalls,failed_replacements,"
              "fabric_requests,fabric_retries,fabric_timeouts,"
              "fabric_give_ups,fabric_congestion_drops,fabric_get_fallbacks,"
              "cache_hits,cache_misses,cache_invalidations,"
              "put_rtt_mean_us,get_rtt_mean_us,get_rtt_count\n";
      for (std::size_t c = 0; c < cells.size(); ++c) {
        for (std::size_t rep = 0; rep < o.reps; ++rep) {
          const cluster::FleetRunResult& r = runs[c * o.reps + rep];
          char line[512];
          std::snprintf(
              line, sizeof line,
              "%zu,%s,%zu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
              "%llu,%llu,%llu,%llu,%llu,%llu,%.3f,%.3f,%llu\n",
              cells[c].nodes, cells[c].delta ? "delta" : "full", rep,
              static_cast<unsigned long long>(r.borrow_placements),
              static_cast<unsigned long long>(r.lending_failed_placements),
              static_cast<unsigned long long>(r.borrow_hits),
              static_cast<unsigned long long>(r.borrow_misses),
              static_cast<unsigned long long>(r.lending_recalls),
              static_cast<unsigned long long>(r.lending_failed_replacements),
              static_cast<unsigned long long>(r.fabric_requests),
              static_cast<unsigned long long>(r.fabric_retries),
              static_cast<unsigned long long>(r.fabric_timeouts),
              static_cast<unsigned long long>(r.fabric_give_ups),
              static_cast<unsigned long long>(r.fabric_congestion_drops),
              static_cast<unsigned long long>(r.fabric_get_fallbacks),
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.cache_misses),
              static_cast<unsigned long long>(r.cache_invalidations),
              r.put_rtt_mean_us, r.get_rtt_mean_us,
              static_cast<unsigned long long>(r.get_rtt_count));
          lcsv << line;
        }
      }
      std::printf("wrote %s\n", lpath.c_str());
    }

    if (o.profile) {
      // Separate artifact on purpose: everything in here is wall-clock, so
      // it must never ride in the md5-checked outcome CSV.
      const std::string ppath = o.csv_dir + "/fleet_profile.csv";
      std::ofstream pcsv(ppath);
      pcsv << "nodes,encoding,rep,shard,busy_ms,barrier_wait_ms,"
              "occupancy_mean,occupancy_p95,events,injections_out,"
              "injections_in,critical_windows,bottleneck,windows,"
              "idle_skip_s,window_wall_ms,drain_ms,hook_ms\n";
      for (std::size_t c = 0; c < cells.size(); ++c) {
        for (std::size_t rep = 0; rep < o.reps; ++rep) {
          const cluster::FleetRunResult& r = runs[c * o.reps + rep];
          for (const auto& row : r.profile) {
            char line[512];
            std::snprintf(
                line, sizeof line,
                "%zu,%s,%zu,%s,%.3f,%.3f,%.4f,%.4f,%llu,%llu,%llu,%llu,"
                "%s,%llu,%.3f,%.3f,%.3f,%.3f\n",
                cells[c].nodes, cells[c].delta ? "delta" : "full", rep,
                row.label.c_str(), row.busy_ms, row.barrier_wait_ms,
                row.occupancy_mean, row.occupancy_p95,
                static_cast<unsigned long long>(row.events),
                static_cast<unsigned long long>(row.injections_out),
                static_cast<unsigned long long>(row.injections_in),
                static_cast<unsigned long long>(row.critical_windows),
                r.bottleneck.c_str(),
                static_cast<unsigned long long>(r.engine_windows),
                r.engine_idle_skip_s, r.engine_window_wall_ms,
                r.engine_drain_ms, r.engine_hook_ms);
            pcsv << line;
          }
        }
      }
      std::printf("wrote %s\n", ppath.c_str());
    }
  }

  if (!o.trace_out.empty() || !o.metrics_out.empty() || !o.audit_out.empty()) {
    // One extra observed run at the first cell's geometry: the measured
    // grid above stays observability-free so its wall columns mean what
    // they say. The metrics export is what obs_inspect.py fleet-report
    // reads; delta encoding on so the delta-health telemetry is live.
    Cell cell = cells.front();
    for (const Cell& c : cells) {
      if (c.delta) { cell = c; break; }
    }
    cluster::FleetExperimentConfig cfg = cell_config(o, cell, o.seed);
    cfg.obs.trace_out = o.trace_out;
    cfg.obs.metrics_out = o.metrics_out;
    cfg.obs.audit_out = o.audit_out;
    cfg.obs.trace_sample_every = o.trace_sample;
    std::printf("\nobserved run: %zu nodes, %s encoding, trace-sample %llu\n",
                cfg.nodes, cfg.delta ? "delta" : "full",
                static_cast<unsigned long long>(o.trace_sample));
    const cluster::FleetRunResult observed = cluster::run_fleet_scenario(cfg);
    if (!o.csv_dir.empty()) {
      std::ofstream ocsv(o.csv_dir + "/fleet_observed.csv");
      ocsv << kCsvHeader;
      write_row(ocsv, o, cell, 0, observed);
    }
    if (!o.trace_out.empty())
      std::printf("  trace:   %s\n", o.trace_out.c_str());
    if (!o.metrics_out.empty())
      std::printf("  metrics: %s\n", o.metrics_out.c_str());
    if (!o.audit_out.empty())
      std::printf("  audit:   %s\n", o.audit_out.c_str());
  }
  return 0;
}
