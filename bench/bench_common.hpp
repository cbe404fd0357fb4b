// Shared helpers for the reproduction benches: seeded batch runs over
// core::run_once (parallel across seeds), aggregation utilities, and the
// BENCH_JSON perf-tracking line every bench binary emits on exit.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/obs/export.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/util/parse_number.hpp"

namespace h2priv::bench {

/// Process-wide bench state: CLI options plus the perf totals that feed the
/// final BENCH_JSON line. One instance per bench binary (they are separate
/// executables; the header is their only harness).
struct Harness {
  int runs = 100;            ///< downloads per configuration (paper: 100)
  core::Parallelism jobs{};  ///< batch worker threads (0 = all hw threads)
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();

  // Accumulated across every run_batch() call in the binary.
  int total_runs = 0;
  double batch_wall_s = 0.0;
  std::uint64_t total_events = 0;

  static Harness& instance() {
    static Harness h;
    return h;
  }
};

/// Prints "<bench>: bad argument WHAT" and exits 2, as h2priv_trace does
/// for an argument it cannot parse.
[[noreturn]] inline void bad_argument(const char* argv0, const std::string& what) {
  const char* slash = std::strrchr(argv0, '/');
  std::fprintf(stderr, "%s: bad argument %s\n", slash != nullptr ? slash + 1 : argv0,
               what.c_str());
  std::exit(2);
}

/// Parses bench CLI options and arms the harness. Accepted forms:
///   <runs>            positional first argument, the smoke-run idiom
///   --runs N
///   --jobs N          batch worker threads; 0 = all hardware threads
/// plus the H2PRIV_JOBS environment variable, read like --jobs and
/// overridden by it; unset means all hardware threads. Counts parse whole
/// (util::parse_number) and runs are at least 1; any other argument or
/// value, H2PRIV_JOBS's included, is a bad_argument. Returns the run count;
/// the paper repeats each experiment 100 times.
inline int runs_from_argv(int argc, char** argv, int fallback = 100) {
  Harness& h = Harness::instance();
  h.runs = fallback;
  h.jobs = core::Parallelism{0};
  if (const char* env = std::getenv("H2PRIV_JOBS")) {
    if (!util::parse_number(env, h.jobs.jobs)) {
      bad_argument(argv[0], std::string("H2PRIV_JOBS=") + env);
    }
  }
  const auto count = [argv](int at, int min, const std::string& what) {
    int n = 0;
    if (!util::parse_number(argv[at], n) || n < min) bad_argument(argv[0], what);
    return n;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--jobs" || arg == "--runs") && i + 1 < argc) {
      ++i;
      const std::string what = arg + " " + argv[i];
      if (arg == "--jobs") {
        h.jobs.jobs = count(i, 0, what);
      } else {
        h.runs = count(i, 1, what);
      }
    } else if (i == 1 && !arg.starts_with("--")) {
      h.runs = count(i, 1, arg);
    } else {
      bad_argument(argv[0], arg);
    }
  }
  return h.runs;
}

struct Batch {
  std::vector<core::RunResult> results;
  double wall_seconds = 0.0;          ///< wall-clock for this batch
  std::uint64_t events_executed = 0;  ///< summed simulator events
  int jobs_used = 1;

  [[nodiscard]] int n() const { return static_cast<int>(results.size()); }

  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(events_executed) / wall_seconds : 0.0;
  }

  [[nodiscard]] double pct(auto&& predicate) const {
    int hits = 0;
    for (const auto& r : results) hits += static_cast<bool>(predicate(r));
    return 100.0 * hits / std::max(1, n());
  }

  [[nodiscard]] double mean(auto&& metric) const {
    double acc = 0;
    for (const auto& r : results) acc += static_cast<double>(metric(r));
    return acc / std::max(1, n());
  }
};

/// Monotonic wall-clock seconds, for timing a bench phase.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// run_batch over a caller's batch runner: `run(config, runs, jobs)` returns
/// one RunResult per seed, as core::run_many does (bench_replay passes one
/// that records a corpus). Timed and totalled like run_batch.
template <typename Run>
inline Batch run_batch_with(core::RunConfig config, int runs, std::uint64_t base_seed,
                            const Run& run) {
  Harness& h = Harness::instance();
  Batch b;
  b.jobs_used = core::effective_jobs(h.jobs, runs);
  config.seed = base_seed;
  const double t0 = now_s();
  b.results = run(config, runs, h.jobs);
  b.wall_seconds = now_s() - t0;
  for (const auto& r : b.results) b.events_executed += r.events_executed;
  h.total_runs += b.n();
  h.batch_wall_s += b.wall_seconds;
  h.total_events += b.events_executed;
  return b;
}

/// Runs seeds {base_seed .. base_seed+runs-1} across the harness's worker
/// pool (see --jobs / H2PRIV_JOBS). Results are bit-identical to the serial
/// loop for every job count; only the wall clock changes.
inline Batch run_batch(core::RunConfig config, int runs,
                       std::uint64_t base_seed = 1'000) {
  return run_batch_with(std::move(config), runs, base_seed,
                        [](const core::RunConfig& c, int n, core::Parallelism jobs) {
                          return core::run_many(c, n, jobs);
                        });
}

inline void print_header(const char* id, const char* paper_ref, const char* what,
                         int runs) {
  const Harness& h = Harness::instance();
  std::printf("=========================================================================="
              "\n");
  std::printf("%s — %s\n", id, paper_ref);
  std::printf("%s\n", what);
  std::printf("(%d simulated page loads per configuration, %d worker thread(s))\n", runs,
              core::effective_jobs(h.jobs, std::max(1, runs)));
  std::printf("=========================================================================="
              "\n");
}

/// Prints the batch-layer perf summary for one batch (optional, human-facing).
inline void print_batch_perf(const Batch& b) {
  std::printf("  [%d runs in %.2fs, %d job(s), %.2fM events, %.2fM events/s]\n", b.n(),
              b.wall_seconds, b.jobs_used, static_cast<double>(b.events_executed) / 1e6,
              b.events_per_second() / 1e6);
}

/// Emits the final machine-readable perf line. `metrics` carries the bench's
/// headline numbers (e.g. attack success rate); the harness adds runs, jobs,
/// wall_s and events so the perf trajectory is trackable across PRs:
///   BENCH_JSON {"name":"table1_jitter","runs":400,...,"metrics":{...}}
inline void emit_bench_json(
    const char* name, const std::vector<std::pair<std::string, double>>& metrics = {}) {
  const Harness& h = Harness::instance();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - h.started).count();
  const double batch_wall = h.batch_wall_s > 0 ? h.batch_wall_s : wall_s;
  const double events_per_s =
      batch_wall > 0 ? static_cast<double>(h.total_events) / batch_wall : 0.0;
  std::printf("BENCH_JSON {\"name\":\"%s\",\"runs\":%d,\"jobs\":%d,\"wall_s\":%.3f,"
              "\"batch_wall_s\":%.3f,\"events\":%llu,\"events_per_s\":%.5g,\"metrics\":{",
              name, h.total_runs, core::effective_jobs(h.jobs, std::max(1, h.runs)),
              wall_s, h.batch_wall_s, static_cast<unsigned long long>(h.total_events),
              events_per_s);
  bool first = true;
  for (const auto& [key, value] : metrics) {
    std::printf("%s\"%s\":%.6g", first ? "" : ",", key.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  // The per-layer observability snapshot rides along on its own line. The
  // main thread's registry holds everything: parallel_for merged each
  // worker's counts into it at join. collect_bench.py pairs the two lines
  // and its compare mode hard-fails on drift of the deterministic counters.
  std::printf("METRICS_JSON %s\n", obs::to_json(obs::current()).c_str());
}

}  // namespace h2priv::bench
