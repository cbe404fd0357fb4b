// Shared vocabulary of the perfbench binary: run options, the result every
// workload fills, benchmark-side spans, and small statistics helpers.
//
// Nothing here reaches into src/: spans are recorded around the benchmark's
// own calls into each layer's public entry points, and obs counters are read
// as deltas of a registry the benchmark installs over its timed window.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "h2priv/obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1000;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for .h2t output; removed before the process exits.
  std::string tmp_dir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string spans_out;
  /// Sensitivity self-test hook: a second open + record decode of every
  /// trace inside offline_score's timed scoring passes.
  bool inject_decode = false;
};

/// Per-layer and end-to-end numbers keyed by metric name.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Benchmark self-checks (span nesting, decomposition fidelity, ...).
  std::vector<std::string> check_failures;
  /// Digest of the scored fields of the oracle inputs (see oracle.json).
  std::uint64_t oracle_digest = 0;
  Metrics metrics;
  /// Human-readable extras printed before the result line.
  std::vector<std::pair<std::string, double>> notes;
};

// --- clocks ----------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// Length of the untraced timed window: all of --seconds, or half of it
/// when a traced window takes the other half.
[[nodiscard]] inline double timed_seconds(const Options& o) {
  return o.trace ? o.seconds / 2 : o.seconds;
}
/// now_ns() after `seconds` more seconds: the end of a timed window.
[[nodiscard]] inline std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}
/// CPU time of the whole process (all threads), in ns.
[[nodiscard]] std::int64_t process_cpu_ns();
[[nodiscard]] double peak_rss_mib();

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;  ///< seed or trace index the span serves
  [[nodiscard]] std::int64_t dur() const noexcept { return end_ns - start_ns; }
};

/// In-memory span store. Spans nest by call order on one thread: a span
/// opened while another is open becomes its child.
class SpanLog {
 public:
  int open(const char* name, std::uint64_t request);
  void close(int id);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span (duration minus its children's durations).
  /// Appends a failure to `failures` when a child escapes its parent,
  /// siblings overlap, or a root's subtree self times do not sum to the
  /// root's duration.
  [[nodiscard]] std::vector<std::int64_t> self_times(
      std::vector<std::string>& failures) const;

  /// Writes the spans as Chrome trace-event JSON (loads in Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t request)
      : log_(log), id_(log.open(name, request)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Summed self time per span name.
[[nodiscard]] std::map<std::string, std::int64_t> self_by_name(
    const SpanLog& log, std::vector<std::string>& failures);
/// Summed duration and count per span name.
struct SpanTotal {
  std::int64_t ns = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] std::map<std::string, SpanTotal> totals_by_name(const SpanLog& log);

// --- statistics and digests ------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, const std::string& text);
inline constexpr std::uint64_t kFnvInit = 0xcbf29ce484222325ULL;

// --- end-to-end metrics ----------------------------------------------------

/// Timing of one timed window: per-op latencies and the busy time they sum to.
struct Window {
  std::vector<double> op_ms;
  double busy_s = 0.0;
  std::uint64_t ops = 0;

  /// Records `n` ops that together took `ns`; each gets an equal share.
  void record(std::int64_t ns, std::uint64_t n = 1) {
    for (std::uint64_t i = 0; i < n; ++i) {
      op_ms.push_back(static_cast<double>(ns) / 1e6 / static_cast<double>(n));
    }
    busy_s += static_cast<double>(ns) / 1e9;
    ops += n;
  }
};

/// Fills the end-to-end metrics every workload reports.
void end_to_end_metrics(const Window& w, const std::vector<double>& setup_s,
                        Metrics& out);

// --- per-layer metrics -----------------------------------------------------

/// Counter deltas of the live stack (sim, net, tcp, tls, h2, client, pool),
/// per page load (a fleet client counts as one load).
void stack_count_metrics(const h2priv::obs::Registry& delta, double loads,
                         Metrics& out);

// --- workloads -------------------------------------------------------------

Result run_live_attack(const Options& options);
Result run_offline_score(const Options& options);
Result run_fleet_capture(const Options& options);

}  // namespace perfbench
