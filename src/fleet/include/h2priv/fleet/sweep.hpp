// The fleet sweep: one fleet run per cache size (including cache-off), each
// scored per client — the attack-accuracy-vs-cache-hit-rate curve.
//
// The report is deterministic text ("h2t-fleet-sweep v1"): a pure function
// of the sweep results, so CI can diff it and EXPERIMENTS.md can quote it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "h2priv/fleet/fleet.hpp"

namespace h2priv::fleet {

struct SweepOptions {
  /// Base config for every point: seed, scenario knobs and fleet.clients
  /// are honored; fleet.cache_mb is overridden per point.
  core::RunConfig config{};
  /// Cache sizes to sweep, in MiB; 0 = cache off (the single-client-equivalent
  /// baseline point).
  std::vector<std::size_t> cache_sizes_mb = {0, 1, 8};
  core::Parallelism parallelism{};
};

struct ClientScore {
  std::uint64_t seed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale = 0;
  bool html_success = false;
  int emblem_successes = 0;  ///< of web::kPartyCount
  int sequence_correct = 0;  ///< of web::kPartyCount
};

struct SweepPoint {
  std::size_t cache_mb = 0;
  double hit_rate = 0.0;
  /// Fleet means over clients.
  double html_accuracy = 0.0;
  double emblem_accuracy = 0.0;
  double sequence_accuracy = 0.0;
  std::vector<ClientScore> clients;
};

struct SweepResult {
  int fleet_clients = 0;
  std::uint64_t seed = 0;
  std::vector<SweepPoint> points;  ///< in cache_sizes_mb order
};

/// Scores one already-run fleet into a sweep point.
[[nodiscard]] SweepPoint score_fleet(std::size_t cache_mb, const FleetResult& fleet);

/// Runs the whole sweep (one fleet per cache size, same seed and profiles).
[[nodiscard]] SweepResult run_sweep(const SweepOptions& options);

/// Renders the canonical report: a header, one summary line per point, and
/// (with `per_client`) a per-client table under each point.
[[nodiscard]] std::string format_report(const SweepResult& result,
                                        bool per_client = true);

}  // namespace h2priv::fleet
