// Fleet-scale simulation: N concurrent clients with heterogeneous path
// profiles behind one shared gateway, with a caching reverse proxy
// (cache_proxy.hpp) between gateway and origin.
//
// Determinism model — the whole subsystem is built so a fleet run is
// bit-identical at any --jobs count:
//
//  1. Everything that couples clients (the fleet plan, and every cache
//     admission decision) happens in a SERIAL pre-pass: per-client seeds and
//     path profiles derive from one fleet Rng chain; each client's request
//     arrival schedule is modeled from its (deterministically re-derivable)
//     page-load plan; the globally time-sorted arrival sequence drives one
//     CacheProxy in a plain loop. The pre-pass output is a per-client
//     path -> CacheOutcome map.
//  2. Per-client page loads then run through the unmodified core::run_once
//     in a parallel_for — each is a self-contained simulation whose only
//     fleet input is the pure path->delay function derived in step 1
//     (ServerConfig::origin_delay), so clients are independent and
//     embarrassingly parallel.
//  3. All joining (DoM histogram samples, trace merging, manifests) is
//     serial again, in client order. The merged trace's blocks are then
//     coded on the same workers, each block from a reset model into its own
//     slot, and written in one fixed order.
//
// The merged .h2t fleet trace carries per-packet/per-record connection ids
// (Section::kConnIds) and per-connection provenance + ground truth + summary
// (Section::kFleet), so capture::demux_fleet recovers each client's
// observation streams bit-for-bit for offline replay and scoring.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/fleet/cache_proxy.hpp"

namespace h2priv::fleet {

/// One client's heterogeneous network profile, drawn deterministically from
/// the fleet seed chain (plan_fleet).
struct ClientProfile {
  std::uint64_t seed = 0;  ///< the client's core::run_once seed
  util::Duration start_offset{};
  util::Duration client_hop_delay{};
  util::Duration server_hop_delay{};
  util::BitRate link_rate{};
  double background_loss = 0.0;
};

struct FleetClientResult {
  ClientProfile profile;
  core::RunResult result;
  core::RunObservations obs;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale = 0;
};

struct FleetResult {
  std::vector<FleetClientResult> clients;
  std::uint64_t cache_evictions = 0;

  [[nodiscard]] std::uint64_t cache_requests() const noexcept;
  /// Fraction of requests served from cache (hits + stale revalidations).
  [[nodiscard]] double cache_hit_rate() const noexcept;
};

/// Derives the N client profiles for `config` (serial, pure). The chain is
/// keyed on config.seed, so two fleets with the same seed and client count
/// get identical profiles regardless of cache settings.
[[nodiscard]] std::vector<ClientProfile> plan_fleet(const core::RunConfig& config);

/// Runs one fleet: serial cache pre-pass, parallel per-client page loads,
/// serial join. With config.capture enabled, writes one merged fleet .h2t
/// (config.capture.path, or <corpus_dir>/run_<seed>.h2t), whose blocks
/// `parallelism`'s workers code. Requires
/// config.fleet.enabled(); throws std::invalid_argument otherwise.
[[nodiscard]] FleetResult run_fleet(const core::RunConfig& config,
                                    core::Parallelism parallelism);

/// Corpus mode: `runs` fleet traces for seeds {config.seed ..} into
/// config.capture.corpus_dir plus a manifest.txt in the exact format
/// capture::record_corpus writes — one capture::manifest_entry per trace,
/// sorted by seed — so the manifest is byte-identical for any job count and
/// `cmp` is a sufficient CI check.
[[nodiscard]] std::vector<FleetResult> run_fleet_corpus(
    const core::RunConfig& config, int runs, core::Parallelism parallelism);

}  // namespace h2priv::fleet
