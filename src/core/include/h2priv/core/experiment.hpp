// Experiment harness: one page load of the isidewith model through the full
// stack (browser -> TLS -> TCP -> access link -> compromised middlebox ->
// WAN link -> server), with the adversary optionally armed, and a scored
// RunResult at the end.
//
// The benches and most examples are thin loops over run_once() with
// different RunConfig fields. The stack itself (links, gateway, TCP and TLS
// endpoints) is core::Topology, which run_once shares with the benches that
// drive their own sites and clients over it.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/analysis/observation.hpp"
#include "h2priv/net/packet.hpp"
#include "h2priv/client/browser.hpp"
#include "h2priv/core/attack.hpp"
#include "h2priv/core/predictor.hpp"
#include "h2priv/core/topology.hpp"
#include "h2priv/server/h2_server.hpp"
#include "h2priv/web/isidewith.hpp"

namespace h2priv::core {

/// Where a run's .h2t trace goes. run_once writes no file (it throws
/// std::invalid_argument when one is set): capture::record_run and
/// capture::record_corpus (src/capture) run it and write the trace afterwards
/// from its RunObservations, and fleet::run_fleet writes the merged one.
struct CaptureOptions {
  /// Explicit output path for a single run ("x.h2t").
  std::string path;
  /// Corpus mode: write <corpus_dir>/run_<seed>.h2t instead. record_corpus
  /// also drops a manifest.txt with per-trace digests beside the traces.
  std::string corpus_dir;
  /// Scenario label stored in the trace metadata (e.g. "fig2", "table2").
  std::string scenario;

  [[nodiscard]] bool enabled() const noexcept {
    return !path.empty() || !corpus_dir.empty();
  }
};

/// Fleet-scale simulation (src/fleet): N concurrent clients with
/// heterogeneous path profiles behind one shared gateway, with an optional
/// caching reverse proxy between gateway and origin. Hung off RunConfig so
/// every entry point (tools, benches, CI) configures a fleet the same way;
/// run_once itself ignores it — fleet::run_fleet is the executor.
struct FleetConfig {
  /// Number of concurrent clients (0 = fleet mode off).
  int clients = 0;
  /// Cache capacity of the reverse-proxy tier in MiB (0 = cache off: every
  /// request pays the full origin miss penalty profile of a lone client).
  std::size_t cache_mb = 0;
  /// Freshness lifetime of a cached object; between ttl and 2*ttl a hit is
  /// served stale-while-revalidate style (kStale outcome).
  util::Duration cache_ttl{util::seconds(30)};
  /// Client page loads start uniformly spread over this window, so the
  /// shared cache sees realistic interleaving instead of a thundering herd.
  util::Duration start_spread{util::milliseconds(500)};
  /// Extra origin latency a cache miss pays at the proxy (a stale
  /// revalidation pays half). Zero with cache_mb == 0.
  util::Duration miss_penalty{util::milliseconds(12)};

  [[nodiscard]] bool enabled() const noexcept { return clients > 0; }
};

/// Raw observation streams of one run: every packet the monitor saw (in
/// arrival order, appended through TrafficMonitor::on_packet_observed as the
/// run executes), both directions' TLS records and the attack horizon.
/// Filled by run_once when RunConfig::observations_out points at an
/// instance; capture::record_run writes a .h2t from it and the fleet merger
/// multiplexes several into one.
struct RunObservations {
  std::vector<analysis::PacketObservation> packets;
  std::vector<analysis::RecordObservation> records_c2s;
  std::vector<analysis::RecordObservation> records_s2c;
  /// Phase-3 start (client-local ns) the predictor used; 0 when passive.
  std::int64_t attack_horizon_ns = 0;
};

struct RunConfig {
  std::uint64_t seed = 1;
  PathConfig path{};
  server::ServerConfig server{};
  client::BrowserConfig browser = client::BrowserConfig::firefox_like();
  web::PlanTuning tuning{};

  /// Full Section V pipeline (phases 1-3).
  bool attack_enabled = false;
  AttackConfig attack{};

  /// Size-obfuscation defense: pad the HTML and emblems to one common size
  /// (defeats the size catalog even under serialization; see defense_eval).
  bool pad_sensitive_objects = false;

  /// Server-push defense (paper §VII): push the 8 emblems in a random
  /// server-chosen order as soon as the results HTML is requested — the
  /// secret display order never appears on the wire.
  bool push_emblems = false;

  /// Raw middlebox programs for the Section IV parameter studies; applied at
  /// t=0 and independent of `attack_enabled`.
  std::optional<util::Duration> manual_spacing;
  std::optional<util::BitRate> manual_bandwidth;

  util::Duration deadline{util::seconds(45)};

  /// Where capture::record_run puts this run's .h2t; run_once rejects it.
  CaptureOptions capture;

  /// Observer for every packet entering the middlebox (both directions, in
  /// arrival order, before any drop decision). Used by the golden-trace
  /// regression tests to hash the exact wire bytes of a seeded run.
  std::function<void(net::Direction, const net::Packet&)> packet_tap;

  /// Fleet-mode parameters; consumed by fleet::run_fleet, inert in run_once.
  FleetConfig fleet{};

  /// When non-null, run_once fills it with the run's packet and record
  /// observations and the attack horizon (the feed of capture::record_run
  /// and the fleet merger). Its previous contents are replaced.
  RunObservations* observations_out = nullptr;
};

struct ObjectOutcome {
  web::ObjectId object_id = 0;
  std::string label;
  std::size_t true_size = 0;
  std::optional<double> primary_dom;     ///< degree of multiplexing, first serving
  bool serialized_primary = false;       ///< primary instance DoM == 0
  bool any_serialized_copy = false;      ///< some complete copy DoM == 0
  bool identified = false;               ///< predictor matched it from ciphertext
  bool attack_success = false;           ///< serialized copy + identified
};

struct RunResult {
  bool page_complete = false;
  bool broken = false;
  double page_load_seconds = 0.0;

  // Retransmission accounting (Table I / Fig. 5 metric: client-visible
  // re-request events — browser re-GETs plus TCP-level retransmissions).
  std::uint64_t browser_rerequests = 0;
  std::uint64_t reset_episodes = 0;
  std::uint64_t rst_streams_sent = 0;
  std::uint64_t tcp_retransmits = 0;  // client + server
  std::uint64_t duplicate_server_responses = 0;
  [[nodiscard]] std::uint64_t retransmission_events() const noexcept {
    return browser_rerequests + tcp_retransmits;
  }

  ObjectOutcome html;
  std::array<int, web::kPartyCount> true_party_order{};
  std::array<ObjectOutcome, web::kPartyCount> emblems_by_position{};
  std::vector<std::string> predicted_sequence;  ///< party labels, in time order
  int sequence_positions_correct = 0;

  // Raw materials for specialized analyses.
  std::shared_ptr<analysis::GroundTruth> truth;
  std::uint64_t events_executed = 0;  ///< simulator events this run (perf surface)
  std::uint64_t monitor_packets = 0;
  int monitor_gets = 0;
  std::uint64_t egress_burst_drops = 0;  ///< gateway contention losses
  double attack_horizon_seconds = 0.0;  ///< phase-3 start used by the predictor
  std::vector<analysis::EstimatedObject> debug_bursts;  ///< post-horizon bursts
};

/// Label used for the results HTML in catalogs and predictions.
[[nodiscard]] std::string html_label();
/// Label for a party's emblem (0-based party index).
[[nodiscard]] std::string party_label(int party);

/// The adversary's pre-compiled catalog for the isidewith model.
[[nodiscard]] analysis::SizeCatalog isidewith_catalog();

/// Executes one seeded page load and scores it. Writes no trace: throws
/// std::invalid_argument when config.capture is enabled (capture::record_run
/// is the recording entry point).
[[nodiscard]] RunResult run_once(const RunConfig& config);

/// The attack scorer: the one verdict pass, run live by run_once and offline
/// by capture::score_with_predictor. Fills `result`'s html,
/// emblems_by_position (in `party_order`), predicted_sequence and
/// sequence_positions_correct from a single predictor.identify_after(horizon)
/// and one analysis::MultiplexingIndex over `truth`, and samples each scored
/// object's DoM into obs::Hist::kH2ObjectDomMilli.
///   - identified: some identification after the horizon carries the label.
///   - predicted_sequence: each party's LAST identification, ordered by time.
///     The real serialized serving comes after any leftover retransmission
///     bursts of the drop phase, which the adversary cannot tell apart
///     (Section IV-D).
///   - an emblem's attack_success: a serialized copy was served and its
///     position in predicted_sequence is right.
void score_run(const web::IsideWithSite& site,
               const std::array<int, web::kPartyCount>& party_order,
               const analysis::GroundTruth& truth, const ObjectPredictor& predictor,
               util::TimePoint horizon, RunResult& result);

}  // namespace h2priv::core
