// Parallel offline scoring over a trace corpus — the paper's evaluation loop
// run at 10^5-trace scale without re-simulating anything.
//
// Phase A (parallel): every manifest entry streams through the records-direct
// scorer (capture::score_with_predictor) off an mmap'd TraceFile — no TCP
// reassembly, no packet materialization, bounded memory per worker. Each
// trace yields its recomputed attack verdict, a stored-summary cross-check,
// its post-horizon burst-size profile and its ground-truth label. Results
// land in a pre-sized vector at the manifest index and metrics count into
// per-worker registries folded commutatively, so the pipeline output is
// bit-identical for any --jobs count.
//
// Phase B (serial, deterministic): split traces into train/eval by seed,
// train the selected size-fingerprint classifier (nearest / k-NN / centroid),
// classify the eval split, and fold per-trace verdicts into corpus totals
// plus confidence-ranked ROC / precision-recall curves built from integer
// prefix counts.
//
// format_report() renders the whole thing as deterministic text: two runs of
// the same corpus at any --jobs produce byte-identical reports, so `cmp` is
// the CI regression check (mirroring the corpus manifest contract).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "h2priv/analysis/fingerprint.hpp"
#include "h2priv/capture/trace_format.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/corpus/store.hpp"

namespace h2priv::corpus {

/// Size-fingerprint classifier the eval split runs through.
enum class Classifier {
  kNone,      ///< scoring only, no train/eval split
  kNearest,   ///< 1-nearest training trace (Fingerprinter::classify)
  kKnn,       ///< k-NN majority vote (Fingerprinter::classify_knn_with_votes)
  kCentroid,  ///< nearest per-label centroid (CentroidModel)
};

[[nodiscard]] const char* classifier_name(Classifier classifier) noexcept;
/// Parses "none" / "nearest" / "knn" / "centroid"; nullopt otherwise.
[[nodiscard]] std::optional<Classifier> classifier_from_name(
    std::string_view name) noexcept;

/// Parses a comma-separated feature-family list ("bursts,gaps,records") into
/// an analysis::Feature bitmask; nullopt on unknown names or an empty list.
[[nodiscard]] std::optional<unsigned> features_from_names(
    std::string_view names) noexcept;
/// Canonical comma-separated rendering of a feature bitmask (family order
/// bursts, gaps, records).
[[nodiscard]] std::string feature_names(unsigned features);

struct ScoreOptions {
  core::Parallelism parallelism{};
  Classifier classifier = Classifier::kNearest;
  /// Feature families folded into each trace's profile (analysis::Feature
  /// bits). The default reproduces the classic burst-size profile.
  unsigned features = analysis::kFeatureBursts;
  /// Neighbourhood size for Classifier::kKnn; at least 1.
  std::size_t knn_k = 3;
  /// Train/eval split: seeds with seed % train_mod == 0 train the model,
  /// every other seed evaluates. 1 trains on everything (no eval split);
  /// 0 disables classification like Classifier::kNone.
  std::uint64_t train_mod = 4;
  /// Cross-check every trace with a full chunked replay (records_match +
  /// summary agreement) — an order of magnitude slower; off by default.
  bool replay_verify = false;
};

/// One demultiplexed connection of a fleet trace, scored records-direct —
/// the per-client analogue of a single-connection TraceScore.
struct ConnScore {
  std::uint64_t seed = 0;  ///< the client's own run seed (kFleet entry)
  /// Records-direct recomputed verdict over the demuxed record streams.
  capture::TraceSummary summary;
  /// Recomputed verdict equals the per-connection summary stored in kFleet.
  bool matches_stored_summary = false;
};

/// One trace's scored outcome (phase A) plus its classification (phase B).
struct TraceScore {
  std::uint64_t seed = 0;
  std::string file;  ///< corpus-root-relative path from the manifest
  std::uint64_t file_bytes = 0;
  /// Records-direct recomputed verdict (capture::score_with_predictor). For
  /// fleet traces this holds corpus-fold aggregates only (packet/GET/sequence
  /// totals over `conns`); the real verdicts are per connection.
  capture::TraceSummary summary;
  /// Fleet trace: per-connection verdicts live in `conns`, and the trace is
  /// excluded from the classifier split (its burst profile would mix N
  /// clients' pages into one unlabeled blob).
  bool fleet = false;
  std::vector<ConnScore> conns;  ///< connection-id order; empty unless fleet
  bool had_stored_summary = false;
  bool matches_stored_summary = false;  ///< recomputed == stored verdict
  bool replay_verified = false;         ///< only with ScoreOptions::replay_verify
  /// Ground-truth class: the party whose emblem the survey displays first.
  std::string true_label;
  analysis::SizeProfile profile;  ///< post-horizon burst-size profile

  // Phase B:
  bool trained = false;  ///< member of the training split
  std::string predicted_label;
  bool correct = false;
  /// Confidence ranking keys for the curves (primary desc, then tie desc,
  /// then seed asc). Comparison-only — never accumulated across traces.
  double confidence = 0;
  double confidence_tie = 0;
};

/// One point of the confidence-ranked curves: the top-`accepted` eval traces
/// by confidence, counted in integers (precision/recall/TPR/FPR are derived
/// at format time, never accumulated).
struct CurvePoint {
  std::uint64_t accepted = 0;
  std::uint64_t true_positive = 0;   ///< correctly classified among accepted
  std::uint64_t false_positive = 0;  ///< accepted - true_positive
};

struct ScoreReport {
  std::string scenario;
  std::uint64_t base_seed = 0;
  Classifier classifier = Classifier::kNone;
  unsigned features = analysis::kFeatureBursts;
  std::size_t knn_k = 0;
  std::uint64_t train_mod = 0;
  std::vector<TraceScore> traces;  ///< manifest (seed) order

  // Corpus totals (integer folds over `traces`).
  std::uint64_t total_file_bytes = 0;
  std::uint64_t total_packets = 0;
  std::int64_t total_gets = 0;
  std::uint64_t html_identified = 0;
  std::uint64_t attack_successes = 0;  ///< emblem positions, summed
  std::int64_t sequence_positions_correct = 0;
  std::uint64_t stored_summaries = 0;
  std::uint64_t summary_mismatches = 0;
  std::uint64_t replay_failures = 0;

  // Classification outcome.
  std::uint64_t train_count = 0;
  std::uint64_t eval_count = 0;
  std::uint64_t eval_correct = 0;
  std::vector<CurvePoint> curve;
};

/// Runs the two-phase pipeline over `corpus`. Throws capture::TraceError on
/// unreadable or malformed traces, and std::invalid_argument for
/// Classifier::kKnn with knn_k == 0 (no neighbour could vote).
[[nodiscard]] ScoreReport score_corpus(const Corpus& corpus,
                                       const ScoreOptions& options);

/// Deterministic plain-text rendering of a report ("h2t-score-report v1").
[[nodiscard]] std::string format_report(const ScoreReport& report);

}  // namespace h2priv::corpus
