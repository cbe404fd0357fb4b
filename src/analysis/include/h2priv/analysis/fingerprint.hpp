// Closed-world webpage fingerprinting over burst-size profiles — the attack
// family the paper builds on ([2]-[12]): given labelled training traces of K
// known pages, classify a fresh encrypted trace by its object-size profile.
//
// The profile of a trace is the multiset of burst body estimates; distance
// between profiles is a greedy minimal-matching cost (absolute size
// differences, unmatched bursts penalized). Nearest-centroid over the
// training traces classifies. Serialized traffic gives crisp profiles;
// multiplexing blurs them — quantifying exactly how much privacy
// multiplexing buys against this classifier family, and how much the active
// attack takes back.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "h2priv/analysis/estimator.hpp"

namespace h2priv::analysis {

/// A trace reduced to its burst-size profile (sorted).
using SizeProfile = std::vector<std::size_t>;

[[nodiscard]] SizeProfile profile_from_bursts(const std::vector<EstimatedObject>& bursts);

// --- feature families --------------------------------------------------------
//
// A feature vector is still a SizeProfile — a sorted multiset of integers —
// so every classifier and profile_distance() work unchanged. Families beyond
// the raw burst sizes are tagged into disjoint integer ranges far above any
// plausible burst size (bursts stay < 2^40): each histogram entry encodes
// base + bin * 2^28 + count. Within one family+bin, two traces' entries sit
// well inside profile_distance's factor-of-two match window, so the sweep
// pairs them up and the matching cost reduces to the L1 histogram distance
// Σ|count_a - count_b|. All 16 bins are always emitted (count 0 included) so
// the pairing never slips. Everything is integer-only and deterministic.

/// Selectable feature families (bitmask).
enum Feature : unsigned {
  kFeatureBursts = 1u << 0,      ///< burst body estimates (the classic profile)
  kFeatureGapHist = 1u << 1,     ///< inter-burst idle-gap timing histogram
  kFeatureRecordHist = 1u << 2,  ///< TLS record ciphertext-size histogram
};

inline constexpr std::size_t kFeatureBins = 16;
inline constexpr std::size_t kFeatureBinStride = std::size_t{1} << 28;
inline constexpr std::size_t kGapFeatureBase = std::size_t{1} << 44;
inline constexpr std::size_t kRecordFeatureBase = std::size_t{1} << 46;

/// Log2 histogram of the idle gaps between consecutive bursts, measured in
/// milliseconds (bin = bit_width(gap_ms), clamped to 15): bin 0 is sub-ms,
/// bin 15 is >= 16.4 s. Always 16 entries, tagged at kGapFeatureBase.
[[nodiscard]] SizeProfile gap_features(const std::vector<EstimatedObject>& bursts);

/// Log2 histogram of TLS record ciphertext sizes (bin = bit_width(len),
/// clamped to 15 — records top out at 16 KiB + overhead). Always 16
/// entries, tagged at kRecordFeatureBase.
[[nodiscard]] SizeProfile record_size_features(
    std::span<const RecordObservation> records);

/// Assembles the sorted feature vector for the families selected in
/// `features` (Feature bits OR'd together).
[[nodiscard]] SizeProfile build_feature_profile(
    unsigned features, const std::vector<EstimatedObject>& bursts,
    std::span<const RecordObservation> records);

/// Greedy matching cost between two profiles; symmetric, >= 0, 0 iff equal.
/// Unmatched bursts cost their full size.
[[nodiscard]] double profile_distance(const SizeProfile& a, const SizeProfile& b);

class Fingerprinter {
 public:
  /// Adds one labelled training trace.
  void train(const std::string& label, SizeProfile profile);

  /// Nearest-training-trace classification; empty string if untrained.
  [[nodiscard]] std::string classify(const SizeProfile& probe) const;

  /// Distance to the best and second-best labels (classifier confidence).
  struct Verdict {
    std::string label;
    double best_distance = 0;
    double runner_up_distance = 0;
  };
  [[nodiscard]] Verdict classify_with_margin(const SizeProfile& probe) const;

  /// k-nearest-neighbour vote: the k closest training traces vote and the
  /// majority label wins. Ties break on smaller summed distance among the
  /// tied labels, then on the lexicographically smaller label — so the
  /// verdict is deterministic for any training-trace insertion order.
  /// k == 1 reduces to classify(); empty label if untrained or k == 0. The
  /// vote tally is the classifier's confidence: votes/k ranks verdicts,
  /// total_distance breaks ranking ties.
  struct KnnVerdict {
    std::string label;
    std::size_t votes = 0;       ///< neighbours that voted for `label`
    std::size_t k = 0;           ///< effective neighbourhood size (<= trace count)
    double total_distance = 0;   ///< summed distance of those votes
  };
  [[nodiscard]] KnnVerdict classify_knn_with_votes(const SizeProfile& probe,
                                                   std::size_t k) const;

  [[nodiscard]] std::size_t trace_count() const noexcept { return traces_.size(); }

 private:
  struct Trace {
    std::string label;
    SizeProfile profile;
  };
  std::vector<Trace> traces_;
};

/// Nearest-centroid fingerprinting: each label is folded into a single
/// centroid profile — the per-position integer median of its training
/// profiles, each resampled to the label's median profile length. Memory
/// and classification cost are O(labels), not O(training traces), and the
/// centroid is integer-only and independent of training order, so the model
/// itself is deterministic (the determinism linter's SIM_CRITICAL rules
/// apply to the corpus pipeline built on top of it).
class CentroidModel {
 public:
  /// Adds one labelled training trace and refolds that label's centroid.
  void train(const std::string& label, SizeProfile profile);

  /// Nearest-centroid verdict with best / runner-up centroid distances
  /// (same confidence shape as Fingerprinter::classify_with_margin); empty
  /// label if untrained. Ties break on the lexicographically smaller label.
  [[nodiscard]] Fingerprinter::Verdict classify_with_margin(
      const SizeProfile& probe) const;

  [[nodiscard]] std::size_t label_count() const noexcept { return labels_.size(); }

 private:
  struct Label {
    std::vector<SizeProfile> traces;
    SizeProfile centroid;
  };
  std::map<std::string, Label> labels_;
};

}  // namespace h2priv::analysis
