#include "h2priv/analysis/fingerprint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

namespace h2priv::analysis {

SizeProfile profile_from_bursts(const std::vector<EstimatedObject>& bursts) {
  SizeProfile profile;
  profile.reserve(bursts.size());
  for (const EstimatedObject& b : bursts) profile.push_back(b.body_estimate);
  std::sort(profile.begin(), profile.end());
  return profile;
}

namespace {

/// Clamped log2 bin: bit_width of the value, capped at kFeatureBins - 1.
[[nodiscard]] std::size_t log2_bin(std::uint64_t v) noexcept {
  return std::min<std::size_t>(kFeatureBins - 1,
                               static_cast<std::size_t>(std::bit_width(v)));
}

/// Renders a 16-bin count array as tagged profile entries (all bins, count 0
/// included, so two traces' histograms always pair up bin-for-bin in the
/// profile_distance sweep).
[[nodiscard]] SizeProfile tag_bins(std::size_t base,
                                   const std::array<std::size_t, kFeatureBins>& bins) {
  SizeProfile out;
  out.reserve(kFeatureBins);
  for (std::size_t bin = 0; bin < kFeatureBins; ++bin) {
    out.push_back(base + bin * kFeatureBinStride + bins[bin]);
  }
  return out;
}

}  // namespace

SizeProfile gap_features(const std::vector<EstimatedObject>& bursts) {
  std::array<std::size_t, kFeatureBins> bins{};
  for (std::size_t i = 1; i < bursts.size(); ++i) {
    const std::int64_t gap_ns =
        bursts[i].first_record.ns - bursts[i - 1].last_record.ns;
    const std::uint64_t gap_ms =
        gap_ns > 0 ? static_cast<std::uint64_t>(gap_ns) / 1'000'000u : 0;
    ++bins[log2_bin(gap_ms)];
  }
  return tag_bins(kGapFeatureBase, bins);
}

SizeProfile record_size_features(std::span<const RecordObservation> records) {
  std::array<std::size_t, kFeatureBins> bins{};
  for (const RecordObservation& r : records) {
    ++bins[log2_bin(static_cast<std::uint64_t>(r.ciphertext_len))];
  }
  return tag_bins(kRecordFeatureBase, bins);
}

SizeProfile build_feature_profile(unsigned features,
                                  const std::vector<EstimatedObject>& bursts,
                                  std::span<const RecordObservation> records) {
  SizeProfile profile;
  if ((features & kFeatureBursts) != 0) profile = profile_from_bursts(bursts);
  if ((features & kFeatureGapHist) != 0) {
    const SizeProfile gaps = gap_features(bursts);
    profile.insert(profile.end(), gaps.begin(), gaps.end());
  }
  if ((features & kFeatureRecordHist) != 0) {
    const SizeProfile sizes = record_size_features(records);
    profile.insert(profile.end(), sizes.begin(), sizes.end());
  }
  std::sort(profile.begin(), profile.end());
  return profile;
}

double profile_distance(const SizeProfile& a, const SizeProfile& b) {
  // Both sorted: sweep-merge greedy matching. Pairs within a factor-of-two
  // window match at |Δsize|; leftovers cost their own size.
  double cost = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const auto x = static_cast<double>(a[i]);
    const auto y = static_cast<double>(b[j]);
    if (x < y * 0.5) {
      cost += x;  // unmatched small burst in a
      ++i;
    } else if (y < x * 0.5) {
      cost += y;
      ++j;
    } else {
      cost += std::abs(x - y);
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) cost += static_cast<double>(a[i]);
  for (; j < b.size(); ++j) cost += static_cast<double>(b[j]);
  return cost;
}

void Fingerprinter::train(const std::string& label, SizeProfile profile) {
  traces_.push_back(Trace{label, std::move(profile)});
}

Fingerprinter::Verdict Fingerprinter::classify_with_margin(
    const SizeProfile& probe) const {
  Verdict v;
  v.best_distance = std::numeric_limits<double>::infinity();
  v.runner_up_distance = std::numeric_limits<double>::infinity();
  for (const Trace& t : traces_) {
    const double d = profile_distance(probe, t.profile);
    if (d < v.best_distance) {
      if (t.label != v.label) v.runner_up_distance = v.best_distance;
      v.best_distance = d;
      v.label = t.label;
    } else if (t.label != v.label && d < v.runner_up_distance) {
      v.runner_up_distance = d;
    }
  }
  return v;
}

std::string Fingerprinter::classify(const SizeProfile& probe) const {
  return classify_with_margin(probe).label;
}

Fingerprinter::KnnVerdict Fingerprinter::classify_knn_with_votes(
    const SizeProfile& probe, std::size_t k) const {
  if (traces_.empty() || k == 0) return {};
  k = std::min(k, traces_.size());

  std::vector<std::size_t> order(traces_.size());
  std::vector<double> distance(traces_.size());
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    order[i] = i;
    distance[i] = profile_distance(probe, traces_[i].profile);
  }
  // Total order on (distance, label, index) keeps the neighbour set — and
  // with it the vote — independent of training insertion order.
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (distance[a] != distance[b]) {
                        return distance[a] < distance[b];
                      }
                      if (traces_[a].label != traces_[b].label) {
                        return traces_[a].label < traces_[b].label;
                      }
                      return a < b;
                    });

  struct Tally {
    std::size_t votes = 0;
    double total_distance = 0;
  };
  std::map<std::string, Tally> tallies;
  for (std::size_t n = 0; n < k; ++n) {
    Tally& t = tallies[traces_[order[n]].label];
    ++t.votes;
    t.total_distance += distance[order[n]];
  }
  KnnVerdict verdict;
  verdict.k = k;
  Tally best;
  for (const auto& [label, t] : tallies) {
    // Map iteration is label-ascending, so strict improvement implements the
    // lexicographic tie-break for free.
    if (verdict.label.empty() || t.votes > best.votes ||
        (t.votes == best.votes && t.total_distance < best.total_distance)) {
      verdict.label = label;
      best = t;
    }
  }
  verdict.votes = best.votes;
  verdict.total_distance = best.total_distance;
  return verdict;
}

namespace {

/// Lower median of `v` (sorted in place); integer-only, deterministic.
std::size_t lower_median(std::vector<std::size_t>& v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// Folds a label's training profiles into one centroid: resample each
/// profile to the label's (lower-)median length, then take the per-position
/// lower median. Sampling sorted profiles at non-decreasing fractional
/// positions keeps the centroid sorted.
SizeProfile fold_centroid(const std::vector<SizeProfile>& traces) {
  std::vector<std::size_t> lengths;
  lengths.reserve(traces.size());
  for (const SizeProfile& t : traces) lengths.push_back(t.size());
  const std::size_t target = lower_median(lengths);
  SizeProfile centroid(target);
  std::vector<std::size_t> column;
  for (std::size_t i = 0; i < target; ++i) {
    column.clear();
    for (const SizeProfile& t : traces) {
      if (t.empty()) continue;
      column.push_back(t[i * t.size() / target]);
    }
    if (!column.empty()) centroid[i] = lower_median(column);
  }
  return centroid;
}

}  // namespace

void CentroidModel::train(const std::string& label, SizeProfile profile) {
  Label& entry = labels_[label];
  entry.traces.push_back(std::move(profile));
  entry.centroid = fold_centroid(entry.traces);
}

Fingerprinter::Verdict CentroidModel::classify_with_margin(
    const SizeProfile& probe) const {
  Fingerprinter::Verdict v;
  v.best_distance = std::numeric_limits<double>::infinity();
  v.runner_up_distance = std::numeric_limits<double>::infinity();
  for (const auto& [label, entry] : labels_) {
    const double d = profile_distance(probe, entry.centroid);
    if (d < v.best_distance) {  // strict: first (smallest) label wins ties
      v.runner_up_distance = v.best_distance;
      v.best_distance = d;
      v.label = label;
    } else if (d < v.runner_up_distance) {
      v.runner_up_distance = d;
    }
  }
  return v;
}

}  // namespace h2priv::analysis
