// Adversary-side object-size estimation from encrypted records (Fig. 1).
//
// Once transmissions are serialized, one response = a small record carrying
// the response HEADERS frame followed by the DATA records of the body. The
// small record plays the role of the paper's sub-MTU "delimiting packet":
// every record below `delimiter_max_bytes` starts a new object burst. Long
// idle gaps close bursts too (phase boundaries). Wire bytes are converted to
// a body-size estimate (subtracting per-record AEAD and per-frame HTTP/2
// overhead) and matched against a pre-compiled size catalog — the paper's
// "image size to political party mapping".
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "h2priv/analysis/observation.hpp"
#include "h2priv/util/units.hpp"

namespace h2priv::analysis {

struct EstimatedObject {
  util::TimePoint first_record{};
  util::TimePoint last_record{};
  std::size_t record_count = 0;
  std::size_t wire_bytes = 0;       // sum of ciphertext lengths
  std::size_t body_estimate = 0;    // after overhead subtraction
};

struct BurstConfig {
  /// Records at or below this ciphertext size are header/control records:
  /// each one delimits (starts) a new object burst and is excluded from the
  /// body estimate.
  std::size_t delimiter_max_bytes = 150;
  /// Idle gap that always separates bursts (phase boundaries), even without
  /// a delimiter record.
  util::Duration gap_threshold{util::milliseconds(300)};
};

/// Segments server->client application-data records into object bursts.
/// Records must be in stream order (as MonitorStream emits them).
[[nodiscard]] std::vector<EstimatedObject> segment_bursts(
    std::span<const RecordObservation> records, const BurstConfig& config = {});

/// The adversary's pre-compiled size -> identity mapping.
class SizeCatalog {
 public:
  void add(std::string label, std::size_t body_size);

  struct Entry {
    std::string label;
    std::size_t body_size = 0;
  };

  /// Returns the unique catalog entry within tolerance of `estimate`, or
  /// nullopt if none or more than one matches. Tolerance is
  /// max(abs_tolerance, frac_tolerance * body_size). The defaults match the
  /// delimiter-based estimator's accuracy (within a few bytes).
  [[nodiscard]] std::optional<Entry> match(std::size_t estimate,
                                           std::size_t abs_tolerance = 150,
                                           double frac_tolerance = 0.012) const;

  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace h2priv::analysis
