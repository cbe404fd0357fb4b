// Partial-multiplexing inference — the paper's Section VII extension
// ("infer the object identity even when the object is partly multiplexed").
//
// When transmissions are only partly serialized, a burst may carry the bytes
// of SEVERAL objects. The exact-size catalog match then fails, but the burst
// total still constrains which objects it can contain: we search for subsets
// of catalog entries whose sizes sum to the burst estimate within tolerance
// (subset-sum over the catalog, which is small for fingerprinting targets).
// A burst explained by exactly one subset identifies every object in it.
#pragma once

#include <string>
#include <vector>

#include "h2priv/analysis/estimator.hpp"

namespace h2priv::core {

struct PartialMatch {
  std::vector<std::string> labels;  ///< catalog entries the burst contains
  std::size_t matched_size = 0;     ///< sum of their catalog sizes
};

class PartialMatcher {
 public:
  explicit PartialMatcher(analysis::SizeCatalog catalog,
                          std::size_t per_object_overhead = 0)
      : catalog_(std::move(catalog)), per_object_overhead_(per_object_overhead) {}

  /// All subsets (up to `max_objects` entries, each entry used at most once)
  /// whose size sum explains `burst_estimate` within `tolerance`.
  [[nodiscard]] std::vector<PartialMatch> explanations(std::size_t burst_estimate,
                                                       std::size_t tolerance = 400,
                                                       int max_objects = 4) const;

  /// Labels that appear in EVERY explanation of the burst — identities the
  /// adversary can assert even when the full decomposition is ambiguous.
  [[nodiscard]] std::vector<std::string> certain_members(std::size_t burst_estimate,
                                                         std::size_t tolerance = 400,
                                                         int max_objects = 4) const;

 private:
  void search(std::size_t remaining, std::size_t tolerance, std::size_t first,
              int depth_left,
              std::vector<std::size_t>& chosen, std::vector<PartialMatch>& out) const;

  analysis::SizeCatalog catalog_;
  std::size_t per_object_overhead_;
};

}  // namespace h2priv::core
