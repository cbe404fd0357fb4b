#include "h2priv/core/partial_matcher.hpp"

#include <algorithm>

namespace h2priv::core {

void PartialMatcher::search(std::size_t remaining, std::size_t tolerance,
                            std::size_t first,
                            int depth_left, std::vector<std::size_t>& chosen,
                            std::vector<PartialMatch>& out) const {
  if (remaining <= tolerance && !chosen.empty()) {
    PartialMatch m;
    for (const std::size_t idx : chosen) {
      m.labels.push_back(catalog_.entries()[idx].label);
      m.matched_size += catalog_.entries()[idx].body_size;
    }
    out.push_back(std::move(m));
    // Do not also extend this subset: supersets would overshoot anyway once
    // remaining <= tolerance and entries are >> tolerance, but guard below.
  }
  if (depth_left == 0) return;
  const auto& entries = catalog_.entries();
  for (std::size_t i = first; i < entries.size(); ++i) {
    const std::size_t cost = entries[i].body_size + per_object_overhead_;
    if (cost > remaining + tolerance) continue;
    chosen.push_back(i);
    search(remaining > cost ? remaining - cost : 0, tolerance, i + 1, depth_left - 1,
           chosen,
           out);
    chosen.pop_back();
  }
}

std::vector<PartialMatch> PartialMatcher::explanations(std::size_t burst_estimate,
                                                       std::size_t tolerance,
                                                       int max_objects) const {
  std::vector<PartialMatch> out;
  std::vector<std::size_t> chosen;
  search(burst_estimate, tolerance, 0, max_objects, chosen, out);
  // Deduplicate label sets (sorted) — identical sums reached differently.
  for (PartialMatch& m : out) std::sort(m.labels.begin(), m.labels.end());
  std::sort(out.begin(), out.end(), [](const PartialMatch& a, const PartialMatch& b) {
    return a.labels < b.labels;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const PartialMatch& a, const PartialMatch& b) {
                          return a.labels == b.labels;
                        }),
            out.end());
  return out;
}

std::vector<std::string> PartialMatcher::certain_members(std::size_t burst_estimate,
                                                         std::size_t tolerance,
                                                         int max_objects) const {
  const auto all = explanations(burst_estimate, tolerance, max_objects);
  if (all.empty()) return {};
  std::vector<std::string> certain = all.front().labels;
  for (std::size_t i = 1; i < all.size(); ++i) {
    std::vector<std::string> kept;
    for (const std::string& label : certain) {
      if (std::find(all[i].labels.begin(), all[i].labels.end(), label) !=
          all[i].labels.end()) {
        kept.push_back(label);
      }
    }
    certain = std::move(kept);
    if (certain.empty()) break;
  }
  return certain;
}

}  // namespace h2priv::core
