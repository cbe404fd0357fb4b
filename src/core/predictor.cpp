#include "h2priv/core/predictor.hpp"

namespace h2priv::core {

ObjectPredictor::ObjectPredictor(
    std::span<const analysis::RecordObservation> s2c_records,
    analysis::SizeCatalog catalog, analysis::BurstConfig burst_config)
    : bursts_(analysis::segment_bursts(s2c_records, burst_config)),
      catalog_(std::move(catalog)) {}

std::vector<analysis::EstimatedObject> ObjectPredictor::bursts_after(
    util::TimePoint from) const {
  std::vector<analysis::EstimatedObject> out;
  for (const auto& b : bursts_) {
    if (b.first_record >= from) out.push_back(b);
  }
  return out;
}

std::vector<Identification> ObjectPredictor::identify_after(util::TimePoint from) const {
  std::vector<Identification> out;
  for (const analysis::EstimatedObject& b : bursts_) {
    if (b.first_record < from) continue;
    if (const auto entry =
        catalog_.match(b.body_estimate, abs_tolerance, frac_tolerance)) {
      out.push_back(Identification{entry->label, b.body_estimate, b.first_record});
    }
  }
  return out;
}

}  // namespace h2priv::core
