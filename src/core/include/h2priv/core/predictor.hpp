// ObjectPredictor — the adversary's Python scripts (Section V component (c)).
//
// Works purely on the server->client TLS record stream (a TrafficMonitor's
// or a stored trace's): segments the serialized phase into object bursts and
// matches each burst's size estimate against the pre-compiled size->identity
// catalog ("image size to political party mapping").
#pragma once

#include <span>
#include <string>
#include <vector>

#include "h2priv/analysis/estimator.hpp"

namespace h2priv::core {

struct Identification {
  std::string label;
  std::size_t body_estimate = 0;
  util::TimePoint when{};
};

class ObjectPredictor {
 public:
  /// Predicts over a finished server->client record sequence: a live run's
  /// monitor.records(kServerToClient) once the simulation is over, or a
  /// stored .h2t section. The records are segmented into bursts here, once;
  /// the queries below filter that list.
  ObjectPredictor(std::span<const analysis::RecordObservation> s2c_records,
                  analysis::SizeCatalog catalog,
                  analysis::BurstConfig burst_config = {});

  /// All catalog matches among bursts starting at/after `from`, in order.
  [[nodiscard]] std::vector<Identification> identify_after(util::TimePoint from) const;

  /// Raw bursts (diagnostics / examples).
  [[nodiscard]] std::vector<analysis::EstimatedObject> bursts_after(
      util::TimePoint from) const;

  [[nodiscard]] const analysis::SizeCatalog& catalog() const noexcept { return catalog_; }

  std::size_t abs_tolerance = 150;
  double frac_tolerance = 0.012;

 private:
  std::vector<analysis::EstimatedObject> bursts_;
  analysis::SizeCatalog catalog_;
};

}  // namespace h2priv::core
