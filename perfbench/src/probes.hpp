// Layer probes for the live stack: after a traced page load, the benchmark
// re-issues that load's own units (record sizes, segment payloads, DATA
// frame sizes, request headers, event count) through each layer's public
// functions and times them. A layer's share of the load is its probed cost
// per unit times the units the load really produced (obs counter deltas).
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/core/experiment.hpp"

namespace perfbench {

/// Probe cost and the units it covered, per stack layer.
struct LayerCost {
  std::int64_t probe_ns = 0;
  std::uint64_t probe_units = 0;
  std::uint64_t real_units = 0;  ///< what the measured loads produced

  [[nodiscard]] double ns_per_unit() const {
    return ratio(static_cast<double>(probe_ns), static_cast<double>(probe_units));
  }
  /// Estimated time the measured loads spent in this layer.
  [[nodiscard]] double estimate_ns() const {
    return ns_per_unit() * static_cast<double>(real_units);
  }
};

struct StackCosts {
  LayerCost sim, tcp, tls, h2, hpack;

  /// Adds the real units in `load_counts` (obs deltas of the measured loads).
  void add_real_units(const h2priv::obs::Registry& load_counts);
  [[nodiscard]] double estimate_ns() const {
    return sim.estimate_ns() + tcp.estimate_ns() + tls.estimate_ns() +
           h2.estimate_ns() + hpack.estimate_ns();
  }
  /// Per-unit costs plus tls.share and core.unattributed_share against
  /// `measured_ns`, the time the loads took, of which `other_ns` is already
  /// attributed to a layer outside the stack. Flags a failure when the
  /// estimates exceed the measured time.
  void report(double measured_ns, double other_ns, Metrics& out, Result& result) const;
};

/// Runs every stack probe over one load's units, each under its own
/// obs::ScopedRegistry (so probe work never reaches the window's counters)
/// and its own span below the currently open one.
void probe_stack(SpanLog& log, std::uint64_t request,
                 const h2priv::core::RunObservations& observations,
                 const h2priv::analysis::GroundTruth& truth, std::uint64_t events,
                 StackCosts& costs);

}  // namespace perfbench
