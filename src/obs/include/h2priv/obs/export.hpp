// Serialization of obs::Registry to JSON.
//
// The JSON form is deliberately integer-only and emitted in fixed enum
// order with zero entries skipped, so the METRICS_JSON line of a seeded run
// is byte-stable across platforms, job counts and reruns — stable enough to
// golden-test and to diff in the CI perf gate. The one exception is the
// pool.chunks_reused / _fresh / _oversize split: buffer pools are
// thread-local, so the reuse pattern depends on which worker ran which seed
// (the _served total stays deterministic). Golden tests zero those three
// via Registry::set(); collect_bench.py compare treats them as warn-only.
#pragma once

#include <iosfwd>
#include <string>

#include "h2priv/obs/metrics.hpp"

namespace h2priv::obs {

/// Stable dotted counter names ("sim.events_executed", ...).
[[nodiscard]] const char* counter_name(Counter c) noexcept;

/// One-line JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
/// Zero counters/gauges and empty histograms are skipped; histogram buckets
/// are emitted as [bit_width, count] pairs. No floating point anywhere.
[[nodiscard]] std::string to_json(const Registry& r);

/// Writes to_json(r) to `os` (no trailing newline).
void write_metrics_json(std::ostream& os, const Registry& r);

}  // namespace h2priv::obs
