// The scenario registry: one canonical table mapping scenario names
// ("baseline" | "fig2" | "table2") onto the RunConfig deltas they imply.
// Every entry point that accepts a --scenario flag (h2priv_trace, the
// defense grid, the corpus/replay/codec benches) routes through this table,
// so adding a scenario is a one-line change here rather than a string hunt
// across tools — and a typo'd name fails the same way everywhere.
#pragma once

#include <string>
#include <string_view>

#include "h2priv/core/experiment.hpp"

namespace h2priv::core {

struct ScenarioSpec {
  std::string_view name;
  std::string_view description;
  /// Mutates a default-constructed (or caller-prepared) RunConfig in place.
  void (*apply)(RunConfig&);
};

/// Registry lookup; nullptr for unknown names. The empty string is an alias
/// for "baseline" (matching the tools' historical default).
[[nodiscard]] const ScenarioSpec* find_scenario(std::string_view name) noexcept;

/// Applies `name` onto `config`. Throws std::runtime_error naming the
/// offender and listing valid scenarios when `name` is not registered.
void apply_scenario(RunConfig& config, std::string_view name);

/// Fresh RunConfig with `name` applied — the shape scenario_config() took
/// when it lived inside h2priv_trace. Throws like apply_scenario.
[[nodiscard]] RunConfig scenario_config(std::string_view name);

/// "fig2 | table2 | baseline"-style list for usage strings, pipe-separated.
[[nodiscard]] std::string scenario_names();

}  // namespace h2priv::core
