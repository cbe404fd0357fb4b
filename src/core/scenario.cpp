#include "h2priv/core/scenario.hpp"

#include <stdexcept>

namespace h2priv::core {

namespace {

void apply_baseline(RunConfig&) {
  // Stock page load, adversary passive.
}

void apply_fig2(RunConfig& cfg) {
  // Section IV request-spacing study: a fixed 50 ms middlebox hold.
  cfg.manual_spacing = util::milliseconds(50);
}

void apply_table2(RunConfig& cfg) {
  // Full Section V attack pipeline armed.
  cfg.attack_enabled = true;
}

constexpr ScenarioSpec kScenarios[] = {
    {"baseline", "stock page load, adversary passive", apply_baseline},
    {"fig2", "50 ms manual request spacing (Section IV)", apply_fig2},
    {"table2", "full attack pipeline armed (Section V)", apply_table2},
};

}  // namespace

const ScenarioSpec* find_scenario(std::string_view name) noexcept {
  if (name.empty()) name = "baseline";
  for (const ScenarioSpec& s : kScenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void apply_scenario(RunConfig& config, std::string_view name) {
  const ScenarioSpec* spec = find_scenario(name);
  if (spec == nullptr) {
    throw std::runtime_error("unknown scenario: " + std::string(name) +
                             " (expected " + scenario_names() + ")");
  }
  spec->apply(config);
}

RunConfig scenario_config(std::string_view name) {
  RunConfig cfg;
  apply_scenario(cfg, name);
  return cfg;
}

std::string scenario_names() {
  std::string out;
  for (const ScenarioSpec& s : kScenarios) {
    if (!out.empty()) out += " | ";
    out += s.name;
  }
  return out;
}

}  // namespace h2priv::core
