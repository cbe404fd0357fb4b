#include "h2priv/core/attack.hpp"

namespace h2priv::core {

Attack::Attack(sim::Simulator& sim, TrafficMonitor& monitor,
               NetworkController& controller,
               AttackConfig config)
    : sim_(sim), monitor_(monitor), controller_(controller), config_(config) {}

void Attack::arm() {
  timeline_.armed = sim_.now();
  if (config_.enable_spacing) {
    controller_.set_request_spacing(config_.phase1_spacing);
  }
  monitor_.on_get_request = [this](int index,
                                   util::TimePoint when) { on_get(index, when); };
  // "We continue the packet drops ... until the client sends stream reset":
  // the RST flurry is the cue to lift the drops and move to phase 3.
  monitor_.on_reset_detected = [this](util::TimePoint) { enter_phase3(); };
}

void Attack::enter_phase3() {
  if (!timeline_.target_get_seen || timeline_.drops_ended) return;
  timeline_.drops_ended = sim_.now();
  controller_.stop_drops();
  if (config_.enable_spacing) {
    controller_.set_request_spacing(kPhase3Spacing);
  }
}

void Attack::on_get(int index, util::TimePoint when) {
  if (index != config_.target_get_index || timeline_.target_get_seen) return;
  timeline_.target_get_seen = when;

  if (config_.enable_bandwidth_limit) {
    controller_.set_bandwidth(config_.phase2_bandwidth);
  }
  if (config_.enable_drops) {
    controller_.start_drops(config_.drop_fraction, config_.drop_duration);
  }
  // Fallback: if no reset is observed, lift the drops after the fixed window
  // (the paper's 6-second timer) and move to phase 3 anyway.
  sim_.schedule(config_.drop_duration, [this] { enter_phase3(); });
}

}  // namespace h2priv::core
