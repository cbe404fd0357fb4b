#include "h2priv/core/controller.hpp"

#include <algorithm>

namespace h2priv::core {

namespace {
bool has_payload(const net::Packet& p) {
  return !tcp::peek(p.segment).payload.empty();
}
}  // namespace

NetworkController::NetworkController(sim::Simulator& sim, net::Middlebox& middlebox,
                                     sim::Rng rng)
    : sim_(sim), middlebox_(middlebox), rng_(std::move(rng)) {}

void NetworkController::set_request_spacing(util::Duration spacing) {
  spacing_ = spacing;
  if (spacing.ns <= 0) {
    middlebox_.set_hold_fn(net::Direction::kClientToServer, nullptr);
    return;
  }
  middlebox_.set_hold_fn(
      net::Direction::kClientToServer,
      [this](const net::Packet& p, util::TimePoint ready) -> util::TimePoint {
        if (!has_payload(p)) return ready;  // pure ACKs pass unshaped
        util::TimePoint release = ready;
        if (last_release_ && ready < *last_release_ + spacing_) {
          release = *last_release_ + spacing_;
        }
        last_release_ = release;
        if (release > ready) {
          ++stats_.packets_spaced;
          stats_.total_added_delay += release - ready;
        }
        return release;
      });
}

void NetworkController::set_bandwidth(std::optional<util::BitRate> rate) {
  middlebox_.set_bandwidth_limit(net::Direction::kClientToServer, rate);
  middlebox_.set_bandwidth_limit(net::Direction::kServerToClient, rate);
}

void NetworkController::start_drops(double fraction, util::Duration duration) {
  drops_active_ = true;
  drop_fraction_ = fraction;
  middlebox_.set_drop_fn(net::Direction::kServerToClient, [this](const net::Packet& p) {
    if (!has_payload(p)) return false;  // "application packets" only
    if (rng_.chance(drop_fraction_)) {
      ++stats_.packets_dropped;
      return true;
    }
    return false;
  });
  if (drop_end_timer_.valid()) sim_.cancel(drop_end_timer_);
  drop_end_timer_ = sim_.schedule(duration, [this] {
    drop_end_timer_ = {};
    stop_drops();
  });
}

void NetworkController::stop_drops() {
  if (!drops_active_) return;
  drops_active_ = false;
  middlebox_.set_drop_fn(net::Direction::kServerToClient, nullptr);
  if (drop_end_timer_.valid()) {
    sim_.cancel(drop_end_timer_);
    drop_end_timer_ = {};
  }
}

}  // namespace h2priv::core
