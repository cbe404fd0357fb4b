// NetworkController — the adversary's `tc` scripts (Section V component (b)).
//
// Programs the compromised middlebox with the paper's three knobs:
//  - request spacing: hold client->server payload packets so consecutive GETs
//    reach the server at least `spacing` apart (Section IV-B's incremental
//    jitter, expressed as its fixed point);
//  - bandwidth limits, both directions (Section IV-C);
//  - targeted drops of server->client application packets for a bounded
//    window (Section IV-D) — pure ACKs always pass, mimicking "drop 80% of
//    application packets".
#pragma once

#include <cstdint>
#include <optional>

#include "h2priv/net/middlebox.hpp"
#include "h2priv/sim/rng.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tcp/segment.hpp"

namespace h2priv::core {

class NetworkController {
 public:
  NetworkController(sim::Simulator& sim, net::Middlebox& middlebox, sim::Rng rng);

  /// Enforces a minimum spacing between client->server payload packets.
  /// Duration{0} removes the program.
  void set_request_spacing(util::Duration spacing);

  /// Caps both directions at `rate`; nullopt removes the cap.
  void set_bandwidth(std::optional<util::BitRate> rate);

  /// Drops each server->client payload packet with probability `fraction`
  /// for `duration` from now, then auto-clears.
  void start_drops(double fraction, util::Duration duration);
  void stop_drops();

  [[nodiscard]] bool drops_active() const noexcept { return drops_active_; }
  [[nodiscard]] util::Duration request_spacing() const noexcept { return spacing_; }

  struct ControllerStats {
    std::uint64_t packets_spaced = 0;  ///< payload packets pushed later
    std::uint64_t packets_dropped = 0;
    util::Duration total_added_delay{};
  };
  [[nodiscard]] const ControllerStats& stats() const noexcept { return stats_; }

 private:
  sim::Simulator& sim_;
  net::Middlebox& middlebox_;
  sim::Rng rng_;
  util::Duration spacing_{};
  std::optional<util::TimePoint> last_release_;
  bool drops_active_ = false;
  double drop_fraction_ = 0.0;
  sim::EventId drop_end_timer_{};
  ControllerStats stats_;
};

}  // namespace h2priv::core
