// Attack — the Section V adversary pipeline tying monitor and controller
// together:
//
//   phase 1: space GET requests 50 ms apart; count GETs on the wire.
//   phase 2: at the target GET (the 6th — the results HTML), throttle the
//            path to 800 Mbps and drop 80% of server->client application
//            packets for 6 s, forcing the client into a stream reset.
//   phase 3: when the drop window ends, widen the spacing to 130 ms so the
//            re-requested HTML and the 8 emblem images transmit serialized.
//
// The timeline markers it records are what the ObjectPredictor needs to
// place object bursts in the right phase.
#pragma once

#include <optional>

#include "h2priv/core/controller.hpp"
#include "h2priv/core/monitor.hpp"

namespace h2priv::core {

/// Phase-3 request spacing (paper: 80 ms). On this model's 40 ms-RTT path a
/// catch-up response needs 2-3 RTTs, so 80 ms leaves marginal overlap; 130 ms
/// restores the paper's serialization margin (DESIGN.md §5a).
inline constexpr util::Duration kPhase3Spacing = util::milliseconds(130);

struct AttackConfig {
  /// 1-based index of the GET carrying the object of interest (paper: 6).
  int target_get_index = 6;
  util::Duration phase1_spacing{util::milliseconds(50)};
  util::BitRate phase2_bandwidth{util::megabits_per_second(800)};
  double drop_fraction = 0.8;
  util::Duration drop_duration{util::seconds(6)};

  // Stage toggles (for the ablation bench).
  bool enable_spacing = true;
  bool enable_bandwidth_limit = true;
  bool enable_drops = true;
};

class Attack {
 public:
  Attack(sim::Simulator& sim, TrafficMonitor& monitor, NetworkController& controller,
         AttackConfig config);

  /// Installs phase-1 shaping and starts watching for the target GET.
  void arm();

  struct Timeline {
    std::optional<util::TimePoint> armed;
    std::optional<util::TimePoint> target_get_seen;
    std::optional<util::TimePoint> drops_ended;  ///< phase-3 start
  };
  [[nodiscard]] const Timeline& timeline() const noexcept { return timeline_; }
  [[nodiscard]] bool triggered() const noexcept {
    return timeline_.target_get_seen.has_value();
  }

 private:
  void on_get(int index, util::TimePoint when);
  void enter_phase3();

  sim::Simulator& sim_;
  TrafficMonitor& monitor_;
  NetworkController& controller_;
  AttackConfig config_;
  Timeline timeline_;
};

}  // namespace h2priv::core
