// Unidirectional point-to-point link with propagation delay, serialization
// at a configured rate, optional random jitter and random loss.
//
// FIFO discipline: a packet's departure is max(arrival, link busy-until) +
// transmission time; propagation (plus jitter noise) is added after
// departure, so jitter can reorder deliveries just like `tc netem` does.
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "h2priv/net/packet.hpp"
#include "h2priv/sim/rng.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/util/units.hpp"

namespace h2priv::net {

/// Where a link (or middlebox port) delivers packets.
using PacketSink = std::function<void(Packet&&)>;

struct LinkConfig {
  util::Duration propagation{util::microseconds(500)};
  util::BitRate rate{util::gigabits_per_second(1)};
  /// Std-dev of per-packet propagation noise; 0 = deterministic path.
  util::Duration jitter_sigma{};
  /// Independent per-packet loss probability (background loss, not the
  /// adversary's targeted drops — those live in the Middlebox).
  double loss_probability = 0.0;

  /// Drop-tail contention model for a shared egress: when more than
  /// `burst_capacity_packets` arrive within `burst_window`, each excess
  /// packet is dropped with `burst_excess_loss`. Upstream shaping smooths
  /// arrivals below the threshold — the physical reason bandwidth throttling
  /// *reduces* retransmissions in the paper's Fig. 5. 0 disables the model.
  int burst_capacity_packets = 0;
  util::Duration burst_window{util::milliseconds(1)};
  double burst_excess_loss = 0.5;
};

class Link {
 public:
  Link(sim::Simulator& sim, LinkConfig config, sim::Rng rng, PacketSink out);

  /// Accepts a packet for transmission; delivery is scheduled on the
  /// simulator. Lost packets vanish (counted in stats).
  void send(Packet&& p);

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;  // scheduled for delivery (sent - lost)
    std::uint64_t lost = 0;
    std::uint64_t burst_dropped = 0;  // subset of lost: contention drops
    std::int64_t bytes_sent = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

 private:
  sim::Simulator& sim_;
  LinkConfig config_;
  sim::Rng rng_;
  PacketSink out_;
  util::TimePoint busy_until_{};
  std::deque<util::TimePoint> recent_arrivals_;  // for the contention model
  Stats stats_;
};

}  // namespace h2priv::net
