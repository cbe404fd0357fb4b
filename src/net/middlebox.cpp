#include "h2priv/net/middlebox.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "h2priv/obs/metrics.hpp"

namespace h2priv::net {

void Middlebox::process(Direction d, Packet&& p) {
  PortState& port_state = port(d);
  if (!port_state.out) throw std::logic_error("Middlebox: output not wired");

  obs::Registry& reg = obs::current();
  ++port_state.stats.seen;
  reg.add(obs::Counter::kNetMbSeen);
  const util::TimePoint arrival = sim_.now();
  for (const auto& tap : taps_) tap(d, p, arrival);

  if (port_state.drop && port_state.drop(p)) {
    ++port_state.stats.dropped;
    reg.add(obs::Counter::kNetMbDropped);
    return;
  }

  // Shaper: FIFO serialization at the (possibly adversarially lowered) rate.
  util::TimePoint ready = arrival;
  if (port_state.bandwidth) {
    const util::TimePoint start = std::max(arrival, port_state.shaper_busy_until);
    ready = start + port_state.bandwidth->transmission_time(p.wire_size());
    port_state.shaper_busy_until = ready;
    reg.add(obs::Counter::kNetMbThrottled);
  }

  // Hold stage: policy may push individual packets later (request spacing).
  util::TimePoint release = ready;
  if (port_state.hold) {
    release = port_state.hold(p, ready);
    if (release < ready) throw std::logic_error("Middlebox: hold released packet early");
    if (release > ready) {
      ++port_state.stats.held;
      reg.add(obs::Counter::kNetMbHeld);
    }
  }

  ++port_state.stats.forwarded;
  reg.add(obs::Counter::kNetMbForwarded);
  sim_.schedule_at(release, [&port_state, pkt = std::move(p)]() mutable {
    port_state.out(std::move(pkt));
  });
}

}  // namespace h2priv::net
