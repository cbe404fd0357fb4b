#include "h2priv/net/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "h2priv/obs/metrics.hpp"

namespace h2priv::net {

Link::Link(sim::Simulator& sim, LinkConfig config, sim::Rng rng, PacketSink out)
    : sim_(sim), config_(config), rng_(std::move(rng)), out_(std::move(out)) {
  if (!out_) throw std::invalid_argument("Link: null output sink");
}

void Link::send(Packet&& p) {
  ++stats_.sent;
  stats_.bytes_sent += p.wire_size();
  if (rng_.chance(config_.loss_probability)) {
    ++stats_.lost;
    obs::count(obs::Counter::kNetLinkLost);
    return;
  }
  if (config_.burst_capacity_packets > 0) {
    const util::TimePoint now = sim_.now();
    while (!recent_arrivals_.empty() &&
           recent_arrivals_.front() < now - config_.burst_window) {
      recent_arrivals_.pop_front();
    }
    recent_arrivals_.push_back(now);
    if (static_cast<int>(recent_arrivals_.size()) > config_.burst_capacity_packets &&
        rng_.chance(config_.burst_excess_loss)) {
      ++stats_.lost;
      ++stats_.burst_dropped;
      obs::count(obs::Counter::kNetLinkLost);
      obs::count(obs::Counter::kNetLinkBurstDropped);
      return;
    }
  }
  const util::TimePoint start = std::max(sim_.now(), busy_until_);
  const util::TimePoint departed = start + config_.rate.transmission_time(p.wire_size());
  busy_until_ = departed;

  util::Duration prop = config_.propagation;
  if (config_.jitter_sigma.ns > 0) {
    prop = rng_.jittered(config_.propagation, config_.jitter_sigma, util::Duration{0});
    obs::count(obs::Counter::kNetLinkJittered);
  }
  ++stats_.delivered;
  sim_.schedule_at(departed + prop,
                   [this, pkt = std::move(p)]() mutable { out_(std::move(pkt)); });
}

}  // namespace h2priv::net
