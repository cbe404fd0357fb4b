#include "h2priv/tcp/rto.hpp"

#include <algorithm>
#include <cstdlib>

namespace h2priv::tcp {

namespace {

/// The timeout before the first RTT sample (RFC 6298 §2.1).
constexpr util::Duration kInitialRto = util::seconds(1);

}  // namespace

RtoEstimator::RtoEstimator(RtoConfig config) noexcept
    : config_(config), base_rto_(kInitialRto) {}

void RtoEstimator::sample(util::Duration rtt) noexcept {
  if (!has_sample_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    has_sample_ = true;
  } else {
    // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - rtt|; srtt = 7/8 srtt + 1/8 rtt
    const util::Duration err{std::abs(srtt_.ns - rtt.ns)};
    rttvar_ = {(3 * rttvar_.ns + err.ns) / 4};
    srtt_ = {(7 * srtt_.ns + rtt.ns) / 8};
  }
  base_rto_ = srtt_ + std::max(util::Duration{4 * rttvar_.ns}, util::milliseconds(10));
}

void RtoEstimator::backoff() noexcept {
  if (backoff_shift_ < 16) ++backoff_shift_;
}

util::Duration RtoEstimator::rto() const noexcept {
  util::Duration v = base_rto_;
  for (int i = 0; i < backoff_shift_ && v < config_.max; ++i) v = v * 2;
  return std::clamp(v, config_.min, config_.max);
}

}  // namespace h2priv::tcp
