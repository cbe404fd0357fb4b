// Retransmission-timeout estimator: Jacobson/Karels smoothing with Karn's
// rule (callers must not feed samples from retransmitted segments) and
// exponential backoff on timeout (RFC 6298).
#pragma once

#include "h2priv/util/units.hpp"

namespace h2priv::tcp {

struct RtoConfig {
  util::Duration min{util::milliseconds(200)};
  util::Duration max{util::seconds(60)};
};

class RtoEstimator {
 public:
  explicit RtoEstimator(RtoConfig config = {}) noexcept;

  /// Feeds one RTT measurement (never from a retransmitted segment — Karn).
  void sample(util::Duration rtt) noexcept;

  /// Doubles the backed-off timeout after a retransmission timer fires.
  void backoff() noexcept;

  /// Resets backoff once new data is acknowledged.
  void clear_backoff() noexcept { backoff_shift_ = 0; }

  /// Current timeout (smoothed estimate with backoff, clamped to [min,max]).
  [[nodiscard]] util::Duration rto() const noexcept;

  [[nodiscard]] util::Duration srtt() const noexcept { return srtt_; }
  [[nodiscard]] util::Duration rttvar() const noexcept { return rttvar_; }
  [[nodiscard]] bool has_sample() const noexcept { return has_sample_; }

 private:
  RtoConfig config_;
  util::Duration srtt_{};
  util::Duration rttvar_{};
  util::Duration base_rto_;
  bool has_sample_ = false;
  int backoff_shift_ = 0;
};

}  // namespace h2priv::tcp
