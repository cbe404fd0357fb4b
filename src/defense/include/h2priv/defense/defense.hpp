// Defense layer: the knobs a privacy-conscious deployment could turn against
// the paper's passive adversary, unified behind one DefenseConfig so every
// scenario, capture and replay path runs defended or undefended
// deterministically (DESIGN.md §11).
//
// Three countermeasure families, composable:
//  - h2 DATA padding (RFC 7540 §6.1 PADDED flag): per-frame random pad or
//    pad-to-bucket quantization of the frame payload length;
//  - TLS record quantization: the server's record layer rounds every
//    application-data record up to a fixed bucket before sealing, so the
//    5-byte headers the adversary reads stop tracking object boundaries;
//  - server-side shaping: DATA emission is paced on a constant-rate clock
//    (bursts within one tick coalesce back-to-back) and the scheduler's
//    next-handler pick is randomized, decoupling wire order from request
//    order.
//
// The trade-off methodology follows "You get PADDING, everybody gets
// PADDING!" (PAPERS.md): each preset is only meaningful as a point on the
// (recovery-rate reduction) vs (bandwidth/latency overhead) curve — see
// grid.hpp for the harness that sweeps it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "h2priv/sim/rng.hpp"
#include "h2priv/util/units.hpp"

namespace h2priv::defense {

/// How DATA frames are padded on the defended connection.
enum class PaddingPolicy : std::uint8_t {
  kNone = 0,
  kPerFrameRandom = 1,  ///< pad length drawn uniformly from [0, pad_random_max]
  kPadToBucket = 2,     ///< frame payload (data + pad-length byte + pad)
                        ///< rounded up to a multiple of pad_bucket
};

[[nodiscard]] const char* to_string(PaddingPolicy policy) noexcept;

struct DefenseConfig {
  PaddingPolicy padding = PaddingPolicy::kNone;
  /// Bucket for PaddingPolicy::kPadToBucket. One pad-length byte holds at
  /// most 255 pad bytes, so buckets are clamped to [2, 256]; use
  /// record_bucket for coarser quantization.
  std::size_t pad_bucket = 256;
  /// Upper bound for PaddingPolicy::kPerFrameRandom draws.
  std::uint8_t pad_random_max = 255;

  /// TLS record quantization: server-to-client application-data records are
  /// padded to a multiple of this many plaintext bytes before sealing
  /// (clamped to tls::kMaxPlaintext). 0 = off.
  std::size_t record_bucket = 0;

  /// Constant-rate pacing: when both fields are set, the server pump runs
  /// on a fixed shape_interval clock and emits at most
  /// shape_rate * shape_interval bytes per tick, coalesced back-to-back.
  /// Either field 0 = pump on transport backpressure (no shaping).
  util::Duration shape_interval{};
  util::BitRate shape_rate{};

  /// Randomize which started handler writes each chunk instead of strict
  /// round-robin order.
  bool randomize_priority = false;

  [[nodiscard]] bool shaping() const noexcept {
    return shape_interval.ns > 0 && shape_rate.bits_per_sec > 0;
  }
  [[nodiscard]] bool enabled() const noexcept {
    return padding != PaddingPolicy::kNone || record_bucket > 0 || shaping() ||
           randomize_priority;
  }

  friend bool operator==(const DefenseConfig&, const DefenseConfig&) = default;
};

/// Named presets — the rows of the default evaluation grid:
///   none           undefended baseline
///   pad-random     per-frame random DATA padding (0..255)
///   pad-bucket     DATA payloads padded to 256-byte buckets
///   quantize       TLS records quantized to 4 KiB plaintext buckets
///   shape          paced + coalesced emission, randomized handler order
///   quantize+shape both of the above
///   full           pad-bucket + quantize + shape
[[nodiscard]] std::optional<DefenseConfig> defense_from_name(
    std::string_view name) noexcept;
/// The preset name of `config`, or "custom" if it matches none.
[[nodiscard]] std::string defense_name(const DefenseConfig& config);
/// Preset names in grid-row order.
[[nodiscard]] std::vector<std::string> defense_preset_names();

/// Pad length for a DATA frame about to carry `payload_len` body bytes,
/// under `config.padding`. Draws from `rng` only for kPerFrameRandom, so a
/// deterministic policy never perturbs the rng stream.
[[nodiscard]] std::uint8_t data_pad_length(const DefenseConfig& config,
                                           std::size_t payload_len, sim::Rng& rng);

}  // namespace h2priv::defense
