#include "h2priv/defense/defense.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace h2priv::defense {

namespace {

DefenseConfig preset_pad_random() {
  DefenseConfig d;
  d.padding = PaddingPolicy::kPerFrameRandom;
  d.pad_random_max = 255;
  return d;
}

DefenseConfig preset_pad_bucket() {
  DefenseConfig d;
  d.padding = PaddingPolicy::kPadToBucket;
  // 64 is deliberately a half-measure: frame inflation (~32 bytes/frame)
  // sits at the edge of the catalog matcher's tolerance, so the attack
  // degrades instead of dying — the mid-point of the trade-off curve.
  d.pad_bucket = 64;
  return d;
}

DefenseConfig preset_quantize() {
  DefenseConfig d;
  d.record_bucket = 4 * 1024;
  return d;
}

DefenseConfig preset_shape() {
  DefenseConfig d;
  d.shape_interval = util::milliseconds(3);
  d.shape_rate = util::megabits_per_second(16);
  d.randomize_priority = true;
  return d;
}

DefenseConfig preset_quantize_shape() {
  DefenseConfig d = preset_shape();
  d.record_bucket = preset_quantize().record_bucket;
  return d;
}

DefenseConfig preset_full() {
  DefenseConfig d = preset_quantize_shape();
  d.padding = PaddingPolicy::kPadToBucket;
  d.pad_bucket = 256;
  return d;
}

/// Preset table in grid-row order (cheapest first).
const std::array<std::pair<const char*, DefenseConfig (*)()>, 7>& presets() {
  static const std::array<std::pair<const char*, DefenseConfig (*)()>, 7> kPresets = {{
      {"none", [] { return DefenseConfig{}; }},
      {"pad-random", preset_pad_random},
      {"pad-bucket", preset_pad_bucket},
      {"quantize", preset_quantize},
      {"shape", preset_shape},
      {"quantize+shape", preset_quantize_shape},
      {"full", preset_full},
  }};
  return kPresets;
}

}  // namespace

const char* to_string(PaddingPolicy policy) noexcept {
  switch (policy) {
    case PaddingPolicy::kNone: return "none";
    case PaddingPolicy::kPerFrameRandom: return "random";
    case PaddingPolicy::kPadToBucket: return "bucket";
  }
  return "?";
}

std::optional<DefenseConfig> defense_from_name(std::string_view name) noexcept {
  for (const auto& [preset_name, make] : presets()) {
    if (name == preset_name) return make();
  }
  return std::nullopt;
}

std::string defense_name(const DefenseConfig& config) {
  for (const auto& [preset_name, make] : presets()) {
    if (config == make()) return preset_name;
  }
  return "custom";
}

std::vector<std::string> defense_preset_names() {
  std::vector<std::string> names;
  names.reserve(presets().size());
  for (const auto& [preset_name, make] : presets()) names.emplace_back(preset_name);
  return names;
}

std::uint8_t data_pad_length(const DefenseConfig& config, std::size_t payload_len,
                             sim::Rng& rng) {
  switch (config.padding) {
    case PaddingPolicy::kNone:
      return 0;
    case PaddingPolicy::kPerFrameRandom:
      return static_cast<std::uint8_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(config.pad_random_max)));
    case PaddingPolicy::kPadToBucket: {
      // Quantize the frame payload length: data + pad-length byte + pad is
      // rounded up to the bucket. One u8 holds the pad, hence the clamp.
      const std::size_t bucket = std::clamp<std::size_t>(config.pad_bucket, 2, 256);
      const std::size_t rem = (payload_len + 1) % bucket;
      return static_cast<std::uint8_t>(rem == 0 ? 0 : bucket - rem);
    }
  }
  return 0;
}

}  // namespace h2priv::defense
