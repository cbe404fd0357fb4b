// Synthetic model of the paper's target: the isidewith.com "2020
// Presidential Quiz" results page (Section V).
//
//  - one results HTML file of ~9,500 bytes — the 6th object requested,
//  - 47 embedded objects (scripts, styles, images),
//  - 8 political-party emblem images of 5-16 KB whose *request order* is the
//    survey result the adversary wants to recover; a script requests them in
//    quick succession with the inter-arrival times of Table II.
#pragma once

#include <array>
#include <string>

#include "h2priv/sim/rng.hpp"
#include "h2priv/web/site.hpp"

namespace h2priv::web {

inline constexpr int kPartyCount = 8;
inline constexpr std::size_t kResultsHtmlSize = 9'500;
/// Position (1-based) of the results HTML in the request order.
inline constexpr int kResultsHtmlRequestIndex = 6;

/// Distinct emblem sizes in the paper's 5-16 KB range. Distinctness is what
/// makes the size side-channel decisive (Background §II).
inline constexpr std::array<std::size_t, kPartyCount> kEmblemSizes = {
    5'120, 6'656, 8'192, 9'728, 11'264, 12'800, 14'336, 16'384};

/// Script execution delay before the first emblem request (Table II: 780 ms).
inline constexpr util::Duration kScriptDelay = util::milliseconds(780);

/// Inter-arrival times between emblem requests 2..8 (Table II, microseconds
/// resolution): 0.4, 2, 0.3, 0.1, 0.3, 2, 0.5 ms.
inline constexpr std::array<util::Duration, kPartyCount - 1> kEmblemIats = {
    util::microseconds(400), util::microseconds(2'000), util::microseconds(300),
    util::microseconds(100), util::microseconds(300),   util::microseconds(2'000),
    util::microseconds(500)};

struct IsideWithSite {
  Site site;
  ObjectId results_html = 0;
  /// Emblem object ids indexed by party (0..7).
  std::array<ObjectId, kPartyCount> emblems{};

  [[nodiscard]] std::string party_name(int party) const {
    return "party-" + std::to_string(party + 1);
  }
};

/// Builds the site: deterministic layout, independent of the per-run RNG.
/// With `pad_sensitive_objects`, the results HTML and the emblems are all
/// padded up to the same size — the classic size-obfuscation defense the
/// paper contrasts with multiplexing (it defeats the size catalog even when
/// transmissions are serialized, at a bandwidth cost).
[[nodiscard]] IsideWithSite build_isidewith_site(bool pad_sensitive_objects = false);

/// The plan knob a caller may change (the default reproduces the paper
/// setup); every other plan timing is a constant (above, and isidewith.cpp).
struct PlanTuning {
  /// With this probability the browser pauses (parser/render yield) before
  /// the request following the HTML, leaving the HTML's generation window
  /// free of competing responses — the natural serialization behind the
  /// paper's 32% baseline "not multiplexed" rate (Table I, row 1).
  double post_html_pause_probability = 0.35;
};

struct IsideWithPlan {
  RequestPlan plan;
  /// The survey result: parties in display order (== emblem request order).
  std::array<int, kPartyCount> party_order{};
};

/// Builds one page-load plan. The party order (the user's survey outcome) and
/// the ordinary asset gaps are drawn from `rng`; emblem IATs are kEmblemIats.
[[nodiscard]] IsideWithPlan build_isidewith_plan(const IsideWithSite& site, sim::Rng& rng,
                                                 const PlanTuning& tuning = {});

}  // namespace h2priv::web
