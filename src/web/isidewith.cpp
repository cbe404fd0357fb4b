#include "h2priv/web/isidewith.hpp"

#include <algorithm>
#include <numeric>

namespace h2priv::web {

namespace {

/// Mean/extremes of the browser's gaps between ordinary asset requests.
/// Embedded objects are requested in a dense burst as the parser finds
/// them — this density is what keeps several responses in flight at once
/// and produces the ~98% baseline degree of multiplexing.
constexpr util::Duration kAssetGapMean = util::microseconds(1'500);
constexpr util::Duration kAssetGapMax = util::milliseconds(40);
/// Gap before the results HTML request (Table II row 1: 500 ms).
constexpr util::Duration kHtmlGap = util::milliseconds(500);
/// Range of the optional pause before the request following the HTML
/// (PlanTuning::post_html_pause_probability).
constexpr util::Duration kPostHtmlPauseMin = util::milliseconds(60);
constexpr util::Duration kPostHtmlPauseMax = util::milliseconds(250);

}  // namespace

IsideWithSite build_isidewith_site(bool pad_sensitive_objects) {
  IsideWithSite s;
  const auto padded = [pad_sensitive_objects](std::size_t n) {
    return pad_sensitive_objects ? std::max<std::size_t>(n, 16'600) : n;
  };

  // Head-of-page static assets requested before the results HTML. Static
  // files are served almost immediately; they multiplex with each other and
  // with anything the server is generating concurrently.
  constexpr util::Duration kStatic = util::microseconds(300);
  s.site.add("/js/vendor.bundle.js", "application/javascript", 48 * 1024, kStatic);
  s.site.add("/js/main.bundle.js", "application/javascript", 36 * 1024, kStatic);
  s.site.add("/css/app.css", "text/css", 30 * 1024, kStatic);
  s.site.add("/images/logo.png", "image/png", 22 * 1024, kStatic);
  s.site.add("/css/fonts.css", "text/css", 18 * 1024, kStatic);

  // The results page is generated per user by the application server: its
  // multi-millisecond service time is what lets the (static) assets that are
  // requested just after it overtake and interleave with it — the source of
  // the paper's ~98% baseline degree of multiplexing for this object.
  s.results_html = s.site.add("/results/2020-presidential-quiz", "text/html",
                              padded(kResultsHtmlSize), util::milliseconds(25));

  // 34 further embedded assets. Sizes avoid the emblem band (4.6-17.5 KB)
  // so that size uniquely identifies the objects of interest — the paper's
  // precondition for the size side-channel (§II).
  for (int i = 0; i < 34; ++i) {
    const bool small = i % 2 == 0;
    const std::size_t size = small
        ? 1'024 + static_cast<std::size_t>((i * 7919) % 7) * 512          // 1-4.5 KB
        : 18'432 + static_cast<std::size_t>((i * 7919) % 30) * 1'024;     // 18-48 KB
    const bool script = i % 3 == 0;
    s.site.add((script ? "/js/widget-" : "/images/asset-") + std::to_string(i + 1) +
                   (script ? ".js" : ".png"),
               script ? "application/javascript" : "image/png", size, kStatic);
  }

  // The 8 party emblems: distinct sizes in the paper's 5-16 KB range.
  for (int p = 0; p < kPartyCount; ++p) {
    s.emblems[static_cast<std::size_t>(p)] =
        s.site.add("/images/emblem-" + s.party_name(p) + ".png", "image/png",
                   padded(kEmblemSizes[static_cast<std::size_t>(p)]), kStatic);
  }
  return s;
}

IsideWithPlan build_isidewith_plan(const IsideWithSite& site, sim::Rng& rng,
                                   const PlanTuning& tuning) {
  IsideWithPlan out;

  // Survey result: a uniformly random ranking of the 8 parties.
  std::array<int, kPartyCount> order{};
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> shuffled(order.begin(), order.end());
  rng.shuffle(shuffled);
  std::copy(shuffled.begin(), shuffled.end(), order.begin());
  out.party_order = order;

  const auto asset_gap = [&rng]() {
    return std::min(rng.exponential(kAssetGapMean), kAssetGapMax);
  };

  RequestPlan& plan = out.plan;
  const auto& objects = site.site.objects();

  // Phase 1: five head assets, the HTML, then the remaining ordinary assets.
  for (int i = 1; i <= 5; ++i) {
    plan.items.push_back({objects[static_cast<std::size_t>(i - 1)].id,
                          i == 1 ? util::Duration{} : asset_gap(), false});
  }
  plan.items.push_back({site.results_html, rng.jittered(kHtmlGap, kHtmlGap / 10), false});
  for (std::size_t i = 6; i < 6 + 34; ++i) {
    util::Duration gap = asset_gap();
    if (i == 6 && rng.chance(tuning.post_html_pause_probability)) {
      gap = rng.uniform_duration(kPostHtmlPauseMin, kPostHtmlPauseMax);
    }
    plan.items.push_back({objects[i].id, gap, false});
  }

  // Phase 2 (deferred): the emblem images, requested by script after the
  // HTML completes, in display order, with Table II's inter-arrival times.
  plan.trigger_object = site.results_html;
  plan.trigger_delay = kScriptDelay;
  for (int pos = 0; pos < kPartyCount; ++pos) {
    const int party = order[static_cast<std::size_t>(pos)];
    plan.items.push_back(
        {site.emblems[static_cast<std::size_t>(party)],
         pos == 0 ? util::Duration{} : kEmblemIats[static_cast<std::size_t>(pos - 1)],
         true});
  }
  return out;
}

}  // namespace h2priv::web
