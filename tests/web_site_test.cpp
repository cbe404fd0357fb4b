#include <set>

#include <gtest/gtest.h>

#include "h2priv/web/isidewith.hpp"
#include "h2priv/web/site.hpp"

namespace h2priv::web {
namespace {

TEST(Site, AddAndLookup) {
  Site site;
  const ObjectId a = site.add("/a.html", "text/html", 100);
  const ObjectId b = site.add("/b.png", "image/png", 200);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(site.find_by_path("/a.html")->id, a);
  EXPECT_EQ(site.find_by_path("/missing"), nullptr);
  EXPECT_EQ(site.object(b).size, 200u);
}

TEST(Site, RejectsDuplicatePathsAndBadIds) {
  Site site;
  site.add("/a", "text/html", 1);
  EXPECT_THROW(site.add("/a", "text/html", 2), std::invalid_argument);
  EXPECT_THROW((void)site.object(0), std::out_of_range);
  EXPECT_THROW((void)site.object(2), std::out_of_range);
}

TEST(Site, BodyIsDeterministicAndSized) {
  Site site;
  const ObjectId id = site.add("/a", "text/html", 1'234);
  EXPECT_EQ(site.object(id).body().size(), 1'234u);
  EXPECT_EQ(site.object(id).body(), site.object(id).body());
}

TEST(IsideWith, SiteShape) {
  const IsideWithSite s = build_isidewith_site();
  // 1 HTML + 47 embedded objects.
  EXPECT_EQ(s.site.objects().size(), 48u);
  EXPECT_EQ(s.site.object(s.results_html).size, kResultsHtmlSize);
  EXPECT_GT(s.site.object(s.results_html).service_time.ns, 0)
      << "the results page is dynamically generated";
}

TEST(IsideWith, EmblemSizesAreDistinctAndInPaperRange) {
  const IsideWithSite s = build_isidewith_site();
  std::set<std::size_t> sizes;
  for (const ObjectId id : s.emblems) {
    const std::size_t size = s.site.object(id).size;
    EXPECT_GE(size, 5'000u);
    EXPECT_LE(size, 16'500u);
    sizes.insert(size);
  }
  EXPECT_EQ(sizes.size(), 8u) << "sizes must uniquely identify the parties";
}

TEST(IsideWith, NoOtherObjectCollidesWithTheCatalogSizes) {
  // The size side-channel needs the objects of interest to be unique within
  // a tolerance window (the predictor uses ~150 bytes).
  const IsideWithSite s = build_isidewith_site();
  std::set<ObjectId> interesting(s.emblems.begin(), s.emblems.end());
  interesting.insert(s.results_html);
  for (const SiteObject& obj : s.site.objects()) {
    if (interesting.contains(obj.id)) continue;
    for (const ObjectId id : interesting) {
      const auto a = static_cast<std::int64_t>(obj.size);
      const auto b = static_cast<std::int64_t>(s.site.object(id).size);
      EXPECT_GT(std::abs(a - b), 300) << obj.path << " collides with object " << id;
    }
  }
}

TEST(IsideWith, PlanCoversEveryObjectExactlyOnce) {
  const IsideWithSite s = build_isidewith_site();
  sim::Rng rng(1);
  const IsideWithPlan plan = build_isidewith_plan(s, rng);
  EXPECT_EQ(plan.plan.items.size(), 48u);
  std::set<ObjectId> seen;
  for (const auto& item : plan.plan.items) seen.insert(item.object_id);
  EXPECT_EQ(seen.size(), 48u);
}

TEST(IsideWith, HtmlIsTheSixthRequest) {
  const IsideWithSite s = build_isidewith_site();
  sim::Rng rng(2);
  const IsideWithPlan plan = build_isidewith_plan(s, rng);
  EXPECT_EQ(plan.plan.items[kResultsHtmlRequestIndex - 1].object_id, s.results_html);
}

TEST(IsideWith, EmblemsAreDeferredWithTableIiIats) {
  const IsideWithSite s = build_isidewith_site();
  sim::Rng rng(3);
  const IsideWithPlan plan = build_isidewith_plan(s, rng);
  EXPECT_EQ(plan.plan.trigger_object, s.results_html);
  EXPECT_EQ(plan.plan.trigger_delay.ns, kScriptDelay.ns);

  std::vector<RequestPlan::Item> deferred;
  for (const auto& item : plan.plan.items) {
    if (item.deferred) deferred.push_back(item);
  }
  ASSERT_EQ(deferred.size(), 8u);
  EXPECT_EQ(deferred[0].gap_before.ns, 0);
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(deferred[static_cast<std::size_t>(i)].gap_before.ns,
              kEmblemIats[static_cast<std::size_t>(i - 1)].ns);
  }
  // Request order == party display order.
  for (int pos = 0; pos < 8; ++pos) {
    const int party = plan.party_order[static_cast<std::size_t>(pos)];
    EXPECT_EQ(deferred[static_cast<std::size_t>(pos)].object_id,
              s.emblems[static_cast<std::size_t>(party)]);
  }
}

TEST(IsideWith, PartyOrderVariesWithSeed) {
  const IsideWithSite s = build_isidewith_site();
  std::set<std::array<int, kPartyCount>> orders;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::Rng rng(seed);
    orders.insert(build_isidewith_plan(s, rng).party_order);
  }
  EXPECT_GT(orders.size(), 15u) << "party orders should be near-unique per run";
}

TEST(IsideWith, PlanIsDeterministicPerSeed) {
  const IsideWithSite s = build_isidewith_site();
  sim::Rng a(7), b(7);
  const IsideWithPlan p1 = build_isidewith_plan(s, a);
  const IsideWithPlan p2 = build_isidewith_plan(s, b);
  EXPECT_EQ(p1.party_order, p2.party_order);
  ASSERT_EQ(p1.plan.items.size(), p2.plan.items.size());
  for (std::size_t i = 0; i < p1.plan.items.size(); ++i) {
    EXPECT_EQ(p1.plan.items[i].gap_before.ns, p2.plan.items[i].gap_before.ns);
  }
}

}  // namespace
}  // namespace h2priv::web
