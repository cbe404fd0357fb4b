// Partial-multiplexing inference (the paper's §VII extension): subset-sum
// explanations of mixed bursts over the size catalog.
#include "h2priv/core/partial_matcher.hpp"

#include <gtest/gtest.h>

#include "h2priv/core/experiment.hpp"

namespace h2priv::core {
namespace {

analysis::SizeCatalog two_entry_catalog() {
  analysis::SizeCatalog cat;
  cat.add("a", 5'000);
  cat.add("b", 12'000);
  return cat;
}

TEST(PartialMatcher, SingleObjectBurstExplained) {
  PartialMatcher matcher(two_entry_catalog());
  const auto all = matcher.explanations(5'100, /*tolerance=*/200);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].labels, (std::vector<std::string>{"a"}));
  EXPECT_EQ(all[0].matched_size, 5'000u);
}

TEST(PartialMatcher, PairBurstExplained) {
  PartialMatcher matcher(two_entry_catalog());
  const auto all = matcher.explanations(17'050, /*tolerance=*/200);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].labels, (std::vector<std::string>{"a", "b"}));
}

TEST(PartialMatcher, UnexplainableBurstHasNoMatch) {
  PartialMatcher matcher(two_entry_catalog());
  EXPECT_TRUE(matcher.explanations(9'000, 200).empty());
  EXPECT_TRUE(matcher.explanations(50'000, 200).empty());
}

TEST(PartialMatcher, AmbiguityDetected) {
  analysis::SizeCatalog cat;
  cat.add("x", 4'000);
  cat.add("y", 6'000);
  cat.add("z", 10'000);  // z == x + y
  PartialMatcher matcher(cat);
  const auto all = matcher.explanations(10'000, 100);
  EXPECT_EQ(all.size(), 2u);
  // But x+y+z = 20000 is unique.
  const auto unique = matcher.explanations(20'000, 100);
  ASSERT_EQ(unique.size(), 1u);
  EXPECT_EQ(unique[0].labels.size(), 3u);
}

TEST(PartialMatcher, CertainMembersAcrossAmbiguousExplanations) {
  analysis::SizeCatalog cat;
  cat.add("common", 20'000);
  cat.add("p", 4'000);
  cat.add("q", 3'000);
  cat.add("r", 7'000);  // p + q == r
  PartialMatcher matcher(cat);
  // 27000 = common+r = common+p+q: 'common' is in every explanation.
  const auto certain = matcher.certain_members(27'000, 100);
  EXPECT_EQ(certain, (std::vector<std::string>{"common"}));
}

TEST(PartialMatcher, MaxObjectsBoundsTheSearch) {
  PartialMatcher matcher(two_entry_catalog());
  EXPECT_TRUE(matcher.explanations(17'000, 200, /*max_objects=*/1).empty());
  EXPECT_FALSE(matcher.explanations(17'000, 200, /*max_objects=*/2).empty());
}

TEST(PartialMatcher, PerObjectOverheadAccounted) {
  PartialMatcher matcher(two_entry_catalog(), /*per_object_overhead=*/100);
  // burst = 5000 + 12000 + 2*100 overhead
  const auto all = matcher.explanations(17'200, /*tolerance=*/50);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].labels.size(), 2u);
}

TEST(PartialMatcher, IsidewithPairsMostlyUnique) {
  // The 8 emblem sizes: how many 2-subsets are uniquely decodable?
  PartialMatcher matcher(isidewith_catalog());
  int unique = 0, total = 0;
  for (int i = 0; i < web::kPartyCount; ++i) {
    for (int j = i + 1; j < web::kPartyCount; ++j) {
      const std::size_t burst = web::kEmblemSizes[static_cast<std::size_t>(i)] +
                                web::kEmblemSizes[static_cast<std::size_t>(j)];
      ++total;
      unique += matcher.explanations(burst, 150, 3).size() == 1 ? 1 : 0;
    }
  }
  EXPECT_EQ(total, 28);
  // The arithmetic ladder (spacing 1536) makes many pair sums collide; the
  // matcher must refuse those rather than guess.
  EXPECT_GT(unique, 0);
  EXPECT_LT(unique, total);
}

}  // namespace
}  // namespace h2priv::core
