#include "h2priv/analysis/fingerprint.hpp"

#include <gtest/gtest.h>

#include "h2priv/sim/rng.hpp"

namespace h2priv::analysis {
namespace {

SizeProfile profile(std::initializer_list<std::size_t> sizes) {
  SizeProfile p(sizes);
  std::sort(p.begin(), p.end());
  return p;
}

TEST(ProfileDistance, ZeroForIdenticalProfiles) {
  const SizeProfile p = profile({1'000, 5'000, 20'000});
  EXPECT_EQ(profile_distance(p, p), 0.0);
}

TEST(ProfileDistance, SymmetricAndPositive) {
  const SizeProfile a = profile({1'000, 5'000});
  const SizeProfile b = profile({1'200, 4'000, 9'000});
  EXPECT_GT(profile_distance(a, b), 0.0);
  EXPECT_EQ(profile_distance(a, b), profile_distance(b, a));
}

TEST(ProfileDistance, NearbySizesMatchCheaply) {
  const SizeProfile a = profile({10'000});
  const SizeProfile b = profile({10'300});
  EXPECT_DOUBLE_EQ(profile_distance(a, b), 300.0);
}

TEST(ProfileDistance, DisparateSizesCostFullWeight) {
  const SizeProfile a = profile({1'000});
  const SizeProfile b = profile({50'000});
  EXPECT_DOUBLE_EQ(profile_distance(a, b), 51'000.0);
}

TEST(ProfileDistance, EmptyProfiles) {
  EXPECT_EQ(profile_distance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(profile_distance({}, profile({2'000})), 2'000.0);
}

TEST(ProfileFromBursts, SortsBodyEstimates) {
  std::vector<EstimatedObject> bursts(3);
  bursts[0].body_estimate = 9'000;
  bursts[1].body_estimate = 1'000;
  bursts[2].body_estimate = 5'000;
  EXPECT_EQ(profile_from_bursts(bursts), profile({1'000, 5'000, 9'000}));
}

TEST(Fingerprinter, ClassifiesExactMatches) {
  Fingerprinter fp;
  fp.train("page-a", profile({2'000, 8'000, 30'000}));
  fp.train("page-b", profile({3'000, 12'000, 14'000}));
  EXPECT_EQ(fp.classify(profile({2'000, 8'000, 30'000})), "page-a");
  EXPECT_EQ(fp.classify(profile({3'000, 12'000, 14'000})), "page-b");
}

TEST(Fingerprinter, ToleratesEstimationNoise) {
  Fingerprinter fp;
  fp.train("page-a", profile({2'000, 8'000, 30'000}));
  fp.train("page-b", profile({3'000, 12'000, 14'000}));
  EXPECT_EQ(fp.classify(profile({2'060, 7'930, 30'140})), "page-a");
}

TEST(Fingerprinter, MarginReportsRunnerUp) {
  Fingerprinter fp;
  fp.train("near", profile({10'000}));
  fp.train("far", profile({90'000}));
  const auto v = fp.classify_with_margin(profile({10'500}));
  EXPECT_EQ(v.label, "near");
  EXPECT_LT(v.best_distance, v.runner_up_distance);
}

TEST(Fingerprinter, UntrainedReturnsEmpty) {
  Fingerprinter fp;
  EXPECT_TRUE(fp.classify(profile({1'000})).empty());
}

TEST(FingerprinterKnn, MajorityVoteOutvotesOneCloseOutlier) {
  // One mislabelled trace sits closest to the probe, but two page-a traces
  // fill the rest of the k=3 neighbourhood and outvote it.
  Fingerprinter fp;
  fp.train("page-a", profile({10'000, 20'000}));
  fp.train("page-a", profile({10'400, 20'400}));
  fp.train("outlier", profile({10'100, 20'100}));
  fp.train("page-b", profile({70'000, 90'000}));
  const SizeProfile probe = profile({10'120, 20'120});
  EXPECT_EQ(fp.classify(probe), "outlier");  // 1-NN is fooled
  EXPECT_EQ(fp.classify_knn_with_votes(probe, 3).label, "page-a");
}

TEST(FingerprinterKnn, KOneMatchesClassify) {
  Fingerprinter fp;
  fp.train("page-a", profile({2'000, 8'000, 30'000}));
  fp.train("page-b", profile({3'000, 12'000, 14'000}));
  const SizeProfile probe = profile({2'060, 7'930, 30'140});
  EXPECT_EQ(fp.classify_knn_with_votes(probe, 1).label, fp.classify(probe));
}

TEST(FingerprinterKnn, DeterministicUnderTrainingOrderAndEdgeCases) {
  // Equidistant neighbours with a split vote: the tie must resolve the same
  // way for any insertion order (summed distance, then label).
  const SizeProfile probe = profile({10'000});
  const std::vector<std::pair<std::string, SizeProfile>> corpus = {
      {"beta", profile({10'500})},
      {"alpha", profile({9'500})},
      {"alpha", profile({12'000})},
      {"beta", profile({8'200})},
  };
  Fingerprinter forward, backward;
  for (const auto& [label, p] : corpus) forward.train(label, p);
  for (auto it = corpus.rbegin(); it != corpus.rend(); ++it) {
    backward.train(it->first, it->second);
  }
  const std::string verdict = forward.classify_knn_with_votes(probe, 4).label;
  EXPECT_EQ(verdict, backward.classify_knn_with_votes(probe, 4).label);
  EXPECT_EQ(verdict, "beta");  // beta's two votes sum closer than alpha's

  EXPECT_TRUE(Fingerprinter{}.classify_knn_with_votes(probe, 3).label.empty());
  EXPECT_TRUE(forward.classify_knn_with_votes(probe, 0).label.empty());
  // k beyond the training set degrades to voting over everything.
  EXPECT_EQ(forward.classify_knn_with_votes(probe, 99).label, verdict);
}

TEST(CentroidModel, FoldsIntegerMedianCentroid) {
  CentroidModel model;
  model.train("page", profile({1'000, 5'000}));
  model.train("page", profile({1'200, 5'200}));
  model.train("page", profile({1'100, 5'100}));
  // Zero distance from the per-position lower median: it is the centroid.
  const auto v = model.classify_with_margin(profile({1'100, 5'100}));
  EXPECT_EQ(v.label, "page");
  EXPECT_EQ(v.best_distance, 0.0);
  EXPECT_EQ(model.label_count(), 1u);
}

TEST(CentroidModel, CentroidAbsorbsOutlierTraces) {
  // A single wild training trace shifts 1-NN but not the median centroid.
  CentroidModel model;
  model.train("page-a", profile({10'000, 20'000}));
  model.train("page-a", profile({10'200, 20'200}));
  model.train("page-a", profile({90'000, 150'000}));  // capture glitch
  model.train("page-b", profile({60'000, 80'000}));
  EXPECT_EQ(model.classify_with_margin(profile({10'100, 20'100})).label, "page-a");
  const auto v = model.classify_with_margin(profile({10'200, 20'200}));
  EXPECT_EQ(v.label, "page-a");
  EXPECT_EQ(v.best_distance, 0.0) << "the median centroid ignores the glitch";
}

TEST(CentroidModel, RaggedProfileLengthsResampleToMedianLength) {
  CentroidModel model;
  model.train("page", profile({4'000}));
  model.train("page", profile({4'100, 8'000, 9'000}));
  model.train("page", profile({4'200, 8'100}));
  // Length 2 (the lower median of lengths {1, 2, 3}), sorted: each profile
  // resamples to {4'000, 4'000}, {4'100, 8'000} and {4'200, 8'100}.
  const auto v = model.classify_with_margin(profile({4'100, 8'000}));
  EXPECT_EQ(v.label, "page");
  EXPECT_EQ(v.best_distance, 0.0);
}

TEST(CentroidModel, UntrainedReturnsEmpty) {
  EXPECT_TRUE(CentroidModel{}.classify_with_margin(profile({1'000})).label.empty());
}

class FingerprintProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FingerprintProperty, ClosedWorldRecoveryUnderNoise) {
  // K synthetic pages of 6-12 objects each; probes are noisy copies.
  sim::Rng rng(GetParam());
  Fingerprinter fp;
  std::vector<SizeProfile> pages;
  for (int k = 0; k < 12; ++k) {
    SizeProfile page;
    const int objects = static_cast<int>(rng.uniform_int(6, 12));
    for (int i = 0; i < objects; ++i) {
      page.push_back(static_cast<std::size_t>(rng.uniform_int(1'000, 120'000)));
    }
    std::sort(page.begin(), page.end());
    fp.train("page-" + std::to_string(k), page);
    pages.push_back(page);
  }
  int correct = 0;
  for (int k = 0; k < 12; ++k) {
    SizeProfile probe = pages[static_cast<std::size_t>(k)];
    for (auto& size : probe) {
      size = static_cast<std::size_t>(
          std::max<std::int64_t>(500, static_cast<std::int64_t>(size) +
                                          rng.uniform_int(-150, 150)));
    }
    correct += fp.classify(probe) == "page-" + std::to_string(k);
  }
  EXPECT_GE(correct, 11) << "noise well below inter-page distances";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FingerprintProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace h2priv::analysis
