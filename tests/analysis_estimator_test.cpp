// Burst segmentation (header-record delimiters + idle gaps) and the size
// catalog the predictor matches against.
#include "h2priv/analysis/estimator.hpp"

#include <gtest/gtest.h>

namespace h2priv::analysis {
namespace {

RecordObservation app_record(std::int64_t t_ms, std::size_t plaintext,
                             net::Direction dir = net::Direction::kServerToClient) {
  RecordObservation r;
  r.time = util::TimePoint{t_ms * 1'000'000};
  r.dir = dir;
  r.type = tls::ContentType::kApplicationData;
  r.ciphertext_len = plaintext + tls::kAeadOverhead;
  return r;
}

RecordObservation header_record(std::int64_t t_ms) {
  return app_record(t_ms, 60);  // response HEADERS frame: small record
}

// One serialized response: header record then DATA records of `chunks`.
void append_response(std::vector<RecordObservation>& recs, std::int64_t& t_ms,
                     std::initializer_list<std::size_t> chunks) {
  recs.push_back(header_record(t_ms));
  for (const std::size_t c : chunks) {
    ++t_ms;
    recs.push_back(app_record(t_ms, c + 9));  // +9: HTTP/2 frame header
  }
  t_ms += 2;
}

TEST(Estimator, DelimitedResponsesYieldExactBodySizes) {
  std::vector<RecordObservation> recs;
  std::int64_t t = 0;
  append_response(recs, t, {4'096, 4'096, 1'308});  // 9500-byte object
  append_response(recs, t, {4'096, 1'024});         // 5120-byte object
  const auto bursts = segment_bursts(recs);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].body_estimate, 9'500u);
  EXPECT_EQ(bursts[1].body_estimate, 5'120u);
  EXPECT_EQ(bursts[0].record_count, 3u);
}

TEST(Estimator, PacingGapsInsideAResponseDoNotSplitIt) {
  // Congestion pacing spreads a response across RTTs; the delimiter keeps it
  // whole as long as no new header record appears.
  std::vector<RecordObservation> recs;
  recs.push_back(header_record(0));
  recs.push_back(app_record(1, 4'105));
  recs.push_back(app_record(45, 4'105));   // 44 ms RTT gap
  recs.push_back(app_record(90, 1'317));
  const auto bursts = segment_bursts(recs);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].body_estimate, 9'500u);
}

TEST(Estimator, LongIdleGapSplitsEvenWithoutDelimiter) {
  std::vector<RecordObservation> recs;
  recs.push_back(app_record(0, 2'009));
  recs.push_back(app_record(500, 3'009));  // > 300 ms gap
  const auto bursts = segment_bursts(recs);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].body_estimate, 2'000u);
  EXPECT_EQ(bursts[1].body_estimate, 3'000u);
}

TEST(Estimator, TinyControlBurstsFiltered) {
  std::vector<RecordObservation> recs;
  recs.push_back(header_record(0));
  recs.push_back(app_record(1, 200));  // below the 600-byte burst floor
  const auto bursts = segment_bursts(recs);
  EXPECT_TRUE(bursts.empty());
}

TEST(Estimator, ClientDirectionAndHandshakeIgnored) {
  std::vector<RecordObservation> recs;
  recs.push_back(app_record(0, 5'000, net::Direction::kClientToServer));
  RecordObservation hs = app_record(1, 5'000);
  hs.type = tls::ContentType::kHandshake;
  recs.push_back(hs);
  EXPECT_TRUE(segment_bursts(recs).empty());
}

TEST(Estimator, InterleavedResponsesProduceNoCleanMatch) {
  // Two objects' DATA records interleave: the delimiters split mid-object
  // and no burst equals either true size.
  std::vector<RecordObservation> recs;
  recs.push_back(header_record(0));
  recs.push_back(app_record(1, 4'105));   // obj A chunk 1
  recs.push_back(header_record(2));       // obj B headers
  recs.push_back(app_record(3, 4'105));   // obj B chunk 1
  recs.push_back(app_record(4, 3'000));   // obj A chunk 2 (attributed to B!)
  recs.push_back(app_record(5, 1'317));   // obj B tail
  const auto bursts = segment_bursts(recs);
  for (const auto& b : bursts) {
    EXPECT_NE(b.body_estimate, 9'500u);
    EXPECT_NE(b.body_estimate, 5'404u);
  }
}

TEST(Estimator, TimesSpanTheBurst) {
  std::vector<RecordObservation> recs;
  std::int64_t t = 10;
  append_response(recs, t, {1'000, 1'000});
  const auto bursts = segment_bursts(recs);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].first_record.ns, util::TimePoint{10'000'000}.ns);
  EXPECT_EQ(bursts[0].last_record.ns, util::TimePoint{12'000'000}.ns);
}

TEST(SizeCatalog, MatchesWithinTolerance) {
  SizeCatalog cat;
  cat.add("small", 5'120);
  cat.add("large", 16'384);
  ASSERT_TRUE(cat.match(5'120).has_value());
  EXPECT_EQ(cat.match(5'120)->label, "small");
  EXPECT_EQ(cat.match(5'200)->label, "small");
  EXPECT_EQ(cat.match(16'300)->label, "large");
  EXPECT_FALSE(cat.match(10'000).has_value());
}

TEST(SizeCatalog, AmbiguousMatchRejected) {
  SizeCatalog cat;
  cat.add("a", 5'000);
  cat.add("b", 5'100);
  EXPECT_FALSE(cat.match(5'050, /*abs_tolerance=*/100, /*frac=*/0.0).has_value())
      << "two candidates in range: refuse rather than guess";
  EXPECT_FALSE(cat.match(5'050, /*abs_tolerance=*/45, /*frac=*/0.0).has_value());
  EXPECT_EQ(cat.match(4'990, /*abs_tolerance=*/20, /*frac=*/0.0)->label, "a");
}

TEST(SizeCatalog, FractionalToleranceScalesWithSize) {
  SizeCatalog cat;
  cat.add("big", 100'000);
  EXPECT_TRUE(cat.match(101'500, /*abs_tolerance=*/100, /*frac=*/0.02).has_value());
  EXPECT_FALSE(cat.match(103'000, /*abs_tolerance=*/100, /*frac=*/0.02).has_value());
}

TEST(SizeCatalog, EmptyCatalogNeverMatches) {
  SizeCatalog cat;
  EXPECT_FALSE(cat.match(1'000).has_value());
}

class GapSweep : public ::testing::TestWithParam<int> {};

TEST_P(GapSweep, DelimiterSegmentationIsGapInsensitive) {
  // Whatever the intra-response pacing (below the idle threshold), sizes
  // come out exact — this is what defeats cwnd pacing after the drop phase.
  const int gap_ms = GetParam();
  std::vector<RecordObservation> recs;
  std::int64_t t = 0;
  recs.push_back(header_record(t));
  std::size_t total = 0;
  for (int i = 0; i < 4; ++i) {
    t += gap_ms;
    recs.push_back(app_record(t, 2'048 + 9));
    total += 2'048;
  }
  const auto bursts = segment_bursts(recs);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].body_estimate, total);
}

INSTANTIATE_TEST_SUITE_P(Gaps, GapSweep, ::testing::Values(1, 10, 40, 80, 150, 280));

}  // namespace
}  // namespace h2priv::analysis
