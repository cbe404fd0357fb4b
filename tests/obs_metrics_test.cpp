// Unit tests for the obs metrics registry: log-bucket histogram boundaries,
// counter/gauge semantics, merge algebra, scoped-registry plumbing, and the
// stable JSON export.
#include "h2priv/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "h2priv/obs/export.hpp"

namespace h2priv::obs {
namespace {

// --- histogram bucket boundaries -------------------------------------------

TEST(HistBucket, ZeroAndOneGetTheirOwnBuckets) {
  EXPECT_EQ(hist_bucket(0), 0u);
  EXPECT_EQ(hist_bucket(1), 1u);
}

TEST(HistBucket, PowerOfTwoBoundaries) {
  // Bucket k covers [2^(k-1), 2^k): a power of two starts its bucket and
  // one-less-than ends the previous one.
  for (std::size_t k = 1; k < 64; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << (k - 1);
    EXPECT_EQ(hist_bucket(lo), k) << "low edge of bucket " << k;
    EXPECT_EQ(hist_bucket(2 * lo - 1), k) << "high edge of bucket " << k;
    if (k + 1 < 65) {
      EXPECT_EQ(hist_bucket(2 * lo), k + 1);
    }
  }
}

TEST(HistBucket, MaxValueLandsInLastBucket) {
  EXPECT_EQ(hist_bucket(~std::uint64_t{0}), kHistBuckets - 1);
}

TEST(HistBucket, FloorIsTheSmallestMemberOfEachBucket) {
  EXPECT_EQ(hist_bucket_floor(0), 0u);
  for (std::size_t k = 1; k < kHistBuckets; ++k) {
    const std::uint64_t floor = hist_bucket_floor(k);
    EXPECT_EQ(hist_bucket(floor), k);
    EXPECT_EQ(hist_bucket(floor - 1), k - 1);
  }
}

TEST(HistogramData, RecordTracksCountSumMaxAndBucket) {
  HistogramData h;
  h.record(0);
  h.record(1);
  h.record(1500);  // bit_width 11
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1501u);
  EXPECT_EQ(h.max, 1500u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[11], 1u);
}

// --- registry basics --------------------------------------------------------

TEST(Registry, CountersAccumulateAndSet) {
  Registry r;
  r.add(Counter::kTcpSegmentsSent);
  r.add(Counter::kTcpSegmentsSent, 4);
  EXPECT_EQ(r.get(Counter::kTcpSegmentsSent), 5u);
  r.set(Counter::kTcpSegmentsSent, 0);
  EXPECT_EQ(r.get(Counter::kTcpSegmentsSent), 0u);
}

TEST(Registry, GaugeKeepsTheMaximum) {
  Registry r;
  r.gauge_max(Gauge::kSimHeapDepth, 10);
  r.gauge_max(Gauge::kSimHeapDepth, 3);
  EXPECT_EQ(r.gauge(Gauge::kSimHeapDepth), 10u);
  r.gauge_max(Gauge::kSimHeapDepth, 11);
  EXPECT_EQ(r.gauge(Gauge::kSimHeapDepth), 11u);
}

TEST(Registry, ResetZeroesEverything) {
  Registry r;
  r.add(Counter::kSimEventsExecuted, 7);
  r.gauge_max(Gauge::kTcpCwndBytes, 99);
  r.sample(Hist::kTlsRecordBytes, 1024);
  r.reset();
  EXPECT_EQ(r.get(Counter::kSimEventsExecuted), 0u);
  EXPECT_EQ(r.gauge(Gauge::kTcpCwndBytes), 0u);
  EXPECT_EQ(r.histogram(Hist::kTlsRecordBytes).count, 0u);
}

// --- merge algebra ----------------------------------------------------------

Registry make_registry(std::uint64_t salt) {
  Registry r;
  r.add(Counter::kTcpRetransmitsFast, salt);
  r.add(Counter::kH2DataSent, 2 * salt + 1);
  r.gauge_max(Gauge::kTcpCwndBytes, 1000 * salt);
  r.sample(Hist::kTlsRecordBytes, 100 + salt);
  r.sample(Hist::kTlsRecordBytes, 16384);
  return r;
}

std::string merged_json(const Registry& a, const Registry& b, const Registry& c) {
  Registry out;
  out.merge_from(a);
  out.merge_from(b);
  out.merge_from(c);
  return to_json(out);
}

TEST(Registry, MergeIsCommutativeAndAssociative) {
  const Registry a = make_registry(1);
  const Registry b = make_registry(5);
  const Registry c = make_registry(23);

  const std::string abc = merged_json(a, b, c);
  EXPECT_EQ(abc, merged_json(c, b, a));
  EXPECT_EQ(abc, merged_json(b, a, c));

  // ((a+b)+c) == (a+(b+c)) — what makes worker join order irrelevant.
  Registry left;
  left.merge_from(a);
  left.merge_from(b);
  Registry left_total;
  left_total.merge_from(left);
  left_total.merge_from(c);
  Registry right;
  right.merge_from(b);
  right.merge_from(c);
  Registry right_total;
  right_total.merge_from(a);
  right_total.merge_from(right);
  EXPECT_EQ(to_json(left_total), to_json(right_total));
}

// --- current()/scoped plumbing ----------------------------------------------

TEST(ScopedRegistry, RedirectsAndRestoresCurrent) {
  Registry& outer = current();
  const std::uint64_t before = outer.get(Counter::kCoreRuns);
  {
    ScopedRegistry scoped;
    EXPECT_EQ(&current(), &scoped.registry());
    count(Counter::kCoreRuns);
    EXPECT_EQ(scoped.registry().get(Counter::kCoreRuns), 1u);
  }
  EXPECT_EQ(&current(), &outer);
  EXPECT_EQ(outer.get(Counter::kCoreRuns), before);  // no merge by default
}

TEST(ScopedRegistry, MergeOnExitFoldsIntoParent) {
  ScopedRegistry parent;
  {
    ScopedRegistry child(/*merge_on_exit=*/true);
    count(Counter::kCoreRuns, 3);
    gauge_to_max(Gauge::kSimHeapDepth, 42);
  }
  EXPECT_EQ(parent.registry().get(Counter::kCoreRuns), 3u);
  EXPECT_EQ(parent.registry().gauge(Gauge::kSimHeapDepth), 42u);
}

TEST(FrameCounter, MapsRfc7540TypesOntoTheContiguousBlock) {
  EXPECT_EQ(h2_frame_sent_counter(0x0), Counter::kH2DataSent);
  EXPECT_EQ(h2_frame_sent_counter(0x1), Counter::kH2HeadersSent);
  EXPECT_EQ(h2_frame_sent_counter(0x3), Counter::kH2RstStreamSent);
  EXPECT_EQ(h2_frame_sent_counter(0x9), Counter::kH2ContinuationSent);
  EXPECT_EQ(h2_frame_sent_counter(0xa), Counter::kH2OtherSent);
  EXPECT_EQ(h2_frame_sent_counter(0xff), Counter::kH2OtherSent);
}

// --- export ----------------------------------------------------------------

TEST(Export, EmptyRegistrySerializesToEmptySections) {
  Registry r;
  EXPECT_EQ(to_json(r), R"({"counters":{},"gauges":{},"histograms":{}})");
}

TEST(Export, SkipsZerosAndEmitsIntegerBuckets) {
  Registry r;
  r.add(Counter::kTlsRecordsSealed, 2);
  r.gauge_max(Gauge::kTcpCwndBytes, 14600);
  r.sample(Hist::kTlsRecordBytes, 1);
  const std::string json = to_json(r);
  EXPECT_NE(json.find(R"("tls.records_sealed":2)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("tcp.cwnd_bytes_max":14600)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("buckets":[[1,1]])"), std::string::npos) << json;
  EXPECT_EQ(json.find("sim."), std::string::npos) << "zero counters must be skipped";
  EXPECT_EQ(json.find("e+"), std::string::npos) << "no floating point anywhere";
}

TEST(Export, EveryNameIsUniqueAndDotted) {
  // With every counter nonzero, the export names each one: "name":1 items.
  Registry r;
  for (std::size_t i = 0; i < kCounterCount; ++i) r.add(static_cast<Counter>(i), 1);
  const std::string json = to_json(r);
  const std::string open = R"("counters":{)";
  const std::size_t begin = json.find(open) + open.size();
  std::istringstream items(json.substr(begin, json.find('}', begin) - begin));
  std::set<std::string> names;
  std::size_t entries = 0;
  for (std::string item; std::getline(items, item, ',');) {
    ++entries;
    const std::string name = item.substr(1, item.find('"', 1) - 1);
    EXPECT_NE(name.find('.'), std::string::npos) << name;
    names.insert(name);
  }
  EXPECT_EQ(entries, kCounterCount);
  EXPECT_EQ(names.size(), kCounterCount) << "counter names must be unique";
}

}  // namespace
}  // namespace h2priv::obs
