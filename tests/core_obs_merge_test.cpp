// The job-count invariance contract of the obs layer: a Monte-Carlo batch
// must export bit-identical metrics for any --jobs value, because worker
// registries merge with commutative operators (counter sums, gauge maxes,
// histogram bucket sums).
//
// The only exception is the pool reuse/fresh split — buffer pools are
// thread-local, so which acquire() hits a warm pool depends on scheduling.
// Those counters are zeroed (Registry::set) before comparing; their *sum*
// (pool.chunks_served) stays in the comparison.
#include <gtest/gtest.h>

#include <string>

#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/obs/export.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/util/units.hpp"

namespace h2priv {
namespace {

core::RunConfig small_config() {
  core::RunConfig cfg;
  cfg.seed = 1000;
  cfg.manual_spacing = util::milliseconds(50);  // the fig2 spacing-sweep point
  return cfg;
}

void zero_scheduling_dependent(obs::Registry& r) {
  r.set(obs::Counter::kPoolChunksReused, 0);
  r.set(obs::Counter::kPoolChunksFresh, 0);
  r.set(obs::Counter::kPoolChunksOversize, 0);
}

/// Runs `n` seeds with the given worker count under a private registry and
/// returns the scheduling-independent part of its JSON export.
std::string batch_metrics_json(int n, int jobs) {
  obs::ScopedRegistry scoped;
  const auto results = core::run_many(small_config(), n, core::Parallelism{jobs});
  EXPECT_EQ(static_cast<int>(results.size()), n);
  zero_scheduling_dependent(scoped.registry());
  return obs::to_json(scoped.registry());
}

TEST(ObsMerge, BatchTotalsAreBitIdenticalForAnyJobCount) {
  const int n = 6;
  const std::string serial = batch_metrics_json(n, 1);
  EXPECT_EQ(serial, batch_metrics_json(n, 2));
  EXPECT_EQ(serial, batch_metrics_json(n, 3));
  EXPECT_EQ(serial, batch_metrics_json(n, 6));
}

TEST(ObsMerge, BatchCountsEveryLayer) {
  obs::ScopedRegistry scoped;
  (void)core::run_many(small_config(), 2, core::Parallelism{2});
  const obs::Registry& r = scoped.registry();
  EXPECT_EQ(r.get(obs::Counter::kCoreRuns), 2u);
  EXPECT_GT(r.get(obs::Counter::kSimEventsExecuted), 0u);
  EXPECT_GT(r.get(obs::Counter::kNetMbForwarded), 0u);
  EXPECT_GT(r.get(obs::Counter::kTcpSegmentsSent), 0u);
  EXPECT_GT(r.get(obs::Counter::kTlsRecordsSealed), 0u);
  EXPECT_GT(r.get(obs::Counter::kPoolChunksServed), 0u);
  EXPECT_GT(r.get(obs::Counter::kH2DataSent), 0u);
  EXPECT_GT(r.get(obs::Counter::kH2FramesReceived), 0u);
  EXPECT_GT(r.gauge(obs::Gauge::kSimHeapDepth), 0u);
  EXPECT_GT(r.gauge(obs::Gauge::kTcpCwndBytes), 0u);
  EXPECT_GT(r.histogram(obs::Hist::kTlsRecordBytes).count, 0u);
  EXPECT_GT(r.histogram(obs::Hist::kH2ObjectDomMilli).count, 0u);
}

TEST(ObsMerge, SealedAndOpenedRecordsBalance) {
  obs::ScopedRegistry scoped;
  (void)core::run_once(small_config());
  const obs::Registry& r = scoped.registry();
  // Everything opened was sealed first; loss can only lose, not invent.
  EXPECT_GE(r.get(obs::Counter::kTlsRecordsSealed),
            r.get(obs::Counter::kTlsRecordsOpened));
  EXPECT_GT(r.get(obs::Counter::kTlsRecordsOpened), 0u);
}

}  // namespace
}  // namespace h2priv
