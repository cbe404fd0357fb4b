// Fleet runner determinism and fidelity: jobs invariance of the merged
// trace, cache-off equivalence with standalone core::run_once, profile
// stability across cache settings, and the demux/replay round trip.
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/fleet/fleet.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::fleet {
namespace {

constexpr int kClients = 4;

std::string temp_path(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "fleet_run_" + info->name() + "_" + name + ".h2t";
}

util::Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return util::Bytes{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

core::RunConfig fleet_config(std::uint64_t seed, std::size_t cache_mb) {
  core::RunConfig cfg;
  cfg.seed = seed;
  cfg.attack_enabled = true;
  cfg.fleet.clients = kClients;
  cfg.fleet.cache_mb = cache_mb;
  return cfg;
}

void expect_same_outcome(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.page_complete, b.page_complete);
  EXPECT_EQ(a.monitor_packets, b.monitor_packets);
  EXPECT_EQ(a.monitor_gets, b.monitor_gets);
  EXPECT_EQ(a.predicted_sequence, b.predicted_sequence);
  EXPECT_EQ(a.sequence_positions_correct, b.sequence_positions_correct);
  EXPECT_EQ(a.html.identified, b.html.identified);
  EXPECT_EQ(a.html.attack_success, b.html.attack_success);
  EXPECT_EQ(a.html.primary_dom, b.html.primary_dom);
  EXPECT_EQ(a.true_party_order, b.true_party_order);
  for (std::size_t i = 0; i < a.emblems_by_position.size(); ++i) {
    EXPECT_EQ(a.emblems_by_position[i].attack_success,
              b.emblems_by_position[i].attack_success);
  }
}

TEST(FleetRun, RequiresEnabledFleetConfig) {
  core::RunConfig cfg;  // fleet.clients == 0
  EXPECT_THROW((void)run_fleet(cfg, core::Parallelism{1}), std::invalid_argument);
  EXPECT_THROW((void)plan_fleet(cfg), std::invalid_argument);
}

TEST(FleetRun, PlanIsDeterministicAndCacheIndependent) {
  const std::vector<ClientProfile> a = plan_fleet(fleet_config(7, 0));
  const std::vector<ClientProfile> b = plan_fleet(fleet_config(7, 32));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].start_offset.ns, b[i].start_offset.ns);
    EXPECT_EQ(a[i].client_hop_delay.ns, b[i].client_hop_delay.ns);
    EXPECT_EQ(a[i].server_hop_delay.ns, b[i].server_hop_delay.ns);
    EXPECT_EQ(a[i].link_rate.bits_per_sec, b[i].link_rate.bits_per_sec);
    EXPECT_EQ(a[i].background_loss, b[i].background_loss);
  }
  // Different fleet seeds draw different profiles.
  const std::vector<ClientProfile> c = plan_fleet(fleet_config(8, 0));
  EXPECT_NE(a[0].seed, c[0].seed);
}

TEST(FleetRun, MergedTraceIsJobsInvariant) {
  const std::string p1 = temp_path("jobs1");
  const std::string p4 = temp_path("jobs4");
  core::RunConfig cfg = fleet_config(21, 2);
  cfg.capture.path = p1;
  const FleetResult serial = run_fleet(cfg, core::Parallelism{1});
  cfg.capture.path = p4;
  const FleetResult parallel = run_fleet(cfg, core::Parallelism{4});

  EXPECT_EQ(slurp(p1), slurp(p4));
  ASSERT_EQ(serial.clients.size(), parallel.clients.size());
  for (std::size_t i = 0; i < serial.clients.size(); ++i) {
    expect_same_outcome(serial.clients[i].result, parallel.clients[i].result);
    EXPECT_EQ(serial.clients[i].cache_hits, parallel.clients[i].cache_hits);
    EXPECT_EQ(serial.clients[i].cache_misses, parallel.clients[i].cache_misses);
  }
  EXPECT_EQ(serial.cache_evictions, parallel.cache_evictions);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST(FleetRun, CacheOffClientEqualsStandaloneRunOnce) {
  // With the cache tier off there is no origin_delay hook, so every fleet
  // client must be bit-equal to a lone core::run_once under its profile.
  const core::RunConfig cfg = fleet_config(33, 0);
  const FleetResult fleet = run_fleet(cfg, core::Parallelism{2});
  const std::vector<ClientProfile> profiles = plan_fleet(cfg);
  ASSERT_EQ(fleet.clients.size(), profiles.size());
  EXPECT_EQ(fleet.cache_requests(), 0u);

  for (std::size_t k = 0; k < profiles.size(); ++k) {
    core::RunConfig solo;
    solo.attack_enabled = cfg.attack_enabled;
    solo.seed = profiles[k].seed;
    solo.path.client_hop_delay = profiles[k].client_hop_delay;
    solo.path.server_hop_delay = profiles[k].server_hop_delay;
    solo.path.link_rate = profiles[k].link_rate;
    solo.path.background_loss = profiles[k].background_loss;
    const core::RunResult standalone = core::run_once(solo);
    expect_same_outcome(fleet.clients[k].result, standalone);
  }
}

TEST(FleetRun, DemuxRecoversClientStreamsAndReplays) {
  const std::string path = temp_path("trace");
  core::RunConfig cfg = fleet_config(55, 2);
  cfg.capture.path = path;
  const FleetResult fleet = run_fleet(cfg, core::Parallelism{2});

  const capture::TraceFile trace = capture::TraceFile::open(path);
  EXPECT_TRUE(trace.meta().fleet);
  const std::vector<capture::DemuxedConn> conns = capture::demux_fleet(trace);
  ASSERT_EQ(conns.size(), fleet.clients.size());
  std::uint64_t total_packets = 0;
  for (std::size_t k = 0; k < conns.size(); ++k) {
    const FleetClientResult& client = fleet.clients[k];
    EXPECT_EQ(conns[k].info.client_seed, client.profile.seed);
    EXPECT_EQ(conns[k].info.cache_hits, client.cache_hits);
    ASSERT_EQ(conns[k].packets.size(), client.obs.packets.size());
    // Demux rebases merged timestamps back to client-local time.
    for (std::size_t i = 0; i < conns[k].packets.size(); ++i) {
      EXPECT_EQ(conns[k].packets[i].time.ns, client.obs.packets[i].time.ns);
      EXPECT_EQ(conns[k].packets[i].seq, client.obs.packets[i].seq);
    }
    ASSERT_EQ(conns[k].records_s2c.size(), client.obs.records_s2c.size());
    total_packets += conns[k].packets.size();
  }
  EXPECT_EQ(total_packets, trace.packet_count());

  for (const capture::ReplayResult& r : capture::replay_fleet(trace)) {
    EXPECT_TRUE(r.records_match);
    EXPECT_TRUE(r.summary_matches);
  }
  std::remove(path.c_str());
}

TEST(FleetRun, ReplayConnRejectsRecordsOutOfStreamOrder) {
  // A demuxed connection whose records are out of stream-offset order cannot
  // be replayed faithfully; replay_conn must refuse it, not synthesize a
  // stream that silently diverges from the capture.
  const std::string path = temp_path("trace");
  core::RunConfig cfg = fleet_config(55, 2);
  cfg.capture.path = path;
  (void)run_fleet(cfg, core::Parallelism{2});
  std::vector<capture::DemuxedConn> conns =
      capture::demux_fleet(capture::TraceFile::open(path));
  std::remove(path.c_str());
  ASSERT_FALSE(conns.empty());
  capture::DemuxedConn& conn = conns.front();
  ASSERT_GE(conn.records_s2c.size(), 2u);
  EXPECT_TRUE(capture::replay_conn(conn).summary_matches);

  const std::size_t mid = conn.records_s2c.size() / 2;
  std::swap(conn.records_s2c[mid - 1], conn.records_s2c[mid]);
  EXPECT_THROW((void)capture::replay_conn(conn), capture::TraceError);
}

TEST(FleetRun, CacheShortensMissFreePageLoads) {
  // Same fleet with and without the cache tier: cached runs see hits, and
  // every client's page still completes (the delay hook must stay benign).
  const FleetResult cold = run_fleet(fleet_config(71, 0), core::Parallelism{2});
  const FleetResult warm = run_fleet(fleet_config(71, 8), core::Parallelism{2});
  EXPECT_GT(warm.cache_requests(), 0u);
  EXPECT_GT(warm.cache_hit_rate(), 0.0);
  for (std::size_t k = 0; k < warm.clients.size(); ++k) {
    EXPECT_TRUE(warm.clients[k].result.page_complete);
    EXPECT_TRUE(cold.clients[k].result.page_complete);
    // The profile chain is cache-independent.
    EXPECT_EQ(warm.clients[k].profile.seed, cold.clients[k].profile.seed);
  }
}

}  // namespace
}  // namespace h2priv::fleet
