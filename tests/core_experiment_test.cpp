// End-to-end integration through core::run_once — the full topology the
// paper's experiments run on.
#include "h2priv/core/experiment.hpp"

#include <gtest/gtest.h>

namespace h2priv::core {
namespace {

TEST(Experiment, BaselinePageLoadCompletes) {
  RunConfig cfg;
  cfg.seed = 7;
  const RunResult r = run_once(cfg);
  EXPECT_TRUE(r.page_complete);
  EXPECT_FALSE(r.broken);
  EXPECT_GT(r.page_load_seconds, 0.5);
  EXPECT_LT(r.page_load_seconds, 20.0);
  EXPECT_EQ(r.monitor_gets, 48) << "one counted GET per object";
}

TEST(Experiment, BaselineHtmlIsMultiplexed) {
  RunConfig cfg;
  cfg.seed = 8;
  cfg.tuning.post_html_pause_probability = 0.0;  // suppress the natural lull
  const RunResult r = run_once(cfg);
  ASSERT_TRUE(r.html.primary_dom.has_value());
  EXPECT_GT(*r.html.primary_dom, 0.5) << "the paper reports ~98% baseline DoM";
  EXPECT_FALSE(r.html.attack_success);
}

TEST(Experiment, BaselineEmblemsAreMultiplexed) {
  RunConfig cfg;
  cfg.seed = 9;
  const RunResult r = run_once(cfg);
  int high = 0;
  for (const auto& o : r.emblems_by_position) {
    ASSERT_TRUE(o.primary_dom.has_value());
    high += *o.primary_dom >= 0.8;
  }
  EXPECT_GE(high, 6) << "paper: default image DoM in the 80-99% band";
}

TEST(Experiment, SameSeedIsBitForBitReproducible) {
  RunConfig cfg;
  cfg.seed = 11;
  cfg.attack_enabled = true;
  const RunResult a = run_once(cfg);
  const RunResult b = run_once(cfg);
  EXPECT_EQ(a.page_complete, b.page_complete);
  EXPECT_EQ(a.page_load_seconds, b.page_load_seconds);
  EXPECT_EQ(a.monitor_packets, b.monitor_packets);
  EXPECT_EQ(a.browser_rerequests, b.browser_rerequests);
  EXPECT_EQ(a.predicted_sequence, b.predicted_sequence);
  EXPECT_EQ(a.true_party_order, b.true_party_order);
  EXPECT_EQ(a.sequence_positions_correct, b.sequence_positions_correct);
}

TEST(Experiment, DifferentSeedsProduceDifferentRuns) {
  RunConfig a_cfg, b_cfg;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  const RunResult a = run_once(a_cfg);
  const RunResult b = run_once(b_cfg);
  EXPECT_TRUE(a.true_party_order != b.true_party_order ||
              a.monitor_packets != b.monitor_packets);
}

TEST(Experiment, FullAttackBreaksHtmlPrivacyOnMostSeeds) {
  RunConfig cfg;
  cfg.attack_enabled = true;
  int successes = 0;
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    cfg.seed = seed;
    successes += run_once(cfg).html.attack_success;
  }
  EXPECT_GE(successes, 6) << "paper reports ~90% HTML success";
}

TEST(Experiment, FullAttackRecoversMostOfTheSequence) {
  RunConfig cfg;
  cfg.attack_enabled = true;
  int positions = 0;
  for (std::uint64_t seed = 40; seed < 50; ++seed) {
    cfg.seed = seed;
    positions += run_once(cfg).sequence_positions_correct;
  }
  EXPECT_GE(positions, 40) << "expect >50% of 80 positions on average";
}

TEST(Experiment, ManualSpacingSerializesHtml) {
  RunConfig cfg;
  cfg.manual_spacing = util::milliseconds(100);
  int serialized = 0;
  for (std::uint64_t seed = 50; seed < 55; ++seed) {
    cfg.seed = seed;
    serialized += run_once(cfg).html.serialized_primary;
  }
  EXPECT_GE(serialized, 3) << "100 ms spacing beats the 25 ms generation time";
}

TEST(Experiment, SpacingIncreasesRetransmissionEvents) {
  RunConfig base_cfg, jitter_cfg;
  base_cfg.seed = 60;
  jitter_cfg.seed = 60;
  jitter_cfg.manual_spacing = util::milliseconds(50);
  std::uint64_t base = 0, jitter = 0;
  for (int i = 0; i < 5; ++i) {
    base_cfg.seed = jitter_cfg.seed = 60 + static_cast<std::uint64_t>(i);
    base += run_once(base_cfg).retransmission_events();
    jitter += run_once(jitter_cfg).retransmission_events();
  }
  EXPECT_GT(jitter, base * 2) << "Table I: ~+130% retransmissions at 50 ms";
}

TEST(Experiment, SevereThrottlingBreaksOrCrawls) {
  RunConfig cfg;
  cfg.seed = 70;
  cfg.manual_bandwidth = util::kilobits_per_second(300);
  cfg.deadline = util::seconds(30);
  const RunResult r = run_once(cfg);
  EXPECT_FALSE(r.page_complete && r.page_load_seconds < 10.0)
      << "paper: below 1 Mbps the connection is effectively broken";
}

TEST(Experiment, AttackLeavesPageLoadable) {
  RunConfig cfg;
  cfg.attack_enabled = true;
  int complete = 0;
  for (std::uint64_t seed = 80; seed < 86; ++seed) {
    cfg.seed = seed;
    complete += run_once(cfg).page_complete;
  }
  EXPECT_GE(complete, 5) << "the victim still gets the page (stealth)";
}

TEST(Experiment, CatalogMatchesSiteModel) {
  const analysis::SizeCatalog cat = isidewith_catalog();
  EXPECT_EQ(cat.entries().size(), 9u);
  EXPECT_TRUE(cat.match(web::kResultsHtmlSize).has_value());
  for (const std::size_t size : web::kEmblemSizes) {
    ASSERT_TRUE(cat.match(size).has_value());
  }
}

TEST(Experiment, PaddingDefenseDefeatsIdentification) {
  RunConfig cfg;
  cfg.attack_enabled = true;
  cfg.pad_sensitive_objects = true;
  int identified = 0;
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    cfg.seed = seed;
    const RunResult r = run_once(cfg);
    identified += r.html.identified;
    EXPECT_TRUE(r.page_complete);
  }
  EXPECT_EQ(identified, 0) << "uniform sizes leave the catalog nothing to match";
}

TEST(Experiment, PushDefenseHidesTheOrder) {
  RunConfig cfg;
  cfg.attack_enabled = true;
  cfg.push_emblems = true;
  int positions = 0, complete = 0;
  for (std::uint64_t seed = 210; seed < 216; ++seed) {
    cfg.seed = seed;
    const RunResult r = run_once(cfg);
    positions += r.sequence_positions_correct;
    complete += r.page_complete;
  }
  EXPECT_EQ(complete, 6);
  EXPECT_LE(positions, 12) << "pushed order is server-random: near-chance recovery";
}

TEST(Experiment, PushDefenseStillDeliversEveryObject) {
  RunConfig cfg;
  cfg.seed = 220;
  cfg.push_emblems = true;
  const RunResult r = run_once(cfg);
  EXPECT_TRUE(r.page_complete);
  for (const auto& o : r.emblems_by_position) {
    EXPECT_TRUE(r.truth->primary_instance(o.object_id) != nullptr);
  }
}

TEST(Experiment, RunManySweepsSeeds) {
  RunConfig cfg;
  cfg.seed = 100;
  const auto results = run_many(cfg, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].page_complete);
}

TEST(Experiment, TruthAndDebugMaterialsExposed) {
  RunConfig cfg;
  cfg.seed = 90;
  cfg.attack_enabled = true;
  const RunResult r = run_once(cfg);
  ASSERT_NE(r.truth, nullptr);
  EXPECT_GT(r.truth->instances().size(), 40u);
  EXPECT_GT(r.attack_horizon_seconds, 0.0);
  EXPECT_FALSE(r.debug_bursts.empty());
}

}  // namespace
}  // namespace h2priv::core
