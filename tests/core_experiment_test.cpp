// End-to-end integration through core::run_once — the full topology the
// paper's experiments run on.
#include "h2priv/core/experiment.hpp"

#include <filesystem>
#include <stdexcept>

#include <gtest/gtest.h>

#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/tls/record.hpp"

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

TEST(Experiment, RunOnceRejectsCaptureAndWritesNothing) {
  // run_once simulates and scores only; capture::record_run writes traces.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "run_once_rejects_capture";
  std::filesystem::remove_all(dir);
  RunConfig cfg;
  cfg.capture.path = (dir / "run.h2t").string();
  EXPECT_THROW((void)run_once(cfg), std::invalid_argument);
  cfg.capture = CaptureOptions{};
  cfg.capture.corpus_dir = dir.string();
  EXPECT_THROW((void)run_once(cfg), std::invalid_argument);
  EXPECT_THROW((void)run_many(cfg, 2, Parallelism{1}), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(dir));
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

// --- core::score_run on a hand-made record stream ---------------------------

constexpr util::TimePoint kHorizon{100'000'000};  // phase 3 starts at 100 ms
/// Emblem servings after the stale copy, in wire order: party 6 before 5.
constexpr std::array<int, 7> kWireOrder = {0, 1, 2, 3, 4, 6, 5};

/// One serialized response as the adversary sees it: a small HEADERS record
/// opening the burst at `t_ms`, then DATA records carrying `body` bytes.
void append_serving(std::vector<analysis::RecordObservation>& recs, std::int64_t t_ms,
                    std::size_t body) {
  analysis::RecordObservation rec;
  rec.dir = net::Direction::kServerToClient;
  rec.type = tls::ContentType::kApplicationData;
  rec.time = util::TimePoint{t_ms * 1'000'000};
  rec.ciphertext_len = 60 + tls::kAeadOverhead;
  recs.push_back(rec);
  for (std::size_t left = body; left > 0;) {
    const std::size_t chunk = std::min<std::size_t>(left, 4'096);
    rec.time.ns += 1'000;
    rec.ciphertext_len = chunk + 9 + tls::kAeadOverhead;  // +9: DATA frame header
    recs.push_back(rec);
    left -= chunk;
  }
}

/// Parties shown in order 0..7. On the wire: party 7's emblem only before the
/// horizon; after it the HTML, a stale copy of party 3, parties 0-4 in order
/// (party 3's real serving last among them), then party 6 before party 5.
/// Every object is served exactly once, fully serialized, in ground truth.
RunResult score_hand_made_run() {
  const web::IsideWithSite site = web::build_isidewith_site(false);
  const auto size_of = [&](web::ObjectId id) { return site.site.object(id).size; };
  std::vector<analysis::RecordObservation> recs;
  append_serving(recs, 10, size_of(site.emblems[7]));
  append_serving(recs, 110, size_of(site.results_html));
  append_serving(recs, 120, size_of(site.emblems[3]));  // stale retransmission
  std::int64_t t_ms = 130;
  for (const int party : kWireOrder) {
    append_serving(recs, t_ms, size_of(site.emblems[static_cast<std::size_t>(party)]));
    t_ms += 10;
  }

  analysis::GroundTruth truth;
  std::uint64_t offset = 0;
  std::uint32_t stream_id = 1;
  const auto serve = [&](web::ObjectId id) {
    const analysis::InstanceId inst = truth.register_instance(id, stream_id, false);
    truth.record_data(inst, h2::WireSpan{offset, offset + size_of(id)});
    truth.mark_complete(inst);
    offset += size_of(id);
    stream_id += 2;
  };
  serve(site.results_html);
  for (const web::ObjectId id : site.emblems) serve(id);

  const ObjectPredictor predictor(recs, isidewith_catalog());
  RunResult result;
  score_run(site, {0, 1, 2, 3, 4, 5, 6, 7}, truth, predictor, kHorizon, result);
  return result;
}

TEST(ScoreRun, SequenceUsesEachPartysLastServingAfterTheHorizon) {
  const RunResult r = score_hand_made_run();
  EXPECT_TRUE(r.html.identified);
  EXPECT_TRUE(r.emblems_by_position[3].identified);
  // The stale copy of party 3 (at 120 ms) would put it first.
  std::vector<std::string> expected;
  for (const int party : kWireOrder) expected.push_back(party_label(party));
  EXPECT_EQ(r.predicted_sequence, expected);
  for (std::size_t pos = 0; pos < 5; ++pos) {
    EXPECT_TRUE(r.emblems_by_position[pos].attack_success) << pos;
  }
  EXPECT_EQ(r.sequence_positions_correct, 5);
}

TEST(ScoreRun, PreHorizonServingIsNeitherIdentifiedNorSequenced) {
  const RunResult r = score_hand_made_run();
  const ObjectOutcome& last = r.emblems_by_position[7];
  EXPECT_EQ(last.label, party_label(7));
  EXPECT_TRUE(last.any_serialized_copy);
  EXPECT_FALSE(last.identified);
  EXPECT_FALSE(last.attack_success);
  const std::vector<std::string>& seq = r.predicted_sequence;
  EXPECT_EQ(std::find(seq.begin(), seq.end(), party_label(7)), seq.end());
}

TEST(ScoreRun, OutOfOrderPositionFailsDespiteASerializedCopy) {
  const RunResult r = score_hand_made_run();
  for (const std::size_t pos : {std::size_t{5}, std::size_t{6}}) {
    const ObjectOutcome& o = r.emblems_by_position[pos];
    EXPECT_TRUE(o.identified) << pos;
    EXPECT_TRUE(o.any_serialized_copy) << pos;
    EXPECT_FALSE(o.attack_success) << pos;
  }
}

TEST(ScoreRun, SamplesDomOncePerScoredObject) {
  obs::ScopedRegistry scoped;
  const RunResult r = score_hand_made_run();
  const obs::HistogramData& dom = obs::current().histogram(obs::Hist::kH2ObjectDomMilli);
  EXPECT_EQ(dom.count, 1u + web::kPartyCount);
  EXPECT_EQ(dom.sum, 0u);
  EXPECT_TRUE(r.html.serialized_primary);
}

}  // namespace
}  // namespace h2priv::core
