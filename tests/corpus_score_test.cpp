// Corpus scoring pipeline: the records-direct scorer must agree with full
// replay on every trace, the report (and its metrics export) must be
// byte-identical for any --jobs count, and the train/eval split, classifier
// verdicts and confidence-ranked curves must fold deterministically.
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "h2priv/core/experiment.hpp"
#include "h2priv/corpus/score.hpp"
#include "h2priv/corpus/store.hpp"
#include "h2priv/obs/export.hpp"
#include "h2priv/obs/metrics.hpp"
#include "scratch_path.hpp"

namespace h2priv::corpus {
namespace {

namespace fs = std::filesystem;

fs::path temp_dir(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return testing::scratch_path(std::string("corpus_score_") + info->name() + "_" + name);
}

/// A small sharded table2 corpus (active attack -> meaningful verdicts).
Corpus make_corpus(const fs::path& root, int runs) {
  core::RunConfig cfg;
  cfg.attack_enabled = true;
  cfg.seed = 1000;
  cfg.capture.scenario = "table2";
  cfg.capture.corpus_dir = root.string();
  (void)generate_sharded(cfg, runs, ShardOptions{3}, core::Parallelism{0});
  return load_corpus(root.string());
}

TEST(CorpusScore, ClassifierNamesRoundTrip) {
  for (const Classifier c : {Classifier::kNone, Classifier::kNearest,
                             Classifier::kKnn, Classifier::kCentroid}) {
    const auto back = classifier_from_name(classifier_name(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(classifier_from_name("svm").has_value());
}

TEST(CorpusScore, ReportAndMetricsByteIdenticalAcrossJobs) {
  const fs::path root = temp_dir("corpus");
  fs::remove_all(root);
  const Corpus corpus = make_corpus(root, 6);

  std::string reports[2];
  std::string metrics[2];
  for (int i = 0; i < 2; ++i) {
    obs::ScopedRegistry scoped;
    ScoreOptions options;
    options.parallelism = core::Parallelism{i == 0 ? 1 : 4};
    options.train_mod = 2;
    reports[i] = format_report(score_corpus(corpus, options));
    metrics[i] = obs::to_json(scoped.registry());
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_NE(metrics[0].find("corpus.traces_scored"), std::string::npos);
  EXPECT_NE(metrics[0].find("score.classifications"), std::string::npos);
  fs::remove_all(root);
}

TEST(CorpusScore, RecordsDirectScorerAgreesWithFullReplay) {
  const fs::path root = temp_dir("corpus");
  fs::remove_all(root);
  const Corpus corpus = make_corpus(root, 4);

  ScoreOptions options;
  options.replay_verify = true;  // chunked replay cross-checks every trace
  const ScoreReport report = score_corpus(corpus, options);
  ASSERT_EQ(report.traces.size(), 4u);
  EXPECT_EQ(report.stored_summaries, 4u);
  EXPECT_EQ(report.summary_mismatches, 0u);
  EXPECT_EQ(report.replay_failures, 0u);
  for (const TraceScore& ts : report.traces) {
    EXPECT_TRUE(ts.matches_stored_summary) << ts.file;
    EXPECT_TRUE(ts.replay_verified) << ts.file;
  }
  EXPECT_GT(report.total_packets, 0u);
  EXPECT_GT(report.total_gets, 0);
  fs::remove_all(root);
}

TEST(CorpusScore, SplitClassifiesAndBuildsCurves) {
  const fs::path root = temp_dir("corpus");
  fs::remove_all(root);
  const Corpus corpus = make_corpus(root, 6);

  for (const Classifier classifier :
       {Classifier::kNearest, Classifier::kKnn, Classifier::kCentroid}) {
    ScoreOptions options;
    options.classifier = classifier;
    options.train_mod = 2;  // even seeds train, odd seeds evaluate
    const ScoreReport report = score_corpus(corpus, options);
    EXPECT_EQ(report.train_count, 3u) << classifier_name(classifier);
    EXPECT_EQ(report.eval_count, 3u) << classifier_name(classifier);
    ASSERT_EQ(report.curve.size(), 3u) << classifier_name(classifier);
    for (std::size_t i = 0; i < report.curve.size(); ++i) {
      const CurvePoint& p = report.curve[i];
      EXPECT_EQ(p.accepted, i + 1);
      EXPECT_EQ(p.true_positive + p.false_positive, p.accepted);
    }
    EXPECT_EQ(report.curve.back().true_positive, report.eval_correct);
    for (const TraceScore& ts : report.traces) {
      EXPECT_EQ(ts.trained, ts.seed % 2 == 0);
      EXPECT_FALSE(ts.true_label.empty());
      if (!ts.trained) {
        EXPECT_FALSE(ts.predicted_label.empty()) << classifier_name(classifier);
      }
    }
    const std::string text = format_report(report);
    EXPECT_NE(text.find("h2t-score-report v1"), std::string::npos);
    EXPECT_NE(text.find(std::string("classifier ") + classifier_name(classifier)),
              std::string::npos);
    EXPECT_NE(text.find("curve accepted=3"), std::string::npos);
  }

  // Classification off: no split, no curve, but scoring totals intact.
  ScoreOptions off;
  off.classifier = Classifier::kNone;
  const ScoreReport plain = score_corpus(corpus, off);
  EXPECT_EQ(plain.train_count, 0u);
  EXPECT_EQ(plain.eval_count, 0u);
  EXPECT_TRUE(plain.curve.empty());
  EXPECT_GT(plain.total_packets, 0u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace h2priv::corpus
