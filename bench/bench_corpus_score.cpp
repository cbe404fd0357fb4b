// Corpus-scale scoring throughput: the records-direct pipeline (mmap'd
// TraceFile + capture::score_with_predictor, no TCP reassembly) versus the
// sequential per-trace baseline (TraceFile::open + chunked capture::replay
// per verdict).
//
// Phase 1 generates a sharded corpus (live runs, capture on). Phase 2 times
// the baseline; phase 3 times corpus::score_corpus at --jobs 1 — the
// headline speedup is algorithmic, not parallel — then re-runs it at 4 jobs
// and hard-fails unless the two reports are byte-identical. Peak RSS rides
// along to keep the bounded-memory claim honest.
//
//   $ ./bench_corpus_score [runs] [--jobs N]
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/corpus/score.hpp"
#include "h2priv/corpus/store.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace h2priv;

namespace {

/// Peak resident set size in MiB (0 where getrusage is unavailable).
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = bench::runs_from_argv(argc, argv, 12);
  bench::print_header("bench_corpus_score", "corpus subsystem",
                      "records-direct corpus scoring vs per-trace replay", runs);

  // Phase 1: sharded corpus of live captures (attack on, densest verdicts).
  const std::string root =
      (std::filesystem::temp_directory_path() / "bench_corpus_score").string();
  std::filesystem::remove_all(root);
  core::RunConfig cfg = core::scenario_config("table2");
  cfg.seed = 1'000;
  cfg.capture.corpus_dir = root;
  cfg.capture.scenario = "table2";
  const double gen0 = bench::now_s();
  (void)corpus::generate_sharded(cfg, runs, corpus::ShardOptions{5},
                                 bench::Harness::instance().jobs);
  const double generate_wall = bench::now_s() - gen0;
  const corpus::Corpus corpus = corpus::load_corpus(root);
  std::uint64_t corpus_bytes = 0;
  for (const capture::ManifestEntry& e : corpus.manifest.entries) {
    corpus_bytes += capture::TraceFile::open(trace_path(corpus, e)).file_size();
  }
  std::printf("corpus: %zu traces, %.1f KiB, generated in %.2fs\n",
              corpus.manifest.entries.size(),
              static_cast<double>(corpus_bytes) / 1024.0, generate_wall);

  // Phase 2: baseline — sequential open + full chunked replay per trace.
  const int baseline_reps = 2;
  int mismatches = 0;
  const double b0 = bench::now_s();
  for (int rep = 0; rep < baseline_reps; ++rep) {
    for (const capture::ManifestEntry& e : corpus.manifest.entries) {
      const capture::ReplayResult r =
          capture::replay(capture::TraceFile::open(trace_path(corpus, e)));
      if (!r.records_match || !r.summary_matches) ++mismatches;
    }
  }
  const double baseline_wall = bench::now_s() - b0;
  const double baseline_traces =
      static_cast<double>(corpus.manifest.entries.size()) * baseline_reps;
  const double baseline_traces_per_s =
      baseline_wall > 0 ? baseline_traces / baseline_wall : 0.0;

  // Phase 3: the pipeline, single-worker — the speedup is algorithmic.
  corpus::ScoreOptions options;
  options.parallelism = core::Parallelism{1};
  options.classifier = corpus::Classifier::kKnn;
  options.train_mod = 2;
  const int score_reps = 10;
  std::string report_text;
  const double s0 = bench::now_s();
  for (int rep = 0; rep < score_reps; ++rep) {
    const corpus::ScoreReport report = corpus::score_corpus(corpus, options);
    mismatches += static_cast<int>(report.summary_mismatches);
    if (rep == 0) report_text = corpus::format_report(report);
  }
  const double score_wall = bench::now_s() - s0;
  const double scored_traces =
      static_cast<double>(corpus.manifest.entries.size()) * score_reps;
  const double score_traces_per_s = score_wall > 0 ? scored_traces / score_wall : 0.0;
  const double score_mib_per_s =
      score_wall > 0 ? static_cast<double>(corpus_bytes) * score_reps /
                           (1024.0 * 1024.0) / score_wall
                     : 0.0;
  const double speedup = baseline_traces_per_s > 0
                             ? score_traces_per_s / baseline_traces_per_s
                             : 0.0;

  // Jobs invariance: the 4-worker report must be byte-identical.
  options.parallelism = core::Parallelism{4};
  const bool jobs_invariant =
      corpus::format_report(corpus::score_corpus(corpus, options)) == report_text;

  const double rss_mib = peak_rss_mib();
  std::printf("baseline: %.1f traces/s (open + chunked replay, sequential)\n",
              baseline_traces_per_s);
  std::printf("pipeline: %.1f traces/s, %.1f MiB/s, %.1fx speedup at 1 job\n",
              score_traces_per_s, score_mib_per_s, speedup);
  std::printf("reports jobs 1 vs 4: %s; verdict mismatches: %d (must be 0); "
              "peak RSS %.1f MiB\n",
              jobs_invariant ? "byte-identical" : "DIFFER", mismatches, rss_mib);

  bench::emit_bench_json(
      "corpus_score",
      {{"score_traces_per_s", score_traces_per_s},
       {"score_mib_per_s", score_mib_per_s},
       {"baseline_traces_per_s", baseline_traces_per_s},
       {"score_speedup_vs_replay", speedup},
       {"report_jobs_invariant", jobs_invariant ? 1.0 : 0.0},
       {"verdict_mismatches", static_cast<double>(mismatches)},
       {"peak_rss_mib", rss_mib}});
  std::filesystem::remove_all(root);
  return mismatches == 0 && jobs_invariant ? 0 : 1;
}
