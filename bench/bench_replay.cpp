// Offline-analysis throughput: how fast the monitor/fingerprinter/predictor
// stack re-derives verdicts from stored .h2t traces, versus paying for a
// full simulation per verdict.
//
// Phase 1 records a small corpus (live runs, each written as a .h2t);
// phase 2 replays every trace repeatedly and times only the offline pipeline. The
// headline metrics are replayed packets/s and the speedup over live, plus
// the trace compression ratio (canonical raw footprint / .h2t bytes).
//
//   $ ./bench_replay [runs] [--jobs N]
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/record.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"

using namespace h2priv;

int main(int argc, char** argv) {
  const int runs = bench::runs_from_argv(argc, argv, 8);
  bench::print_header("bench_replay", "capture subsystem",
                      "replay-driven offline analysis vs live simulation", runs);

  // Phase 1: live capture. One .h2t per seed, attack on (densest verdicts).
  // The corpus lives under the system temp dir, not the invoking cwd.
  const std::string corpus =
      (std::filesystem::temp_directory_path() / "bench_replay_corpus").string();
  std::filesystem::remove_all(corpus);
  core::RunConfig cfg = core::scenario_config("table2");
  cfg.capture.corpus_dir = corpus;
  cfg.capture.scenario = "table2";
  capture::Manifest manifest;
  const bench::Batch live = bench::run_batch_with(
      cfg, runs, 1'000,
      [&manifest](const core::RunConfig& c, int n, core::Parallelism jobs) {
        capture::RecordedCorpus recorded = capture::record_corpus(c, n, jobs);
        manifest = std::move(recorded.manifest);
        return std::move(recorded.results);
      });
  std::printf("capture:\n");
  bench::print_batch_perf(live);

  // Open (map + validate) once; replay timing should not include file I/O.
  // Sizes come from the manifest record_corpus wrote beside the traces.
  std::vector<capture::TraceFile> traces;
  std::uint64_t trace_bytes = 0, raw_bytes = 0, total_packets = 0;
  traces.reserve(manifest.entries.size());
  for (const capture::ManifestEntry& e : manifest.entries) {
    traces.push_back(capture::TraceFile::open(corpus + "/" + e.file));
    trace_bytes += e.stored_bytes;
    raw_bytes += e.raw_bytes;
    total_packets += e.packets;
  }

  // Phase 2: replay each trace until the measurement is stable.
  const int reps = 5;
  int verdict_mismatches = 0;
  const double t0 = bench::now_s();
  for (int rep = 0; rep < reps; ++rep) {
    for (const capture::TraceFile& trace : traces) {
      const capture::ReplayResult r = capture::replay(trace);
      if (!r.records_match || !r.summary_matches) ++verdict_mismatches;
    }
  }
  const double replay_wall = bench::now_s() - t0;

  const double replayed_packets = static_cast<double>(total_packets) * reps;
  const double packets_per_s = replay_wall > 0 ? replayed_packets / replay_wall : 0.0;
  const double live_s_per_run = live.wall_seconds / std::max(1, live.n());
  const double replay_s_per_run =
      replay_wall / std::max(1.0, static_cast<double>(runs) * reps);
  const double speedup = replay_s_per_run > 0 ? live_s_per_run / replay_s_per_run : 0.0;
  const double compression =
      trace_bytes > 0 ? static_cast<double>(raw_bytes) / static_cast<double>(trace_bytes)
                      : 0.0;

  std::printf("replay:\n");
  std::printf("  [%d replays in %.2fs, %.2fM packets/s, %.1fx faster than live]\n",
              runs * reps, replay_wall, packets_per_s / 1e6, speedup);
  std::printf("  [corpus %.1f KiB on disk, %.2fx vs canonical raw footprint]\n",
              static_cast<double>(trace_bytes) / 1024.0, compression);
  std::printf("  [verdict mismatches: %d (must be 0)]\n", verdict_mismatches);

  bench::emit_bench_json(
      "replay", {{"replay_packets_per_s", packets_per_s},
                 {"replay_speedup_vs_live", speedup},
                 {"trace_compression_ratio", compression},
                 {"verdict_mismatches", static_cast<double>(verdict_mismatches)}});
  traces.clear();
  std::filesystem::remove_all(corpus);
  return verdict_mismatches == 0 ? 0 : 1;
}
