// Fleet-scale determinism and throughput: N heterogeneous clients through
// the shared gateway + caching reverse-proxy tier (src/fleet), captured
// into merged fleet .h2t traces.
//
// Phase 1 generates the same fleet corpus twice — once at --jobs 1, once at
// 4 workers — and HARD-FAILS unless the manifests are byte-identical and
// every per-trace digest matches (the fleet jobs-invariance gate). Phase 2
// demultiplexes and replays every connection of the first trace offline and
// hard-fails on any records/verdict divergence. Phase 3 reports fleet
// throughput (clients/s) and the cache tier's hit rate.
//
//   $ ./bench_fleet [runs] [--jobs N]   # runs = fleet traces per corpus
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/fleet/fleet.hpp"

using namespace h2priv;

namespace {

constexpr int kClients = 16;
constexpr std::size_t kCacheMb = 4;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = bench::runs_from_argv(argc, argv, 2);
  bench::print_header("bench_fleet", "fleet subsystem",
                      "N-client fleet determinism (jobs invariance) + cache tier",
                      runs);

  core::RunConfig cfg = core::scenario_config("table2");
  cfg.seed = 1'000;
  cfg.capture.scenario = "table2";
  cfg.fleet.clients = kClients;
  cfg.fleet.cache_mb = kCacheMb;

  const std::string root =
      (std::filesystem::temp_directory_path() / "bench_fleet").string();
  const std::string dir1 = root + "/jobs1";
  const std::string dir4 = root + "/jobs4";
  std::filesystem::remove_all(root);

  // Phase 1: same corpus at 1 and 4 workers; manifests must be identical.
  core::RunConfig cfg1 = cfg;
  cfg1.capture.corpus_dir = dir1;
  const double t0 = bench::now_s();
  const std::vector<fleet::FleetResult> serial =
      fleet::run_fleet_corpus(cfg1, runs, core::Parallelism{1});
  const double serial_wall = bench::now_s() - t0;

  core::RunConfig cfg4 = cfg;
  cfg4.capture.corpus_dir = dir4;
  const double t1 = bench::now_s();
  const std::vector<fleet::FleetResult> parallel =
      fleet::run_fleet_corpus(cfg4, runs, core::Parallelism{4});
  const double parallel_wall = bench::now_s() - t1;

  const bool manifests_identical =
      slurp(dir1 + "/manifest.txt") == slurp(dir4 + "/manifest.txt") &&
      !slurp(dir1 + "/manifest.txt").empty();
  bool digests_identical = true;
  for (int r = 0; r < runs; ++r) {
    const std::string file = capture::trace_filename(1'000 + static_cast<std::uint64_t>(r));
    digests_identical &= capture::digest_file(dir1 + "/" + file) ==
                         capture::digest_file(dir4 + "/" + file);
  }

  // Phase 2: offline demux + replay of every connection of the first trace.
  int replay_failures = 0;
  const capture::TraceFile trace =
      capture::TraceFile::open(dir1 + "/" + capture::trace_filename(1'000));
  for (const capture::ReplayResult& r : capture::replay_fleet(trace)) {
    if (!r.records_match || !r.summary_matches) ++replay_failures;
  }

  const double hit_rate = serial.empty() ? 0.0 : serial.front().cache_hit_rate();
  const double clients_per_s =
      parallel_wall > 0 ? static_cast<double>(kClients * runs) / parallel_wall : 0.0;
  const double speedup = parallel_wall > 0 ? serial_wall / parallel_wall : 0.0;

  std::printf("fleet: %d clients x %d runs, cache %zu MiB, hit rate %.2f%%\n",
              kClients, runs, kCacheMb, hit_rate * 100.0);
  std::printf("jobs 1 vs 4: manifests %s, digests %s (%.2fx parallel speedup)\n",
              manifests_identical ? "byte-identical" : "DIFFER",
              digests_identical ? "identical" : "DIFFER", speedup);
  std::printf("fleet replay: %d connection failures (must be 0)\n", replay_failures);

  bench::emit_bench_json(
      "fleet",
      {{"fleet_clients_per_s", clients_per_s},
       {"fleet_parallel_speedup", speedup},
       {"cache_hit_rate", hit_rate},
       {"manifest_jobs_invariant", manifests_identical ? 1.0 : 0.0},
       {"replay_failures", static_cast<double>(replay_failures)}});
  std::filesystem::remove_all(root);
  // The hard gate: any jobs-variance or replay divergence fails the bench.
  return manifests_identical && digests_identical && replay_failures == 0 ? 0 : 1;
}
