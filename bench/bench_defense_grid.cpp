// Attack x defense grid throughput plus its determinism contract. One grid
// run regenerates a corpus per defense row and scores every attack column
// (see src/defense/grid.cpp); this bench times the canonical 3x3 sweep —
// none / pad-bucket / quantize+shape against catalog / knn / centroid —
// then re-runs it at a different job count and hard-fails unless the two
// reports are byte-identical and the grid gate invariants hold (padded
// rows show overhead, no defended cell beats the undefended baseline).
//
//   $ ./bench_defense_grid [runs] [--jobs N]
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "h2priv/defense/grid.hpp"

using namespace h2priv;

namespace {

double row_metric(const defense::GridReport& report, const std::string& name,
                  double defense::DefenseRow::* field) {
  for (const defense::DefenseRow& row : report.rows) {
    if (row.defense == name) return row.*field;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = bench::runs_from_argv(argc, argv, 12);
  bench::print_header("bench_defense_grid", "defense arena (DESIGN.md §11)",
                      "attack x defense grid sweep: generate + score per cell", runs);

  defense::GridOptions options;
  options.root =
      (std::filesystem::temp_directory_path() / "bench_defense_grid").string();
  options.runs = runs;
  options.defenses = {"none", "pad-bucket", "quantize+shape"};
  options.parallelism = bench::Harness::instance().jobs;
  std::filesystem::remove_all(options.root);

  // Phase 1: the timed sweep at the harness job count.
  const double g0 = bench::now_s();
  const defense::GridReport report = defense::run_grid(options);
  const double grid_wall = bench::now_s() - g0;
  const std::string report_text = defense::format_grid_report(report);
  std::fputs(report_text.c_str(), stdout);
  const double cells = static_cast<double>(report.rows.size()) *
                       static_cast<double>(report.attacks.size());
  const double traces_generated =
      static_cast<double>(report.rows.size()) * static_cast<double>(runs);
  const double cells_per_s = grid_wall > 0 ? cells / grid_wall : 0.0;
  std::printf("grid: %.0f cells over %.0f traces in %.2fs (%.2f cells/s)\n", cells,
              traces_generated, grid_wall, cells_per_s);

  // Phase 2: the determinism contract — a different worker count must
  // reproduce the report byte-for-byte, and the gate invariants must hold.
  defense::GridOptions alt = options;
  alt.parallelism =
      core::Parallelism{options.parallelism.jobs == 1 ? 4 : 1};
  const bool jobs_invariant =
      defense::format_grid_report(defense::run_grid(alt)) == report_text;
  const std::vector<std::string> violations = defense::check_grid_invariants(report);
  for (const std::string& v : violations) std::printf("gate violation: %s\n", v.c_str());
  std::printf("report across job counts: %s; gate violations: %zu (must be 0)\n",
              jobs_invariant ? "byte-identical" : "DIFFER", violations.size());

  // run_grid drives core::run_many directly rather than run_batch; stamp the
  // trace count so collect_bench compare treats the counters as gated.
  bench::Harness::instance().total_runs = static_cast<int>(traces_generated) * 2;
  bench::Harness::instance().batch_wall_s = grid_wall;
  bench::emit_bench_json(
      "defense_grid",
      {{"cells_per_s", cells_per_s},
       {"grid_wall_s", grid_wall},
       {"recovery_none", row_metric(report, "none", &defense::DefenseRow::mean_recovery)},
       {"recovery_pad_bucket",
        row_metric(report, "pad-bucket", &defense::DefenseRow::mean_recovery)},
       {"recovery_quantize_shape",
        row_metric(report, "quantize+shape", &defense::DefenseRow::mean_recovery)},
       {"overhead_pct_pad_bucket",
        row_metric(report, "pad-bucket", &defense::DefenseRow::overhead_pct)},
       {"overhead_pct_quantize_shape",
        row_metric(report, "quantize+shape", &defense::DefenseRow::overhead_pct)},
       {"report_jobs_invariant", jobs_invariant ? 1.0 : 0.0},
       {"gate_violations", static_cast<double>(violations.size())}});
  std::filesystem::remove_all(options.root);
  return jobs_invariant && violations.empty() ? 0 : 1;
}
