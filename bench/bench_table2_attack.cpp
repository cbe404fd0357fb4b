// Table II — "Prediction Accuracy" of the full Section V attack.
//
// Reproduces both accuracy rows:
//   - "Target: one object at a time"  — the adversary only needs that object
//     serialized and identified somewhere in the post-reset trace;
//   - "Target: all objects at a time" — the full ranking: the object must be
//     serialized AND placed correctly in the recovered sequence.
// The IAT rows are the site model's request schedule (from the paper).
//
// Paper values (all-at-once): HTML 90, then 90/90/85/81/80/62/64/78/64.
#include "bench_common.hpp"

using namespace h2priv;

int main(int argc, char** argv) {
  const int runs = bench::runs_from_argv(argc, argv);
  bench::print_header("Table II", "Mitra et al., DSN'20, Section V",
                      "Prediction accuracy for the 9 objects of interest", runs);

  core::RunConfig cfg;
  cfg.attack_enabled = true;
  const bench::Batch batch = bench::run_batch(cfg, runs);

  // Request IATs from the plan model (paper Table II, ms).
  std::printf("%-34s | HTML ", "Object (O_curr)");
  for (int i = 1; i <= 8; ++i) std::printf("|  I%d  ", i);
  std::printf("\n%-34s | 500  ", "T(Req Ocurr)-T(Req Oprev) (ms)");
  std::printf("| 780  ");
  for (int i = 0; i < 7; ++i) {
    std::printf("| %-4.1f ", web::kEmblemIats[static_cast<std::size_t>(i)].millis());
  }
  std::printf("\n");

  // One object at a time: serialized copy + identified by size anywhere.
  std::printf("%-34s | %-4.0f ", "Success (%): one object at a time",
              batch.pct([](const core::RunResult& r) {
                return r.html.any_serialized_copy && r.html.identified;
              }));
  for (int pos = 0; pos < web::kPartyCount; ++pos) {
    const double pct = batch.pct([pos](const core::RunResult& r) {
      const auto& o = r.emblems_by_position[static_cast<std::size_t>(pos)];
      return o.any_serialized_copy && o.identified;
    });
    std::printf("| %-4.0f ", pct);
  }
  std::printf("\n");

  // All objects at a time: position in the recovered ranking must be right.
  std::printf("%-34s | %-4.0f ", "Success (%): all objects at a time",
              batch.pct([](const core::RunResult& r) { return r.html.attack_success; }));
  for (int pos = 0; pos < web::kPartyCount; ++pos) {
    const double pct = batch.pct([pos](const core::RunResult& r) {
      return r.emblems_by_position[static_cast<std::size_t>(pos)].attack_success;
    });
    std::printf("| %-4.0f ", pct);
  }
  std::printf("\n\n");

  std::printf("paper (one at a time):  100 across the board\n");
  std::printf("paper (all at a time):  90 | 90 | 85 | 81 | 80 | 62 | 64 | 78 | 64\n");
  std::printf("aggregate: %.1f%% of runs complete, %.1f%% broken, "
              "avg %.1f re-GETs, avg %.2f reset episodes, avg %.1f positions correct\n",
              batch.pct([](const core::RunResult& r) { return r.page_complete; }),
              batch.pct([](const core::RunResult& r) { return r.broken; }),
              batch.mean([](const core::RunResult& r) { return r.browser_rerequests; }),
              batch.mean([](const core::RunResult& r) { return r.reset_episodes; }),
              batch.mean(
                  [](const core::RunResult& r) { return r.sequence_positions_correct; }));
  bench::emit_bench_json(
      "table2_attack",
      {{"html_success_pct",
        batch.pct([](const core::RunResult& r) { return r.html.attack_success; })},
       {"mean_positions_correct",
        batch.mean(
            [](const core::RunResult& r) { return r.sequence_positions_correct; })},
       {"broken_pct", batch.pct([](const core::RunResult& r) { return r.broken; })}});
  return 0;
}
