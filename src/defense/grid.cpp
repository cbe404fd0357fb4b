#include "h2priv/defense/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "h2priv/capture/record.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/obs/metrics.hpp"

namespace h2priv::defense {

namespace {

/// Fixed-precision decimal rendering: every double in the report derives
/// from integer folds, so this is byte-stable across runs and job counts.
std::string fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

[[nodiscard]] double ratio(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// The adversary's size catalog, as raw sizes (results HTML + emblems).
/// Routed through core: defense has no layering edge to web/ and the grid
/// must attack exactly the catalog the live predictor uses.
std::vector<std::size_t> catalog_sizes() {
  const analysis::SizeCatalog catalog = core::isidewith_catalog();
  std::vector<std::size_t> sizes;
  for (const analysis::SizeCatalog::Entry& e : catalog.entries()) {
    sizes.push_back(e.body_size);
  }
  return sizes;
}

/// Emblems in the catalog (= party count): every entry except the HTML.
std::uint64_t emblem_count() {
  const analysis::SizeCatalog catalog = core::isidewith_catalog();
  return static_cast<std::uint64_t>(catalog.entries().size()) - 1;
}

/// Mean relative distance (percent) of every post-horizon burst estimate to
/// its nearest catalog size — how badly the defense degraded the size
/// estimator. Serial fold in run order: deterministic.
double size_error_pct(const std::vector<core::RunResult>& results) {
  const std::vector<std::size_t> sizes = catalog_sizes();
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const core::RunResult& r : results) {
    for (const analysis::EstimatedObject& burst : r.debug_bursts) {
      double best = std::numeric_limits<double>::infinity();
      for (const std::size_t s : sizes) {
        const double err =
            std::abs(static_cast<double>(burst.body_estimate) - static_cast<double>(s)) /
            static_cast<double>(s);
        best = std::min(best, err);
      }
      sum += best;
      ++n;
    }
  }
  return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n);
}

/// Total wire bytes (both directions) over every trace of the corpus — the
/// bandwidth-overhead numerator. Serial over the manifest: deterministic.
std::uint64_t corpus_wire_bytes(const corpus::Corpus& c) {
  std::uint64_t total = 0;
  for (const capture::ManifestEntry& entry : c.manifest.entries) {
    const capture::TraceFile trace = capture::TraceFile::open(trace_path(c, entry));
    capture::PacketCursor cursor = trace.packets();
    analysis::PacketObservation p;
    while (cursor.next(p)) total += static_cast<std::uint64_t>(p.wire_size);
  }
  return total;
}

GridCell score_attack(const corpus::Corpus& c, const GridAttack& attack,
                      const GridOptions& options) {
  corpus::ScoreOptions so;
  so.parallelism = options.parallelism;
  so.classifier = attack.classifier;
  so.features = attack.features;
  so.knn_k = attack.knn_k;
  // kNone is the catalog attack: recovery is the stored pipeline's emblem
  // success rate, no train/eval split needed.
  so.train_mod = attack.classifier == corpus::Classifier::kNone ? 0 : options.train_mod;
  const corpus::ScoreReport report = corpus::score_corpus(c, so);

  GridCell cell;
  cell.attack = attack.name;
  if (attack.classifier == corpus::Classifier::kNone) {
    cell.successes = report.attack_successes;
    cell.total = static_cast<std::uint64_t>(report.traces.size()) * emblem_count();
  } else {
    cell.successes = report.eval_correct;
    cell.total = report.eval_count;
  }
  cell.recovery = ratio(cell.successes, cell.total);
  return cell;
}

}  // namespace

std::vector<GridAttack> default_grid_attacks() {
  return {
      {"catalog", corpus::Classifier::kNone, analysis::kFeatureBursts, 3},
      {"knn", corpus::Classifier::kKnn, analysis::kFeatureBursts, 3},
      {"centroid", corpus::Classifier::kCentroid, analysis::kFeatureRecordHist, 3},
  };
}

GridReport run_grid(const GridOptions& options) {
  if (options.root.empty()) throw std::invalid_argument("grid: empty root directory");
  if (options.runs <= 0) throw std::invalid_argument("grid: runs must be positive");
  const std::vector<std::string> defenses =
      options.defenses.empty() ? defense_preset_names() : options.defenses;
  const std::vector<GridAttack> attacks =
      options.attacks.empty() ? default_grid_attacks() : options.attacks;

  GridReport report;
  report.scenario = options.scenario;
  report.base_seed = options.base_seed;
  report.runs = options.runs;
  report.train_mod = options.train_mod;
  for (const GridAttack& a : attacks) report.attacks.push_back(a.name);

  for (const std::string& name : defenses) {
    const std::optional<DefenseConfig> config = defense_from_name(name);
    if (!config) throw std::invalid_argument("grid: unknown defense preset " + name);

    // Regenerate the row's corpus from scratch — a stale directory from a
    // different build or config must not leak into the scores.
    const std::string dir = options.root + "/" + name;
    std::filesystem::remove_all(dir);

    // The scenario registry supplies the run shape (the default "table2"
    // arms the attack pipeline); the defense preset layers on top.
    core::RunConfig rc = core::scenario_config(options.scenario);
    rc.seed = options.base_seed;
    rc.server.defense = *config;
    rc.capture.corpus_dir = dir;
    rc.capture.scenario = options.scenario + "+" + name;
    // Workers fold their counters into this thread's registry, so the delta
    // across record_corpus is the row's exact defense-injected byte count.
    obs::Registry& reg = obs::current();
    const std::uint64_t pad_before = reg.get(obs::Counter::kH2PadBytesSent) +
                                     reg.get(obs::Counter::kTlsPadBytesSealed);
    const std::vector<core::RunResult> results =
        capture::record_corpus(rc, options.runs, options.parallelism).results;
    const std::uint64_t pad_after = reg.get(obs::Counter::kH2PadBytesSent) +
                                    reg.get(obs::Counter::kTlsPadBytesSealed);

    DefenseRow row;
    row.defense = name;
    row.config = *config;
    row.traces = options.runs;
    std::uint64_t completed = 0;
    double load_sum = 0.0;
    for (const core::RunResult& r : results) {
      if (!r.page_complete) continue;
      ++completed;
      load_sum += r.page_load_seconds;
    }
    row.page_load_ms =
        completed == 0 ? 0.0 : 1000.0 * load_sum / static_cast<double>(completed);
    row.size_error_pct = size_error_pct(results);

    row.pad_bytes = pad_after - pad_before;

    const corpus::Corpus c = corpus::load_corpus(dir);
    row.wire_bytes = corpus_wire_bytes(c);
    if (row.wire_bytes > row.pad_bytes) {
      row.overhead_pct = 100.0 * static_cast<double>(row.pad_bytes) /
                         static_cast<double>(row.wire_bytes - row.pad_bytes);
    }
    for (const GridAttack& a : attacks) row.cells.push_back(score_attack(c, a, options));
    double recovery_sum = 0.0;
    for (const GridCell& cell : row.cells) recovery_sum += cell.recovery;
    row.mean_recovery =
        row.cells.empty() ? 0.0 : recovery_sum / static_cast<double>(row.cells.size());
    report.rows.push_back(std::move(row));
  }

  // Costs are relative to the undefended row, when the sweep includes one.
  const auto baseline =
      std::find_if(report.rows.begin(), report.rows.end(),
                   [](const DefenseRow& r) { return !r.config.enabled(); });
  if (baseline != report.rows.end()) {
    for (DefenseRow& row : report.rows) {
      row.added_latency_ms = row.page_load_ms - baseline->page_load_ms;
    }
  }
  return report;
}

std::string format_grid_report(const GridReport& report) {
  std::string out = "h2t-defense-grid v1\n";
  out += "scenario " + report.scenario + "\n";
  out += "base-seed " + std::to_string(report.base_seed) + " runs " +
         std::to_string(report.runs) + " train-mod " + std::to_string(report.train_mod) +
         "\n";
  out += "attacks";
  for (const std::string& a : report.attacks) out += " " + a;
  out += "\n";
  for (const DefenseRow& row : report.rows) {
    out += "defense " + row.defense;
    out += " traces " + std::to_string(row.traces);
    out += " wire-bytes " + std::to_string(row.wire_bytes);
    out += " pad-bytes " + std::to_string(row.pad_bytes);
    out += " overhead-pct " + fixed(row.overhead_pct, 2);
    out += " page-ms " + fixed(row.page_load_ms, 3);
    out += " added-ms " + fixed(row.added_latency_ms, 3);
    out += " size-err-pct " + fixed(row.size_error_pct, 2);
    for (const GridCell& cell : row.cells) {
      out += " " + cell.attack + " " + std::to_string(cell.successes) + "/" +
             std::to_string(cell.total) + " " + fixed(cell.recovery, 4);
    }
    out += " mean " + fixed(row.mean_recovery, 4);
    out += "\n";
  }
  out += "end\n";
  return out;
}

std::vector<std::string> check_grid_invariants(const GridReport& report) {
  std::vector<std::string> violations;
  const auto baseline =
      std::find_if(report.rows.begin(), report.rows.end(),
                   [](const DefenseRow& r) { return !r.config.enabled(); });
  if (baseline == report.rows.end()) {
    violations.push_back("no undefended baseline row in the grid");
    return violations;
  }
  for (const DefenseRow& row : report.rows) {
    if (&row == &*baseline) continue;
    const bool inflates = row.config.padding != PaddingPolicy::kNone ||
                          row.config.record_bucket > 0;
    if (inflates && row.pad_bytes == 0) {
      violations.push_back("defense " + row.defense +
                           " pads frames or records but reports no bandwidth overhead");
    }
    for (std::size_t i = 0; i < row.cells.size() && i < baseline->cells.size(); ++i) {
      if (row.cells[i].recovery > baseline->cells[i].recovery) {
        violations.push_back("defense " + row.defense + " raises " +
                             row.cells[i].attack + " recovery above the baseline (" +
                             fixed(row.cells[i].recovery, 4) + " > " +
                             fixed(baseline->cells[i].recovery, 4) + ")");
      }
    }
  }
  return violations;
}

}  // namespace h2priv::defense
