#include "h2priv/capture/record.hpp"

#include <filesystem>
#include <stdexcept>

#include "h2priv/capture/trace_writer.hpp"

namespace h2priv::capture {

TraceMeta capture_meta(const core::RunConfig& config) {
  TraceMeta meta;
  meta.seed = config.seed;
  meta.scenario = config.capture.scenario;
  meta.attack_enabled = config.attack_enabled;
  meta.pad_sensitive_objects = config.pad_sensitive_objects;
  meta.push_emblems = config.push_emblems;
  if (config.manual_spacing) meta.manual_spacing_ns = config.manual_spacing->ns;
  if (config.manual_bandwidth) {
    meta.manual_bandwidth_bps = config.manual_bandwidth->bits_per_sec;
  }
  meta.deadline_ns = config.deadline.ns;
  meta.defense = config.server.defense;
  return meta;
}

std::string capture_path(const core::RunConfig& config) {
  if (!config.capture.path.empty()) return config.capture.path;
  std::filesystem::create_directories(config.capture.corpus_dir);
  return config.capture.corpus_dir + "/" + trace_filename(config.seed);
}

TraceSummary summary_of(const core::RunResult& result) {
  const auto verdict_of = [](const core::ObjectOutcome& o) {
    ObjectVerdict v;
    v.label = o.label;
    v.true_size = o.true_size;
    v.has_dom = o.primary_dom.has_value();
    if (o.primary_dom) v.primary_dom = *o.primary_dom;
    v.serialized_primary = o.serialized_primary;
    v.any_serialized_copy = o.any_serialized_copy;
    v.identified = o.identified;
    v.attack_success = o.attack_success;
    return v;
  };
  TraceSummary summary;
  summary.monitor_packets = result.monitor_packets;
  summary.monitor_gets = result.monitor_gets;
  summary.html = verdict_of(result.html);
  for (std::size_t pos = 0; pos < summary.emblems_by_position.size(); ++pos) {
    summary.emblems_by_position[pos] = verdict_of(result.emblems_by_position[pos]);
  }
  summary.predicted_sequence = result.predicted_sequence;
  summary.sequence_positions_correct = result.sequence_positions_correct;
  return summary;
}

core::RunResult record_run(const core::RunConfig& config) {
  if (!config.capture.enabled()) {
    throw std::invalid_argument(
        "record_run: capture.path or capture.corpus_dir required");
  }
  core::RunObservations local;
  core::RunConfig run = config;
  run.capture = core::CaptureOptions{};
  if (run.observations_out == nullptr) run.observations_out = &local;
  core::RunResult result = core::run_once(run);

  const core::RunObservations& obs = *run.observations_out;
  TraceMeta meta = capture_meta(config);
  meta.party_order = result.true_party_order;
  meta.attack_horizon_ns = obs.attack_horizon_ns;
  TraceWriter writer(capture_path(config), std::move(meta));
  for (const analysis::PacketObservation& p : obs.packets) writer.add_packet(p);
  for (const analysis::RecordObservation& r : obs.records_c2s) writer.add_record(r);
  for (const analysis::RecordObservation& r : obs.records_s2c) writer.add_record(r);
  writer.set_ground_truth(*result.truth);
  writer.set_summary(summary_of(result));
  writer.finish();
  return result;
}

RecordedCorpus record_corpus(const core::RunConfig& config, int n,
                             core::Parallelism parallelism) {
  const std::string& dir = config.capture.corpus_dir;
  if (dir.empty()) {
    throw std::invalid_argument("record_corpus: capture.corpus_dir required");
  }
  RecordedCorpus corpus;
  corpus.results.resize(static_cast<std::size_t>(n < 0 ? 0 : n));
  core::parallel_for(n, parallelism, [&](int i) {
    core::RunConfig cfg = config;  // each worker run owns its config copy
    cfg.seed = config.seed + static_cast<std::uint64_t>(i);
    corpus.results[static_cast<std::size_t>(i)] = record_run(cfg);
  });

  corpus.manifest.scenario = config.capture.scenario;
  corpus.manifest.base_seed = config.seed;
  for (std::size_t i = 0; i < corpus.results.size(); ++i) {
    const std::uint64_t seed = config.seed + i;
    corpus.manifest.entries.push_back(manifest_entry(dir, trace_filename(seed), seed));
  }
  std::filesystem::create_directories(dir);  // exists already unless n <= 0
  write_manifest(corpus.manifest, dir + "/manifest.txt");
  return corpus;
}

}  // namespace h2priv::capture
