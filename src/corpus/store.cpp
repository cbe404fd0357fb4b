#include "h2priv/corpus/store.hpp"

#include <algorithm>
#include <filesystem>
#include <map>

#include "h2priv/capture/record.hpp"
#include "h2priv/capture/trace_format.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/obs/metrics.hpp"

namespace h2priv::corpus {

std::string shard_name(int index) {
  std::string digits = std::to_string(index);
  while (digits.size() < 3) digits.insert(digits.begin(), '0');
  return "shard_" + digits;
}

capture::Manifest generate_sharded(const core::RunConfig& config, int n,
                                   const ShardOptions& options,
                                   core::Parallelism parallelism) {
  if (config.capture.corpus_dir.empty()) {
    throw capture::TraceError("generate_sharded requires capture.corpus_dir");
  }
  if (options.shard_capacity < 1) {
    throw capture::TraceError("shard_capacity must be >= 1");
  }
  const std::string root = config.capture.corpus_dir;
  // Shard s holds seeds [seed + s*capacity, ...) and record_corpus lists
  // them in seed order, so the root manifest is every shard's entries, in
  // shard order, under the shard's directory.
  capture::Manifest merged;
  merged.scenario = config.capture.scenario;
  merged.base_seed = config.seed;
  for (int shard = 0, done = 0; done < n; ++shard) {
    const int count = std::min(options.shard_capacity, n - done);
    core::RunConfig cfg = config;
    cfg.seed = config.seed + static_cast<std::uint64_t>(done);
    cfg.capture.corpus_dir = root + "/" + shard_name(shard);
    // record_corpus writes the shard's traces and its manifest.txt, parallel
    // across seeds within the shard, and returns that manifest.
    for (capture::ManifestEntry& entry :
         capture::record_corpus(cfg, count, parallelism).manifest.entries) {
      entry.file = shard_name(shard) + "/" + entry.file;
      merged.entries.push_back(std::move(entry));
    }
    obs::count(obs::Counter::kCorpusShardsWritten);
    done += count;
  }
  obs::count(obs::Counter::kCorpusManifestsMerged);
  capture::write_manifest(merged, root + "/manifest.txt");
  return merged;
}

Corpus load_corpus(const std::string& dir) {
  return Corpus{dir, capture::read_manifest(dir + "/manifest.txt")};
}

std::string trace_path(const Corpus& corpus, const capture::ManifestEntry& entry) {
  return corpus.dir + "/" + entry.file;
}

namespace {

/// Re-encodes one v1 trace through the v2 writer, write-to-temp + rename.
/// The writer is fed observations in the same per-direction order a live
/// capture produces, so the output is byte-identical to a native v2 trace
/// of the same run.
void rewrite_trace(const std::string& path) {
  const std::string tmp = path + ".recompress.tmp";
  {
    const capture::TraceFile trace = capture::TraceFile::open(path);
    capture::TraceWriter writer(tmp, trace.meta());
    analysis::PacketObservation p;
    for (capture::PacketCursor cursor = trace.packets(); cursor.next(p);) {
      writer.add_packet(p);
    }
    for (const net::Direction dir :
         {net::Direction::kClientToServer, net::Direction::kServerToClient}) {
      for (const analysis::RecordObservation& r : trace.records(dir)) {
        writer.add_record(r);
      }
    }
    if (trace.has_section(capture::Section::kGroundTruth)) {
      writer.set_ground_truth(trace.ground_truth());
    }
    if (trace.has_section(capture::Section::kSummary)) {
      writer.set_summary(trace.summary());
    }
    writer.finish();
  }  // unmap before the rename replaces the file
  std::filesystem::rename(tmp, path);
}

}  // namespace

RecompressStats recompress_corpus(const std::string& dir,
                                  core::Parallelism parallelism) {
  Corpus corpus = load_corpus(dir);
  const int n = static_cast<int>(corpus.manifest.entries.size());
  RecompressStats stats;
  stats.traces = static_cast<std::uint64_t>(n);

  // Phase A (parallel): each entry owns its file and its manifest slot, so
  // workers never contend; per-entry outcomes land at the manifest index.
  std::vector<std::uint8_t> upgraded(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> before(static_cast<std::size_t>(n), 0);
  core::parallel_for(n, parallelism, [&](int i) {
    const auto at = static_cast<std::size_t>(i);
    capture::ManifestEntry& entry = corpus.manifest.entries[at];
    const std::string path = trace_path(corpus, entry);
    std::uint16_t version = 0;
    {
      const capture::TraceFile trace = capture::TraceFile::open(path);
      before[at] = trace.file_size();
      version = trace.version();
    }
    if (version < capture::kFormatVersion) {
      rewrite_trace(path);
      upgraded[at] = 1;
    }
    entry = capture::manifest_entry(dir, entry.file, entry.seed);
  });
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    stats.upgraded += upgraded[i];
    stats.bytes_before += before[i];
    stats.bytes_after += corpus.manifest.entries[i].stored_bytes;
  }

  // Phase B (serial): rewrite the manifests with the new digests and byte
  // counts — any shard manifests first, then the root.
  std::map<std::string, std::vector<const capture::ManifestEntry*>> by_shard;
  for (const capture::ManifestEntry& entry : corpus.manifest.entries) {
    const std::size_t slash = entry.file.find('/');
    if (slash != std::string::npos) {
      by_shard[entry.file.substr(0, slash)].push_back(&entry);
    }
  }
  for (const auto& [shard, entries] : by_shard) {
    const std::string manifest_path = dir + "/" + shard + "/manifest.txt";
    capture::Manifest shard_manifest = capture::read_manifest(manifest_path);
    std::map<std::uint64_t, const capture::ManifestEntry*> by_seed;
    for (const capture::ManifestEntry* e : entries) by_seed.emplace(e->seed, e);
    for (capture::ManifestEntry& e : shard_manifest.entries) {
      const auto it = by_seed.find(e.seed);
      if (it == by_seed.end()) continue;
      e.digest = it->second->digest;
      e.raw_bytes = it->second->raw_bytes;
      e.stored_bytes = it->second->stored_bytes;
    }
    capture::write_manifest(shard_manifest, manifest_path);
  }
  capture::write_manifest(corpus.manifest, dir + "/manifest.txt");
  return stats;
}

}  // namespace h2priv::corpus
