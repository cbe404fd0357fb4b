// Sharded corpus store: 10^5-trace corpora split across per-scenario shard
// subdirectories so no single directory (or manifest) grows unboundedly and
// shards can be generated, rsynced or deleted independently.
//
// Layout under one corpus root:
//
//   <root>/shard_000/run_<seed>.h2t     traces, shard_capacity per shard
//   <root>/shard_000/manifest.txt       per-shard manifest (flat file names)
//   <root>/shard_001/...
//   <root>/manifest.txt                 merged manifest, shard-relative paths
//
// The merged manifest is the corpus's regression surface, exactly like the
// flat corpus one: entries sorted by seed, every field a pure function of
// trace bytes and run parameters — so two generations of the same build are
// byte-identical at any --jobs count and `cmp` stays a sufficient CI check.
// A flat corpus (capture::record_corpus's layout) is just the degenerate
// single-shard case; load_corpus() reads both.
#pragma once

#include <cstdint>
#include <string>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"

namespace h2priv::corpus {

/// Canonical shard subdirectory name ("shard_000", "shard_001", ...). Three
/// digits keep lexicographic and numeric order aligned through 10^5+ traces
/// at the default capacity; larger indices widen naturally.
[[nodiscard]] std::string shard_name(int index);

struct ShardOptions {
  /// Traces per shard subdirectory.
  int shard_capacity = 1'000;
};

/// Generates `n` seeded runs {config.seed .. config.seed+n-1} as a sharded
/// corpus under `config.capture.corpus_dir`: shard i holds the next
/// `shard_capacity` seeds, produced by capture::record_corpus (which writes
/// the shard's traces and its own manifest). `<root>/manifest.txt` lists
/// every shard's entries in shard order, so in seed order, with
/// root-relative file paths. Returns that manifest. Bit-identical output for
/// any `parallelism`: each shard manifest is sorted by seed.
capture::Manifest generate_sharded(const core::RunConfig& config, int n,
                                   const ShardOptions& options,
                                   core::Parallelism parallelism);

/// A corpus located on disk: its root directory plus the parsed manifest
/// (merged manifest for sharded corpora, the flat manifest otherwise —
/// entry file paths are root-relative in both layouts).
struct Corpus {
  std::string dir;
  capture::Manifest manifest;
};

/// Opens the corpus rooted at `dir` by parsing `<dir>/manifest.txt`.
/// Throws capture::TraceError if absent or malformed.
[[nodiscard]] Corpus load_corpus(const std::string& dir);

/// Absolute-ish path of one manifest entry's trace file.
[[nodiscard]] std::string trace_path(const Corpus& corpus,
                                     const capture::ManifestEntry& entry);

struct RecompressStats {
  std::uint64_t traces = 0;        ///< manifest entries visited
  std::uint64_t upgraded = 0;      ///< v1 files rewritten as v2
  std::uint64_t bytes_before = 0;  ///< on-disk trace bytes entering
  std::uint64_t bytes_after = 0;   ///< on-disk trace bytes leaving
};

/// Upgrades every v1 trace of the corpus at `dir` to the v2 compressed
/// format in place: each v1 file is decoded, re-encoded through TraceWriter
/// (write-to-temp + rename, so a crash never leaves a half-written trace),
/// and the manifest — root and any shard manifests — is rewritten with the
/// new digests and byte counts. The v2 writer is deterministic, so the
/// upgraded bytes are identical to what a live v2 capture of the same seed
/// would have produced, and re-running recompress is a no-op (v2 files are
/// left untouched). Traces fan out across `parallelism` workers; the
/// manifest rewrite is serial and sorted, so output is jobs-invariant.
RecompressStats recompress_corpus(const std::string& dir,
                                  core::Parallelism parallelism = {});

}  // namespace h2priv::corpus
