// Corpus-of-traces bookkeeping: one .h2t per Monte-Carlo instance plus a
// deterministic plain-text manifest.
//
// The manifest is the regression surface: entries are sorted by seed and
// every field is derived from file content (FNV-1a digest) or the run
// parameters, so two corpus generations of the same build — at any --jobs
// count — produce byte-identical manifests, and `cmp` is a sufficient CI
// check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "h2priv/util/bytes.hpp"

namespace h2priv::capture {

struct ManifestEntry {
  std::string file;  ///< filename relative to the corpus directory
  std::uint64_t seed = 0;
  std::uint64_t packets = 0;
  std::uint64_t digest = 0;  ///< FNV-1a 64 of the trace file image
  /// Fixed-width observation bytes the trace encodes (packets * 42 +
  /// records * 26 — the capture.raw_bytes definition); 0 in pre-v2
  /// manifests, which omitted the last two run-line fields.
  std::uint64_t raw_bytes = 0;
  std::uint64_t stored_bytes = 0;  ///< trace file size on disk; 0 pre-v2

  friend bool operator==(const ManifestEntry&, const ManifestEntry&) = default;
};

struct Manifest {
  std::string scenario;
  std::uint64_t base_seed = 0;
  std::vector<ManifestEntry> entries;  ///< sorted by seed on write

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Canonical per-run trace filename within a corpus directory.
[[nodiscard]] std::string trace_filename(std::uint64_t seed);

/// The manifest line of the trace at <dir>/<file> — the one way a
/// ManifestEntry is built from a trace file. Opens the trace once (mmap +
/// skeleton validation, no payload decode) and takes the digest, the packet
/// count and the raw/stored byte counts from it. Throws TraceError.
[[nodiscard]] ManifestEntry manifest_entry(const std::string& dir,
                                           const std::string& file, std::uint64_t seed);

/// FNV-1a 64 over a file's bytes. Throws TraceError on I/O failure.
[[nodiscard]] std::uint64_t digest_file(const std::string& path);

/// Writes `m` as `manifest.txt`-style text (entries sorted by seed).
void write_manifest(const Manifest& m, const std::string& path);

/// Parses a manifest written by write_manifest(). Throws TraceError on
/// malformed input.
[[nodiscard]] Manifest read_manifest(const std::string& path);

}  // namespace h2priv::capture
