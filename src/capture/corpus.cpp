#include "h2priv/capture/corpus.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "h2priv/capture/trace_format.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/util/mapped_file.hpp"

namespace h2priv::capture {

std::string trace_filename(std::uint64_t seed) {
  return "run_" + std::to_string(seed) + ".h2t";
}

std::uint64_t digest_file(const std::string& path) {
  // Mapped, so digesting a trace does not cost its file size in memory (the
  // kernel pages it in), and the same fold as TraceFile::digest().
  util::MappedFile file;
  try {
    file = util::MappedFile::open(path);
  } catch (const std::runtime_error& e) {
    throw TraceError(std::string("cannot open for digest: ") + e.what());
  }
  return fnv1a_update(kFnv1aInit, file.view());
}

ManifestEntry manifest_entry(const std::string& dir, const std::string& file,
                             std::uint64_t seed) {
  const TraceFile trace = TraceFile::open(dir + "/" + file);
  std::uint64_t packets = 0, records = 0;
  for (const SectionInfo& s : trace.sections()) {
    if (s.id == Section::kPackets) packets += s.count;
    if (s.id == Section::kRecordsC2S || s.id == Section::kRecordsS2C) {
      records += s.count;
    }
  }
  ManifestEntry entry;
  entry.file = file;
  entry.seed = seed;
  entry.packets = packets;
  entry.digest = trace.digest();
  entry.raw_bytes = packets * kRawPacketBytes + records * kRawRecordBytes;
  entry.stored_bytes = trace.file_size();
  return entry;
}

void write_manifest(const Manifest& m, const std::string& path) {
  std::vector<ManifestEntry> entries = m.entries;
  std::sort(entries.begin(), entries.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.seed < b.seed;
            });
  // Header totals are derived from the entries at write time — never carried
  // state — so the compression ratio a reader quotes (raw_bytes over
  // stored_bytes) is always consistent with the run lines below it.
  std::uint64_t total_raw = 0, total_stored = 0;
  for (const ManifestEntry& e : entries) {
    total_raw += e.raw_bytes;
    total_stored += e.stored_bytes;
  }
  std::ostringstream os;
  os << "h2t-manifest v1\n";
  os << "scenario " << m.scenario << "\n";
  os << "base_seed " << m.base_seed << "\n";
  os << "raw_bytes " << total_raw << "\n";
  os << "stored_bytes " << total_stored << "\n";
  os << "runs " << entries.size() << "\n";
  for (const ManifestEntry& e : entries) {
    os << "run " << e.file << ' ' << e.seed << ' ' << e.packets << ' ' << std::hex
       << std::setw(16) << std::setfill('0') << e.digest << std::dec
       << std::setfill(' ') << ' ' << e.raw_bytes << ' ' << e.stored_bytes << "\n";
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("cannot open manifest for writing: " + path);
  out << os.str();
  out.flush();
  if (!out) throw TraceError("manifest write failed: " + path);
}

Manifest read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TraceError("cannot open manifest: " + path);
  std::string line;
  if (!std::getline(in, line) || line != "h2t-manifest v1") {
    throw TraceError("not an h2t manifest: " + path);
  }
  Manifest m;
  std::uint64_t declared_runs = 0;
  std::uint64_t declared_raw = 0, declared_stored = 0;
  bool have_totals = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "scenario") {
      ls >> m.scenario;
    } else if (key == "base_seed") {
      ls >> m.base_seed;
    } else if (key == "raw_bytes") {
      ls >> declared_raw;
      have_totals = true;
    } else if (key == "stored_bytes") {
      ls >> declared_stored;
      have_totals = true;
    } else if (key == "runs") {
      ls >> declared_runs;
    } else if (key == "run") {
      ManifestEntry e;
      ls >> e.file >> e.seed >> e.packets >> std::hex >> e.digest >> std::dec;
      if (ls.fail()) throw TraceError("malformed manifest entry: " + line);
      // Pre-v2 manifests stop after the digest; both byte counts default 0.
      ls >> e.raw_bytes >> e.stored_bytes;
      m.entries.push_back(e);
    } else {
      throw TraceError("unknown manifest key: " + key);
    }
  }
  if (m.entries.size() != declared_runs) {
    throw TraceError("manifest run count mismatch (declared " +
                     std::to_string(declared_runs) + ", found " +
                     std::to_string(m.entries.size()) + ")");
  }
  if (have_totals) {
    std::uint64_t total_raw = 0, total_stored = 0;
    for (const ManifestEntry& e : m.entries) {
      total_raw += e.raw_bytes;
      total_stored += e.stored_bytes;
    }
    if (total_raw != declared_raw || total_stored != declared_stored) {
      throw TraceError("manifest byte totals disagree with run lines: " + path);
    }
  }
  return m;
}

}  // namespace h2priv::capture
