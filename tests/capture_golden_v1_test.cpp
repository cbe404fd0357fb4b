// v1 read-compat gate: the frozen v1 traces under tests/data/corpus_v1 were
// written by the last pre-compression build and are never regenerated. They
// must stay readable forever — same digests, same replay verdicts, same
// score report (modulo file sizes) — and `recompress` must upgrade them to
// bytes identical to what a live v2 capture of the same seed produces.
//
// If any of these fail, v1 decoding broke. Do NOT regenerate corpus_v1;
// fix the reader.
//
// H2PRIV_TEST_DATA_DIR is injected by tests/CMakeLists.txt.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/record.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/corpus/score.hpp"
#include "h2priv/corpus/store.hpp"
#include "scratch_path.hpp"

namespace h2priv {
namespace {

const std::string kV1Dir = std::string(H2PRIV_TEST_DATA_DIR) + "/corpus_v1";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(GoldenV1, FrozenTracesStillMatchTheirDigests) {
  const capture::Manifest manifest =
      capture::read_manifest(kV1Dir + "/manifest.txt");
  ASSERT_GE(manifest.entries.size(), 2u);
  for (const capture::ManifestEntry& e : manifest.entries) {
    const std::string path = kV1Dir + "/" + e.file;
    EXPECT_EQ(capture::TraceFile::open(path).version(), 1u) << e.file;
    EXPECT_EQ(capture::digest_file(path), e.digest)
        << e.file << ": frozen v1 trace no longer matches its digest";
  }
}

TEST(GoldenV1, FrozenTracesReplayToTheirStoredVerdicts) {
  const capture::Manifest manifest =
      capture::read_manifest(kV1Dir + "/manifest.txt");
  for (const capture::ManifestEntry& e : manifest.entries) {
    const capture::TraceFile trace = capture::TraceFile::open(kV1Dir + "/" + e.file);
    EXPECT_EQ(trace.packet_count(), e.packets) << e.file;
    const capture::ReplayResult r = capture::replay(trace);
    EXPECT_TRUE(r.records_match) << e.file << ": v1 record scan diverged";
    EXPECT_TRUE(r.summary_matches) << e.file << ": v1 offline verdict diverged";
  }
}

TEST(GoldenV1, ScoreReportIsByteIdenticalToTheCommittedOne) {
  const corpus::Corpus corpus = corpus::load_corpus(kV1Dir);
  const corpus::ScoreReport report =
      corpus::score_corpus(corpus, corpus::ScoreOptions{});
  EXPECT_EQ(corpus::format_report(report), slurp(kV1Dir + "/expected_score.txt"))
      << "scoring the frozen v1 corpus no longer reproduces the committed "
         "report";
}

TEST(GoldenV1, RecompressProducesTheLiveV2Bytes) {
  namespace fs = std::filesystem;
  const fs::path work = testing::scratch_path("recompress_v1");
  fs::remove_all(work);
  fs::copy(kV1Dir, work, fs::copy_options::recursive);

  const corpus::RecompressStats stats =
      corpus::recompress_corpus(work.string(), core::Parallelism{2});
  EXPECT_EQ(stats.traces, 2u);
  EXPECT_EQ(stats.upgraded, 2u);
  EXPECT_LT(stats.bytes_after, stats.bytes_before);

  const capture::Manifest manifest =
      capture::read_manifest((work / "manifest.txt").string());
  for (const capture::ManifestEntry& e : manifest.entries) {
    const std::string upgraded = (work / e.file).string();
    EXPECT_EQ(capture::TraceFile::open(upgraded).version(),
              capture::kFormatVersion);
    EXPECT_EQ(capture::digest_file(upgraded), e.digest) << e.file;

    // The decisive property: the upgraded bytes equal a live v2 capture of
    // the same seed, so recompressed and freshly generated corpora are
    // interchangeable byte-for-byte.
    const std::string fresh = testing::scratch_path("fresh_" + e.file).string();
    core::RunConfig cfg;
    cfg.attack_enabled = true;
    cfg.seed = e.seed;
    cfg.capture.path = fresh;
    cfg.capture.scenario = manifest.scenario;
    (void)capture::record_run(cfg);
    EXPECT_EQ(slurp(upgraded), slurp(fresh))
        << e.file << ": recompress diverged from a live v2 capture";
    fs::remove(fresh);
  }

  // Idempotence: a second pass finds nothing to upgrade and changes nothing.
  const corpus::RecompressStats again =
      corpus::recompress_corpus(work.string(), core::Parallelism{});
  EXPECT_EQ(again.upgraded, 0u);
  EXPECT_EQ(again.bytes_after, stats.bytes_after);
  fs::remove_all(work);
}

TEST(GoldenV1, CountsPastTheStoredRowsAreTraceErrors) {
  // v1 rows read through the same column loops as v2, one raw reader standing
  // in for every column. A trailer count one past the stored rows still
  // passes the open-time length check, so the loop itself must run off the
  // payload's end into a TraceError.
  const std::string bytes = slurp(kV1Dir + "/run_1000.h2t");
  const util::Bytes golden(bytes.begin(), bytes.end());
  const std::vector<capture::SectionInfo> sections =
      capture::validate_and_index(util::BytesView{golden.data(), golden.size()});
  std::uint64_t table = 0;  // trailer table offset, the u64 before the end magic
  for (std::size_t k = golden.size() - 16; k < golden.size() - 8; ++k) {
    table = (table << 8) | golden[k];
  }
  const auto raised = [&](capture::Section id) {
    util::Bytes image = golden;
    for (std::size_t i = 0; i < sections.size(); ++i) {
      if (sections[i].id != id) continue;
      const std::uint64_t count = sections[i].count + 1;
      const auto at =
          static_cast<std::size_t>(table) + i * capture::kSectionEntryBytes + 20;
      for (std::size_t b = 0; b < 8; ++b) {
        image[at + b] = static_cast<std::uint8_t>(count >> (56 - 8 * b));
      }
    }
    return capture::TraceFile{image};
  };
  for (const auto dir :
       {net::Direction::kClientToServer, net::Direction::kServerToClient}) {
    const capture::Section id = dir == net::Direction::kClientToServer
                                    ? capture::Section::kRecordsC2S
                                    : capture::Section::kRecordsS2C;
    const capture::TraceFile trace = raised(id);
    EXPECT_EQ(trace.version(), 1u);
    EXPECT_THROW((void)trace.records(dir), capture::TraceError);
  }
  const capture::TraceFile trace = raised(capture::Section::kPackets);
  capture::PacketCursor cursor = trace.packets();
  analysis::PacketObservation p;
  EXPECT_THROW(
      {
        while (cursor.next(p)) {
        }
      },
      capture::TraceError);
}

}  // namespace
}  // namespace h2priv
