// Golden-corpus regression: the committed .h2t traces under
// tests/data/corpus must (a) still match their manifest digests, (b) replay
// to the exact stored verdicts through today's analysis stack, (c) be
// regenerable bit-for-bit by today's simulator, and (d) export to the same
// pcap image. Any mismatch means the wire format, the data path, or the
// scoring changed — either fix it or regenerate the corpus
// (tools/h2priv_trace generate --corpus) and commit the new files with an
// explanation.
//
// H2PRIV_TEST_DATA_DIR is injected by tests/CMakeLists.txt.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/pcap_export.hpp"
#include "h2priv/capture/record.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "scratch_path.hpp"

namespace h2priv {
namespace {

const std::string kCorpusDir = std::string(H2PRIV_TEST_DATA_DIR) + "/corpus";

TEST(GoldenCorpus, ManifestDigestsMatchCommittedFiles) {
  const capture::Manifest manifest =
      capture::read_manifest(kCorpusDir + "/manifest.txt");
  EXPECT_EQ(manifest.scenario, "table2");
  ASSERT_GE(manifest.entries.size(), 2u);
  for (const capture::ManifestEntry& e : manifest.entries) {
    EXPECT_EQ(capture::digest_file(kCorpusDir + "/" + e.file), e.digest)
        << e.file << ": committed trace no longer matches its manifest digest";
  }
}

TEST(GoldenCorpus, EveryTraceReplaysToItsStoredVerdict) {
  const capture::Manifest manifest =
      capture::read_manifest(kCorpusDir + "/manifest.txt");
  for (const capture::ManifestEntry& e : manifest.entries) {
    const capture::TraceFile trace =
        capture::TraceFile::open(kCorpusDir + "/" + e.file);
    EXPECT_EQ(trace.packet_count(), e.packets) << e.file;
    const capture::ReplayResult r = capture::replay(trace);
    EXPECT_TRUE(r.records_match) << e.file << ": record scan diverged";
    EXPECT_TRUE(r.summary_matches) << e.file << ": offline verdict diverged";
  }
}

TEST(GoldenCorpus, TodaysSimulatorRegeneratesTheCommittedBytes) {
  const capture::Manifest manifest =
      capture::read_manifest(kCorpusDir + "/manifest.txt");
  ASSERT_FALSE(manifest.entries.empty());
  const capture::ManifestEntry& e = manifest.entries.front();

  const std::string fresh = testing::scratch_path("golden_regen.h2t").string();
  core::RunConfig cfg;
  cfg.attack_enabled = true;
  cfg.seed = e.seed;
  cfg.capture.path = fresh;
  cfg.capture.scenario = manifest.scenario;
  (void)capture::record_run(cfg);

  EXPECT_EQ(capture::digest_file(fresh), e.digest)
      << "live capture of seed " << e.seed
      << " no longer reproduces the committed golden trace";
  std::remove(fresh.c_str());
}

// pcap export synthesizes each packet from the .h2t alone: headers from the
// observation, a payload of zeros (record bodies are never stored). The image
// of a committed trace is pinned, so no change to the live record layer can
// move it. Digest taken while record bodies were still keystream-scrambled.
TEST(GoldenCorpus, PcapExportOfACommittedTraceIsPinned) {
  const std::string pcap = testing::scratch_path("golden_export.pcap").string();
  const capture::TraceFile trace = capture::TraceFile::open(kCorpusDir + "/run_1000.h2t");
  EXPECT_EQ(capture::export_pcap(trace.packets(), pcap), 5692u);
  EXPECT_EQ(capture::digest_file(pcap), 0x5edc2d1ccf3976d4ull);
  std::remove(pcap.c_str());
}

}  // namespace
}  // namespace h2priv
