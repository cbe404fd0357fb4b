// Sharded corpus store: shard layout on disk, per-shard manifests, and the
// deterministic merged manifest — byte-identical at any --jobs count, with
// fold_manifests covering disjoint seeds, colliding duplicates and digest
// conflicts.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/record.hpp"
#include "h2priv/capture/trace_format.hpp"
#include "h2priv/corpus/store.hpp"
#include "scratch_path.hpp"

namespace h2priv::corpus {
namespace {

namespace fs = std::filesystem;

fs::path temp_dir(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return testing::scratch_path(std::string("corpus_store_") + info->name() + "_" + name);
}

core::RunConfig small_run(const fs::path& dir) {
  core::RunConfig cfg;
  cfg.attack_enabled = true;
  cfg.seed = 1000;
  cfg.capture.scenario = "table2";
  cfg.capture.corpus_dir = dir.string();
  return cfg;
}

util::Bytes file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  return util::Bytes{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

capture::Manifest shard(const std::string& scenario, std::uint64_t base,
                        std::vector<capture::ManifestEntry> entries) {
  capture::Manifest m;
  m.scenario = scenario;
  m.base_seed = base;
  m.entries = std::move(entries);
  return m;
}

TEST(CorpusStore, ShardNamesAreFixedWidthAndOrdered) {
  EXPECT_EQ(shard_name(0), "shard_000");
  EXPECT_EQ(shard_name(7), "shard_007");
  EXPECT_EQ(shard_name(42), "shard_042");
  EXPECT_EQ(shard_name(1234), "shard_1234");
}

TEST(CorpusStore, GenerateShardedLayoutAndMergedManifest) {
  const fs::path root = temp_dir("gen");
  fs::remove_all(root);
  const int runs = 5;
  const capture::Manifest merged = generate_sharded(
      small_run(root), runs, ShardOptions{2}, core::Parallelism{1});

  // 5 runs at capacity 2 -> shards of 2, 2, 1, each with its own manifest.
  ASSERT_EQ(merged.entries.size(), 5u);
  EXPECT_EQ(merged.scenario, "table2");
  EXPECT_EQ(merged.base_seed, 1000u);
  EXPECT_TRUE(fs::exists(root / "shard_000" / "manifest.txt"));
  EXPECT_TRUE(fs::exists(root / "shard_001" / "manifest.txt"));
  EXPECT_TRUE(fs::exists(root / "shard_002" / "manifest.txt"));
  EXPECT_FALSE(fs::exists(root / "shard_003"));

  // Merged entries: sorted by seed, shard-relative paths, digests that match
  // the bytes on disk.
  const Corpus corpus = load_corpus(root.string());
  EXPECT_EQ(corpus.manifest, merged);
  for (std::size_t i = 0; i < merged.entries.size(); ++i) {
    const capture::ManifestEntry& e = merged.entries[i];
    EXPECT_EQ(e.seed, 1000u + i);
    EXPECT_EQ(e.file, shard_name(static_cast<int>(i / 2)) + "/" +
                          capture::trace_filename(e.seed));
    EXPECT_EQ(capture::digest_file(trace_path(corpus, e)), e.digest) << e.file;
  }
  fs::remove_all(root);
}

TEST(CorpusStore, ShardedGenerationByteIdenticalAcrossJobs) {
  const fs::path base = temp_dir("jobs");
  fs::remove_all(base);
  for (const int jobs : {1, 4}) {
    const fs::path root = base / ("j" + std::to_string(jobs));
    (void)generate_sharded(small_run(root), 4, ShardOptions{3},
                           core::Parallelism{jobs});
  }
  const fs::path j1 = base / "j1", j4 = base / "j4";
  EXPECT_EQ(file_bytes(j1 / "manifest.txt"), file_bytes(j4 / "manifest.txt"));
  const Corpus corpus = load_corpus(j1.string());
  ASSERT_EQ(corpus.manifest.entries.size(), 4u);
  for (const capture::ManifestEntry& e : corpus.manifest.entries) {
    EXPECT_EQ(file_bytes(j1 / e.file), file_bytes(j4 / e.file)) << e.file;
  }
  fs::remove_all(base);
}

TEST(CorpusStore, FoldDisjointSeedsSortsAcrossShards) {
  const capture::Manifest merged = fold_manifests(
      {shard("s", 20, {{"run_21.h2t", 21, 10, 0xa1}, {"run_20.h2t", 20, 11, 0xa0}}),
       shard("s", 10, {{"run_10.h2t", 10, 12, 0xb0}})},
      {"shard_000", "shard_001"});
  EXPECT_EQ(merged.scenario, "s");
  EXPECT_EQ(merged.base_seed, 10u);
  ASSERT_EQ(merged.entries.size(), 3u);
  EXPECT_EQ(merged.entries[0].file, "shard_001/run_10.h2t");
  EXPECT_EQ(merged.entries[1].file, "shard_000/run_20.h2t");
  EXPECT_EQ(merged.entries[2].file, "shard_000/run_21.h2t");
}

TEST(CorpusStore, FoldCollidingSeedsDedupeOrThrow) {
  // Identical seed+packets+digest in two shards: one entry survives, with
  // the lexicographically smallest path, whatever the shard order.
  const capture::ManifestEntry dup{"run_5.h2t", 5, 33, 0xdd};
  for (const bool swap : {false, true}) {
    std::vector<capture::Manifest> shards = {shard("s", 5, {dup}),
                                             shard("s", 5, {dup})};
    std::vector<std::string> prefixes = {"shard_001", "shard_000"};
    if (swap) std::swap(prefixes[0], prefixes[1]);
    const capture::Manifest merged = fold_manifests(shards, prefixes);
    ASSERT_EQ(merged.entries.size(), 1u);
    EXPECT_EQ(merged.entries[0].file, "shard_000/run_5.h2t");
  }

  // Same seed, different digest: corruption, not redundancy.
  EXPECT_THROW(fold_manifests({shard("s", 5, {{"run_5.h2t", 5, 33, 0xdd}}),
                               shard("s", 5, {{"run_5.h2t", 5, 33, 0xee}})},
                              {"a", "b"}),
               capture::TraceError);
  // Same seed, different packet count: likewise.
  EXPECT_THROW(fold_manifests({shard("s", 5, {{"run_5.h2t", 5, 33, 0xdd}}),
                               shard("s", 5, {{"run_5.h2t", 5, 44, 0xdd}})},
                              {"a", "b"}),
               capture::TraceError);
  // Scenario mismatch across shards.
  EXPECT_THROW(fold_manifests({shard("s1", 1, {}), shard("s2", 2, {})}, {"a", "b"}),
               capture::TraceError);
  // One prefix per shard.
  EXPECT_THROW(fold_manifests({shard("s", 1, {})}, {}), capture::TraceError);
}

TEST(CorpusStore, LoadCorpusReadsFlatLayoutToo) {
  const fs::path root = temp_dir("flat");
  fs::remove_all(root);
  core::RunConfig cfg = small_run(root);
  (void)capture::record_corpus(cfg, 2, core::Parallelism{1});
  const Corpus corpus = load_corpus(root.string());
  ASSERT_EQ(corpus.manifest.entries.size(), 2u);
  for (const capture::ManifestEntry& e : corpus.manifest.entries) {
    EXPECT_EQ(capture::digest_file(trace_path(corpus, e)), e.digest) << e.file;
  }
  EXPECT_THROW(load_corpus((root / "nope").string()), capture::TraceError);
  fs::remove_all(root);
}

}  // namespace
}  // namespace h2priv::corpus
