// The .h2t writer's block layout and signed deltas. A trace whose packet
// columns span many 64 KiB blocks is pinned byte for byte, so the order in
// which full blocks and column tails land on disk cannot drift; the same
// input written on 1, 2 and 4 workers must give the same file and the same
// codec counters; and int64 extremes in the signed delta columns, from a
// writer caller or a hostile v1 trace being recompressed, round-trip through
// wrapping arithmetic.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/capture/varint.hpp"
#include "h2priv/corpus/store.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/tls/record.hpp"
#include "periodic_packets.hpp"
#include "scratch_path.hpp"
#include "trace_decode.hpp"

namespace h2priv::capture {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

util::Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return util::Bytes{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

analysis::RecordObservation record(std::int64_t t, net::Direction dir, std::size_t len,
                                   std::uint64_t offset) {
  analysis::RecordObservation r;
  r.time = util::TimePoint{t};
  r.dir = dir;
  r.type = tls::ContentType::kApplicationData;
  r.ciphertext_len = len;
  r.stream_offset = offset;
  return r;
}

/// periodic_packets(150'000) (23 coded packet blocks) plus a few records in
/// each direction, written on `jobs` workers.
void write_multi_block(const std::string& path, int jobs) {
  TraceMeta meta;
  meta.seed = 29;
  meta.scenario = "multi_block";
  TraceWriter writer(path, meta);
  for (const analysis::PacketObservation& p : testing::periodic_packets(150'000)) {
    writer.add_packet(p);
  }
  std::uint64_t offset = 0;
  for (int i = 0; i < 6; ++i) {
    const auto len = static_cast<std::size_t>(100 + 37 * i);
    writer.add_record(record(1'000 * i, i % 2 == 0 ? net::Direction::kClientToServer
                                                   : net::Direction::kServerToClient,
                             len, offset));
    offset += len + tls::kHeaderBytes;
  }
  writer.finish(util::Parallelism{jobs});
}

/// Every directory row of the trace in disk order: per compressed section its
/// id, then one stream digit per block, followed by 'c' (coded) or 's'
/// (stored).
std::string block_layout(const TraceFile& trace) {
  std::string out;
  for (const SectionInfo& s : trace.sections()) {
    if (!s.compressed) continue;
    out += std::to_string(static_cast<std::uint32_t>(s.id)) + ':';
    for (const BlockInfo& b : trace.section_blocks(s.id)->blocks) {
      out += std::to_string(b.stream);
      out += b.stored ? 's' : 'c';
    }
    out += ' ';
  }
  return out;
}

TEST(TraceWriterBlocks, MultiBlockImageIsPinned) {
  // Full packet blocks go to disk interleaved by the packet that filled
  // them, then each column's tail in column order; the records sections
  // follow. Both pinned values were computed by the writer that coded each
  // block as its column filled.
  const std::string path = testing::scratch_path("h2t_writer_pinned.h2t").string();
  write_multi_block(path, 1);
  const TraceFile trace = TraceFile::open(path);
  EXPECT_EQ(trace.digest(), 0x401fc39727ce62eeull);
  EXPECT_EQ(block_layout(trace),
            "2:1c5c4c3c0c1c2c5c4c1c5c4c3c0c1c2c5c0c1c2c3c4c5c 3:0s1s2s3s 4:0s1s2s3s ");
  fs::remove(path);
}

TEST(TraceWriterBlocks, AnyWorkerCountWritesTheSameBytes) {
  util::Bytes want;
  std::uint64_t want_encoded = 0, want_stored = 0;
  for (const int jobs : {1, 2, 4}) {
    const std::string path =
        testing::scratch_path("h2t_writer_jobs" + std::to_string(jobs) + ".h2t").string();
    obs::ScopedRegistry scoped;
    write_multi_block(path, jobs);
    const obs::Registry& reg = scoped.registry();
    const std::uint64_t encoded = reg.get(obs::Counter::kCodecBlocksEncoded);
    const std::uint64_t stored = reg.get(obs::Counter::kCodecBlocksStored);
    const util::Bytes got = slurp(path);
    fs::remove(path);
    if (jobs == 1) {
      want = got;
      want_encoded = encoded;
      want_stored = stored;
      EXPECT_GT(encoded, 16u);
      continue;
    }
    EXPECT_EQ(got, want) << "jobs " << jobs;
    EXPECT_EQ(encoded, want_encoded) << "jobs " << jobs;
    EXPECT_EQ(stored, want_stored) << "jobs " << jobs;
  }
}

TEST(TraceWriterDeltas, Int64ExtremesRoundTrip) {
  // Times jump between INT64_MIN and INT64_MAX, and the wire-overhead
  // residual of the second packet is INT64_MIN - 100 - 0: each delta the
  // writer forms overflows int64 and must wrap as the reader's sums do.
  std::vector<analysis::PacketObservation> packets(3);
  packets[0].time = util::TimePoint{kMin};
  packets[0].wire_size = kMin;
  packets[0].payload_len = 100;
  packets[1].time = util::TimePoint{kMax};
  packets[1].wire_size = kMax;
  packets[2].time = util::TimePoint{kMin};
  packets[2].wire_size = kMin;
  packets[2].payload_len = 1;
  const std::vector<analysis::RecordObservation> records{
      record(kMin, net::Direction::kClientToServer, 10, 0),
      record(kMax, net::Direction::kClientToServer, 10, 15),
      record(kMax, net::Direction::kServerToClient, 10, 0),
      record(kMin, net::Direction::kServerToClient, 10, 15)};

  const std::string path = testing::scratch_path("h2t_writer_extremes.h2t").string();
  {
    TraceWriter writer(path, TraceMeta{});
    for (const analysis::PacketObservation& p : packets) writer.add_packet(p);
    for (const analysis::RecordObservation& r : records) writer.add_record(r);
    writer.finish();
  }
  const testing::DecodedTrace got = testing::decode_all(TraceFile::open(path));
  ASSERT_EQ(got.packets.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(got.packets[i].time.ns, packets[i].time.ns) << i;
    EXPECT_EQ(got.packets[i].wire_size, packets[i].wire_size) << i;
    EXPECT_EQ(got.packets[i].payload_len, packets[i].payload_len) << i;
  }
  ASSERT_EQ(got.records_c2s.size(), 2u);
  ASSERT_EQ(got.records_s2c.size(), 2u);
  EXPECT_EQ(got.records_c2s[0].time.ns, kMin);
  EXPECT_EQ(got.records_c2s[1].time.ns, kMax);
  EXPECT_EQ(got.records_s2c[0].time.ns, kMax);
  EXPECT_EQ(got.records_s2c[1].time.ns, kMin);
  fs::remove(path);
}

/// An 88-byte v1 trace: the header, one packets section holding a single
/// row (wire delta INT64_MIN, payload 100), and its one-row trailer table.
util::Bytes hostile_v1_trace() {
  util::ByteWriter w;
  w.bytes(util::BytesView{kMagic.data(), kMagic.size()});
  w.u16(1);  // version
  w.u16(0);  // reserved
  w.u32(0);  // reserved
  w.u64(7);  // seed
  const std::uint64_t at = w.size();
  w.u8(0x10);            // tag: ACK, client to server
  put_svarint(w, 0);     // dtime
  put_svarint(w, kMin);  // dwire
  put_svarint(w, 0);     // dseq
  put_svarint(w, 0);     // dack
  put_svarint(w, 100);   // dlen
  const std::uint64_t table = w.size();
  w.u32(static_cast<std::uint32_t>(Section::kPackets));
  w.u64(at);
  w.u64(table - at);
  w.u64(1);  // count
  w.u32(1);  // sections
  w.u64(table);
  w.bytes(util::BytesView{kEndMagic.data(), kEndMagic.size()});
  return w.take();
}

TEST(TraceWriterDeltas, RecompressingAHostileV1TraceWraps) {
  const fs::path dir = testing::scratch_path("h2t_writer_hostile_v1");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const util::Bytes image = hostile_v1_trace();
  ASSERT_EQ(image.size(), 88u);
  {
    std::ofstream out(dir / "run_7.h2t", std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  Manifest manifest;
  manifest.scenario = "hostile";
  manifest.base_seed = 7;
  manifest.entries.push_back(manifest_entry(dir.string(), "run_7.h2t", 7));
  write_manifest(manifest, (dir / "manifest.txt").string());

  const corpus::RecompressStats stats = corpus::recompress_corpus(dir.string(), {});
  EXPECT_EQ(stats.upgraded, 1u);
  const TraceFile upgraded = TraceFile::open((dir / "run_7.h2t").string());
  EXPECT_EQ(upgraded.version(), kFormatVersion);
  const std::vector<analysis::PacketObservation> packets =
      testing::drain_packets(upgraded);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].wire_size, kMin);
  EXPECT_EQ(packets[0].payload_len, 100u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace h2priv::capture
