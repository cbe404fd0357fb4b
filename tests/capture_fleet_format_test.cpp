// Fleet trace format hardening: the kFleet / kConnIds sections must decode
// exactly what the writer emitted, reject hostile images with TraceError
// (never over-read), and stay entirely absent from single-connection traces
// so pre-fleet corpora remain byte-identical.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/sim/rng.hpp"
#include "trace_decode.hpp"

namespace h2priv::capture {
namespace {

std::string temp_path(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "h2t_fleet_" + info->name() + "_" + name + ".h2t";
}

util::Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return util::Bytes{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

void put_u64be(util::Bytes& image, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    image[at + i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

void put_u32be(util::Bytes& image, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    image[at + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  }
}

void put_u16be(util::Bytes& image, std::size_t at, std::uint16_t v) {
  image[at] = static_cast<std::uint8_t>(v >> 8);
  image[at + 1] = static_cast<std::uint8_t>(v & 0xff);
}

[[nodiscard]] std::uint64_t get_u64be(const util::Bytes& image, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | image[at + i];
  return v;
}

[[nodiscard]] std::uint32_t get_u32be(const util::Bytes& image, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v = (v << 8) | image[at + i];
  return v;
}

/// Byte offset of trailer-table entry `i` (28 bytes per entry; the entry's
/// offset/length/count u64s sit at +4/+12/+20).
[[nodiscard]] std::size_t entry_at(const util::Bytes& image, std::size_t i) {
  const std::size_t table =
      static_cast<std::size_t>(get_u64be(image, image.size() - 16));
  return table + i * kSectionEntryBytes;
}

[[nodiscard]] std::size_t entry_for(const util::Bytes& image, Section id) {
  const auto n = static_cast<std::size_t>(
      get_u32be(image, image.size() - kTrailerTailBytes));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t raw = get_u32be(image, entry_at(image, i));
    if ((raw & ~kSectionCompressedFlag) == static_cast<std::uint32_t>(id)) return i;
  }
  ADD_FAILURE() << "section " << static_cast<int>(id) << " not in trailer";
  return 0;
}

/// A hostile fleet image must raise TraceError from every fleet accessor —
/// open, fleet(), conn_ids(), demux — never UB or another exception type.
void expect_fleet_rejected(const util::Bytes& image, const char* label) {
  EXPECT_THROW(
      {
        const TraceFile file{image};
        (void)file.fleet();
        (void)file.conn_ids();
      },
      TraceError)
      << label;
  EXPECT_THROW(
      {
        const TraceFile file{image};
        (void)demux_fleet(file);
      },
      TraceError)
      << label;
}

[[nodiscard]] analysis::GroundTruth tiny_truth(int instances) {
  analysis::GroundTruth truth;
  for (int i = 0; i < instances; ++i) {
    const analysis::InstanceId id = truth.register_instance(
        static_cast<web::ObjectId>(3 + 2 * i), 5, false);
    truth.record_data(id, h2::WireSpan{static_cast<std::uint64_t>(i) * 5'000,
                                       static_cast<std::uint64_t>(i) * 5'000 + 4'000});
    truth.mark_complete(id);
  }
  return truth;
}

class FleetTraceFormat : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("base");
    write_fleet_trace(path_);
    image_ = slurp(path_);
    std::remove(path_.c_str());
  }

  /// A small two-connection fleet trace with interleaved conn ids.
  static void write_fleet_trace(const std::string& path) {
    TraceMeta meta;
    meta.seed = 99;
    meta.scenario = "fleet-format";
    TraceWriter writer(path, meta);

    std::vector<FleetConn> conns(2);
    for (std::size_t k = 0; k < conns.size(); ++k) {
      conns[k].client_seed = 1'000 + k;
      conns[k].start_offset_ns = static_cast<std::int64_t>(k) * 1'000'000;
      conns[k].link_rate_bps = 100'000'000;
      conns[k].cache_hits = 3 * k;
      conns[k].truth = tiny_truth(2);
      conns[k].summary.monitor_packets = 30;
      conns[k].summary.predicted_sequence = {"party-1"};
    }
    writer.begin_fleet(conns);

    sim::Rng rng(4242);
    std::int64_t t = 0;
    std::array<std::uint64_t, 2> off{};
    for (int i = 0; i < 60; ++i) {
      const auto conn = static_cast<std::uint32_t>(i % 2);
      analysis::PacketObservation p;
      t += rng.uniform_int(1'000, 500'000);
      p.time = util::TimePoint{t};
      p.dir = rng.chance(0.5) ? net::Direction::kClientToServer
                              : net::Direction::kServerToClient;
      p.wire_size = rng.uniform_int(40, 1'500);
      p.seq = static_cast<std::uint64_t>(rng.next());
      p.payload_len = static_cast<std::size_t>(rng.uniform_int(0, 1'460));
      writer.add_packet(p, conn);

      analysis::RecordObservation r;
      r.time = util::TimePoint{t};
      r.dir = p.dir;
      r.ciphertext_len = static_cast<std::size_t>(rng.uniform_int(21, 0x4000));
      off[conn] += r.ciphertext_len + 5;
      r.stream_offset = off[conn];
      writer.add_record(r, conn);
    }
    writer.finish();
  }

  std::string path_;
  util::Bytes image_;
};

TEST_F(FleetTraceFormat, RoundTripsConnectionsAndIds) {
  const TraceFile file{image_};
  EXPECT_TRUE(file.meta().fleet);
  const std::vector<FleetConn> conns = file.fleet();
  ASSERT_EQ(conns.size(), 2u);
  EXPECT_EQ(conns[0].client_seed, 1'000u);
  EXPECT_EQ(conns[1].client_seed, 1'001u);
  EXPECT_EQ(conns[1].start_offset_ns, 1'000'000);
  EXPECT_EQ(conns[1].cache_hits, 3u);
  EXPECT_EQ(conns[0].summary.predicted_sequence,
            std::vector<std::string>{"party-1"});

  const ConnIdColumns ids = file.conn_ids();
  EXPECT_EQ(ids.packets.size(), file.packet_count());
  EXPECT_EQ(ids.records_c2s.size() + ids.records_s2c.size(), 60u);
  for (std::size_t i = 0; i < ids.packets.size(); ++i) {
    EXPECT_EQ(ids.packets[i], i % 2);  // the interleave the writer saw
  }
}

TEST_F(FleetTraceFormat, WriterIsDeterministic) {
  const std::string again = temp_path("again");
  write_fleet_trace(again);
  EXPECT_EQ(slurp(again), image_);
  std::remove(again.c_str());
}

TEST_F(FleetTraceFormat, WriterRejectsBadConnIds) {
  const std::string path = temp_path("writer");
  analysis::PacketObservation p;
  p.time = util::TimePoint{1'000};
  {
    TraceWriter writer(path, TraceMeta{});
    std::vector<FleetConn> conns(2);
    conns[0].truth = tiny_truth(1);
    conns[1].truth = tiny_truth(1);
    writer.begin_fleet(conns);
    EXPECT_THROW(writer.add_packet(p, 2), TraceError);  // id >= n_conns
    // Fleet traces carry truth/summary per connection, never globally.
    EXPECT_THROW(writer.set_ground_truth(tiny_truth(1)), TraceError);
    EXPECT_THROW(writer.set_summary(TraceSummary{}), TraceError);
  }
  {
    TraceWriter writer(path, TraceMeta{});
    // Outside fleet mode only conn id 0 is legal.
    EXPECT_THROW(writer.add_packet(p, 1), TraceError);
    writer.add_packet(p, 0);
    // Fleet mode cannot start after the first observation.
    std::vector<FleetConn> conns(1);
    EXPECT_THROW(writer.begin_fleet(conns), TraceError);
  }
  {
    TraceWriter writer(path, TraceMeta{});
    EXPECT_THROW(writer.begin_fleet({}), TraceError);  // empty fleet
  }
  std::remove(path.c_str());
}

TEST_F(FleetTraceFormat, OutOfRangeConnIdIsRejected) {
  // Shrink the kFleet connection count: stored id 1 is now out of range.
  util::Bytes bad = image_;
  put_u64be(bad, entry_at(bad, entry_for(bad, Section::kFleet)) + 20, 1);
  expect_fleet_rejected(bad, "conn id out of range");
}

TEST_F(FleetTraceFormat, TruncatedConnIdColumnIsRejected) {
  // Chop bytes off the kConnIds payload length: its blocks no longer tile
  // the section.
  util::Bytes bad = image_;
  const std::size_t e = entry_at(bad, entry_for(bad, Section::kConnIds));
  const std::uint64_t length = get_u64be(bad, e + 12);
  ASSERT_GT(length, 4u);
  put_u64be(bad, e + 12, length - 4);
  expect_fleet_rejected(bad, "truncated conn-id column");
}

TEST_F(FleetTraceFormat, ConnIdCountMismatchIsRejected) {
  // Inflate the kConnIds row count past the packets section's.
  util::Bytes bad = image_;
  const std::size_t e = entry_at(bad, entry_for(bad, Section::kConnIds));
  put_u64be(bad, e + 20, get_u64be(bad, e + 20) + 1);
  expect_fleet_rejected(bad, "conn-id count mismatch");
}

TEST_F(FleetTraceFormat, FleetSectionsInV1AreForgeries) {
  // Hand-built minimal v1 image whose only section is a kFleet (then a
  // kConnIds) row. v1 predates the fleet format, so both must be rejected
  // outright — not decoded as "legacy" layouts.
  for (const Section id : {Section::kFleet, Section::kConnIds}) {
    util::Bytes image(kHeaderBytes + kSectionEntryBytes + kTrailerTailBytes, 0);
    std::copy(kMagic.begin(), kMagic.end(), image.begin());
    put_u16be(image, kMagic.size(), 1);  // version 1
    const std::size_t table = kHeaderBytes;
    put_u32be(image, table, static_cast<std::uint32_t>(id));
    put_u64be(image, table + 4, kHeaderBytes);  // offset
    put_u64be(image, table + 12, 0);            // length
    put_u64be(image, table + 20, 0);            // count
    const std::size_t tail = table + kSectionEntryBytes;
    put_u32be(image, tail, 1);  // one section
    put_u64be(image, tail + 4, table);
    std::copy(kEndMagic.begin(), kEndMagic.end(),
              image.end() - static_cast<std::ptrdiff_t>(kEndMagic.size()));
    EXPECT_THROW(TraceFile{image}, TraceError) << static_cast<int>(id);
    EXPECT_THROW((void)testing::decode_all(TraceFile{image}), TraceError)
        << static_cast<int>(id);
  }
}

TEST_F(FleetTraceFormat, FuzzedFleetSectionsNeverEscapeTraceError) {
  // Byte flips inside the kFleet blobs and the kConnIds columns: a full
  // decode (fleet() and conn_ids() included) and demux_fleet must either
  // succeed or raise TraceError — never another exception type or a crash.
  sim::Rng rng(515151);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const Section target = iter % 2 == 0 ? Section::kFleet : Section::kConnIds;
    const std::size_t e = entry_at(image_, entry_for(image_, target));
    const auto off = static_cast<std::size_t>(get_u64be(image_, e + 4));
    const auto len = static_cast<std::size_t>(get_u64be(image_, e + 12));
    ASSERT_GT(len, 0u);
    util::Bytes bad = image_;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < flips; ++i) {
      const auto rel = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(len) - 1));
      bad[off + rel] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    try {
      const TraceFile file{bad};
      (void)testing::decode_all(file);
      (void)demux_fleet(file);
      ++parsed;
    } catch (const TraceError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  SUCCEED() << parsed << " parsed, " << rejected << " rejected";
}

TEST_F(FleetTraceFormat, SingleConnectionTracesCarryNoFleetSections) {
  const std::string path = temp_path("single");
  {
    TraceMeta meta;
    meta.seed = 7;
    TraceWriter writer(path, meta);
    sim::Rng rng(1);
    std::int64_t t = 0;
    for (int i = 0; i < 10; ++i) {
      analysis::PacketObservation p;
      t += rng.uniform_int(1'000, 100'000);
      p.time = util::TimePoint{t};
      p.wire_size = 100;
      writer.add_packet(p);  // default conn id 0
    }
    writer.finish();
  }
  const util::Bytes image = slurp(path);
  std::remove(path.c_str());
  const TraceFile file{image};
  EXPECT_FALSE(file.meta().fleet);
  EXPECT_FALSE(file.has_section(Section::kFleet));
  EXPECT_FALSE(file.has_section(Section::kConnIds));
  EXPECT_THROW((void)file.fleet(), TraceError);
  EXPECT_THROW((void)file.conn_ids(), TraceError);
  EXPECT_THROW((void)demux_fleet(file), TraceError);
}

}  // namespace
}  // namespace h2priv::capture
