// .h2t container: varint primitives, exact writer→reader round trips over
// arbitrary observation sequences (property-style, seeded), and structural
// rejection of corrupt or truncated files.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/pcap_export.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/capture/varint.hpp"
#include "h2priv/sim/rng.hpp"
#include "scratch_path.hpp"
#include "trace_decode.hpp"

namespace h2priv::capture {
namespace {

std::string temp_path(const char* name) {
  return testing::scratch_path(std::string("h2t_format_") + name + ".h2t").string();
}

util::Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return util::Bytes{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

// --- varint primitives ------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16'383,
                                 16'384,
                                 0xffffffffULL,
                                 0x8000000000000000ULL,
                                 ~0ULL};
  for (const std::uint64_t v : cases) {
    util::ByteWriter w;
    put_varint(w, v);
    util::ByteReader r(w.view());
    EXPECT_EQ(get_varint(r), v);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Varint, SignedRoundTripsExtremes) {
  const std::int64_t cases[] = {0, -1, 1, -64, 63, -65,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : cases) {
    util::ByteWriter w;
    put_svarint(w, v);
    util::ByteReader r(w.view());
    EXPECT_EQ(get_svarint(r), v);
  }
}

TEST(Varint, EncodingIsMinimalLength) {
  util::ByteWriter w;
  put_varint(w, 127);
  EXPECT_EQ(w.size(), 1u);
  put_varint(w, 128);
  EXPECT_EQ(w.size(), 3u);  // +2
  put_varint(w, ~0ULL);
  EXPECT_EQ(w.size(), 13u);  // +10
}

TEST(Varint, RejectsOverlongEncoding) {
  // 11 continuation bytes can never be a valid 64-bit varint.
  util::Bytes bad(11, 0x80);
  util::ByteReader r(util::BytesView{bad.data(), bad.size()});
  EXPECT_THROW((void)get_varint(r), std::invalid_argument);
}

TEST(Varint, ThrowsOnTruncation) {
  util::Bytes cut = {0x80};  // continuation bit set, then nothing
  util::ByteReader r(util::BytesView{cut.data(), cut.size()});
  EXPECT_THROW((void)get_varint(r), util::OutOfBounds);
}

// --- property round trip ----------------------------------------------------

std::vector<analysis::PacketObservation> random_packets(sim::Rng& rng, int n) {
  std::vector<analysis::PacketObservation> out;
  std::int64_t t = 0;
  for (int i = 0; i < n; ++i) {
    analysis::PacketObservation p;
    t += rng.uniform_int(0, 5'000'000);
    p.time = util::TimePoint{t};
    p.dir = rng.chance(0.5) ? net::Direction::kClientToServer
                            : net::Direction::kServerToClient;
    p.wire_size = rng.uniform_int(40, 1'500);
    p.seq = static_cast<std::uint64_t>(rng.next());
    p.ack = static_cast<std::uint64_t>(rng.next());
    p.flags = static_cast<std::uint8_t>(rng.uniform_int(0, 0x7f));  // bit 7 reserved
    p.payload_len = static_cast<std::size_t>(rng.uniform_int(0, 65'535));
    out.push_back(p);
  }
  return out;
}

std::vector<analysis::RecordObservation> random_records(sim::Rng& rng, int n) {
  std::vector<analysis::RecordObservation> out;
  constexpr tls::ContentType kTypes[] = {
      tls::ContentType::kChangeCipherSpec, tls::ContentType::kAlert,
      tls::ContentType::kHandshake, tls::ContentType::kApplicationData};
  std::int64_t t = 0;
  std::uint64_t off = 0;
  for (int i = 0; i < n; ++i) {
    analysis::RecordObservation r;
    t += rng.uniform_int(0, 3'000'000);
    r.time = util::TimePoint{t};
    r.dir = rng.chance(0.5) ? net::Direction::kClientToServer
                            : net::Direction::kServerToClient;
    r.type = kTypes[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    r.ciphertext_len = static_cast<std::size_t>(rng.uniform_int(0, 0x4000));
    off += static_cast<std::uint64_t>(rng.uniform_int(0, 20'000));
    r.stream_offset = off;
    out.push_back(r);
  }
  return out;
}

bool same_packet(const analysis::PacketObservation& a,
                 const analysis::PacketObservation& b) {
  return a.time.ns == b.time.ns && a.dir == b.dir && a.wire_size == b.wire_size &&
         a.seq == b.seq && a.ack == b.ack && a.flags == b.flags &&
         a.payload_len == b.payload_len;
}

bool same_record(const analysis::RecordObservation& a,
                 const analysis::RecordObservation& b) {
  return a.time.ns == b.time.ns && a.dir == b.dir && a.type == b.type &&
         a.ciphertext_len == b.ciphertext_len && a.stream_offset == b.stream_offset;
}

TEST(TraceRoundTrip, ArbitrarySequencesSurviveExactly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    const int n_packets = static_cast<int>(rng.uniform_int(0, 400));
    const int n_records = static_cast<int>(rng.uniform_int(0, 100));
    const auto packets = random_packets(rng, n_packets);
    const auto records = random_records(rng, n_records);

    const std::string path = temp_path("property");
    TraceMeta meta;
    meta.seed = seed;
    meta.scenario = "property";
    {
      TraceWriter writer(path, meta);
      for (const auto& p : packets) writer.add_packet(p);
      for (const auto& r : records) writer.add_record(r);
      writer.finish();
    }

    const TraceFile file = TraceFile::open(path);
    const auto got_packets = testing::drain_packets(file);
    ASSERT_EQ(got_packets.size(), packets.size()) << "seed " << seed;
    EXPECT_EQ(file.packet_count(), packets.size()) << "seed " << seed;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      ASSERT_TRUE(same_packet(got_packets[i], packets[i]))
          << "seed " << seed << " packet " << i;
    }
    std::size_t got_records = 0;
    for (const auto dir :
         {net::Direction::kClientToServer, net::Direction::kServerToClient}) {
      const auto decoded = file.records(dir);
      std::size_t j = 0;
      for (const auto& r : records) {
        if (r.dir != dir) continue;
        ASSERT_LT(j, decoded.size()) << "seed " << seed;
        ASSERT_TRUE(same_record(decoded[j], r)) << "seed " << seed << " record " << j;
        ++j;
        ++got_records;
      }
      EXPECT_EQ(decoded.size(), j) << "seed " << seed;
    }
    EXPECT_EQ(got_records, records.size());
    std::remove(path.c_str());
  }
}

TEST(TraceRoundTrip, EmptyRun) {
  const std::string path = temp_path("empty");
  TraceMeta meta;
  meta.seed = 7;
  { TraceWriter(path, meta).finish(); }
  const TraceFile file = TraceFile::open(path);
  const testing::DecodedTrace trace = testing::decode_all(file);
  EXPECT_TRUE(trace.packets.empty());
  EXPECT_TRUE(trace.records_c2s.empty());
  EXPECT_TRUE(trace.records_s2c.empty());
  EXPECT_FALSE(trace.truth.has_value());
  EXPECT_FALSE(trace.summary.has_value());
  EXPECT_EQ(file.meta().seed, 7u);
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, MaxLengthPacketFields) {
  const std::string path = temp_path("extremes");
  analysis::PacketObservation p;
  p.time = util::TimePoint{std::numeric_limits<std::int64_t>::max() / 2};
  p.wire_size = std::numeric_limits<std::int64_t>::max() / 2;
  p.seq = ~0ULL;
  p.ack = ~0ULL;
  p.flags = 0x7f;
  // The largest payload a reader accepts (one IPv4 packet's worth); above it
  // a trace is hostile (capture_hardening_test).
  p.payload_len = static_cast<std::size_t>(kMaxPacketPayload);
  {
    TraceWriter writer(path, TraceMeta{});
    writer.add_packet(p);
    writer.finish();
  }
  const auto packets = testing::drain_packets(TraceFile::open(path));
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(same_packet(packets[0], p));
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, MetaGroundTruthAndSummary) {
  const std::string path = temp_path("meta");
  TraceMeta meta;
  meta.seed = 99;
  meta.scenario = "fig2";
  meta.site = "isidewith";
  meta.attack_enabled = true;
  meta.pad_sensitive_objects = true;
  meta.push_emblems = true;
  meta.manual_spacing_ns = 50'000'000;
  meta.manual_bandwidth_bps = 10'000'000;
  meta.deadline_ns = 45'000'000'000;
  meta.attack_horizon_ns = 2'500'000'123;
  meta.party_order = {3, 1, 4, 0, 5, 2, 7, 6};

  analysis::GroundTruth truth;
  const analysis::InstanceId a = truth.register_instance(6, 11, false);
  truth.record_data(a, h2::WireSpan{0, 100});
  truth.record_data(a, h2::WireSpan{250, 300});
  truth.record_headers(a, h2::WireSpan{100, 109});
  truth.mark_complete(a);
  const analysis::InstanceId b = truth.register_instance(2, 13, true);
  truth.record_data(b, h2::WireSpan{300, 450});

  TraceSummary summary;
  summary.monitor_packets = 1234;
  summary.monitor_gets = 48;
  summary.html.label = "results-html";
  summary.html.true_size = 57'000;
  summary.html.primary_dom = 0.12345678901234567;
  summary.html.has_dom = true;
  summary.html.identified = true;
  summary.html.attack_success = true;
  summary.emblems_by_position[3].label = "party-4";
  summary.emblems_by_position[3].serialized_primary = true;
  summary.predicted_sequence = {"party-1", "party-6"};
  summary.sequence_positions_correct = 5;

  {
    TraceWriter writer(path, meta);
    writer.set_ground_truth(truth);
    writer.set_summary(summary);
    writer.finish();
  }

  const TraceFile file = TraceFile::open(path);
  const TraceMeta& m = file.meta();
  EXPECT_EQ(m.seed, 99u);
  EXPECT_EQ(m.scenario, "fig2");
  EXPECT_EQ(m.site, "isidewith");
  EXPECT_TRUE(m.attack_enabled);
  EXPECT_TRUE(m.pad_sensitive_objects);
  EXPECT_TRUE(m.push_emblems);
  EXPECT_EQ(m.manual_spacing_ns, meta.manual_spacing_ns);
  EXPECT_EQ(m.manual_bandwidth_bps, meta.manual_bandwidth_bps);
  EXPECT_EQ(m.deadline_ns, meta.deadline_ns);
  EXPECT_EQ(m.attack_horizon_ns, meta.attack_horizon_ns);
  EXPECT_EQ(m.party_order, meta.party_order);

  ASSERT_TRUE(file.has_section(Section::kGroundTruth));
  const analysis::GroundTruth decoded_truth = file.ground_truth();
  const auto& instances = decoded_truth.instances();
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_EQ(instances[0].object_id, 6);
  EXPECT_EQ(instances[0].stream_id, 11u);
  EXPECT_FALSE(instances[0].duplicate);
  EXPECT_TRUE(instances[0].complete);
  ASSERT_EQ(instances[0].data.size(), 2u);
  EXPECT_EQ(instances[0].data[1].begin, 250u);
  EXPECT_EQ(instances[0].data[1].end, 300u);
  ASSERT_EQ(instances[0].headers.size(), 1u);
  EXPECT_TRUE(instances[1].duplicate);
  EXPECT_FALSE(instances[1].complete);

  ASSERT_TRUE(file.has_section(Section::kSummary));
  EXPECT_EQ(file.summary(), summary);  // incl. bit-exact DoM via bit_cast
  std::remove(path.c_str());
}

TEST(TraceWriter, RejectsReservedFlagBit) {
  const std::string path = temp_path("badflag");
  TraceWriter writer(path, TraceMeta{});
  analysis::PacketObservation p;
  p.flags = 0x80;
  EXPECT_THROW(writer.add_packet(p), TraceError);
  std::remove(path.c_str());
}

// --- structural rejection ---------------------------------------------------

/// Structural validation plus a decode of every section — what any reader
/// path would run into. Throws TraceError on a hostile image.
void decode_image(const util::Bytes& image) {
  (void)testing::decode_all(TraceFile{image});
}

class TraceCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs these tests as concurrent processes.
    path_ = temp_path(::testing::UnitTest::GetInstance()->current_test_info()->name());
    sim::Rng rng(42);
    TraceWriter writer(path_, TraceMeta{});
    for (const auto& p : random_packets(rng, 50)) writer.add_packet(p);
    writer.finish();
    image_ = slurp(path_);
    std::remove(path_.c_str());
  }

  std::string path_;
  util::Bytes image_;
};

TEST_F(TraceCorruption, ValidImageParses) {
  EXPECT_NO_THROW(decode_image(image_));
}

TEST_F(TraceCorruption, RejectsBadMagic) {
  util::Bytes bad = image_;
  bad[0] ^= 0xff;
  EXPECT_THROW(decode_image(bad), TraceError);
}

TEST_F(TraceCorruption, RejectsVersionMismatch) {
  util::Bytes bad = image_;
  bad[9] = capture::kFormatVersion + 1;  // version u16 lives at bytes [8,9]
  try {
    decode_image(bad);
    FAIL() << "future version accepted";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  bad[9] = 0;  // below kMinReadVersion
  EXPECT_THROW(decode_image(bad), TraceError);
}

TEST_F(TraceCorruption, RejectsCompressedSectionsInV1Header) {
  // Rewriting the header version to 1 leaves the trailer's compressed flags
  // in place — a combination no writer produces and v1 readers can't decode.
  util::Bytes bad = image_;
  bad[9] = 1;
  EXPECT_THROW(decode_image(bad), TraceError);
}

TEST_F(TraceCorruption, RejectsBadEndMagic) {
  util::Bytes bad = image_;
  bad.back() ^= 0xff;
  EXPECT_THROW(decode_image(bad), TraceError);
}

TEST_F(TraceCorruption, RejectsTruncationAtEveryPrefixLength) {
  // No prefix of a valid trace is a valid trace.
  for (std::size_t len = 0; len < image_.size(); len += 7) {
    util::Bytes cut(image_.begin(),
                    image_.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_image(cut), TraceError) << "prefix " << len;
  }
}

TEST_F(TraceCorruption, RejectsTrailerOffsetOutOfRange) {
  util::Bytes bad = image_;
  // trailer_offset u64 sits just before the 8-byte end magic.
  const std::size_t at = bad.size() - 16;
  for (std::size_t i = 0; i < 8; ++i) bad[at + i] = 0xff;
  EXPECT_THROW(decode_image(bad), TraceError);
}

// --- digest + pcap ----------------------------------------------------------

TEST(Fnv1a, MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a(util::BytesView{}), 0xcbf29ce484222325ULL);
  const util::Bytes a = {'a'};
  EXPECT_EQ(fnv1a(util::BytesView{a.data(), a.size()}), 0xaf63dc4c8601ec8cULL);
  const util::Bytes foobar = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(fnv1a(util::BytesView{foobar.data(), foobar.size()}),
            0x85944171f73967e8ULL);
}

TEST(PcapExport, ImageHasExpectedShape) {
  sim::Rng rng(7);
  const auto packets = random_packets(rng, 9);
  const std::string trace_path = temp_path("pcap_src");
  {
    TraceWriter writer(trace_path, TraceMeta{});
    for (const auto& p : packets) writer.add_packet(p);
    writer.finish();
  }
  const std::string pcap_path = testing::scratch_path("h2t_format_export.pcap").string();
  EXPECT_EQ(export_pcap(TraceFile::open(trace_path).packets(), pcap_path),
            packets.size());
  const util::Bytes image = slurp(pcap_path);
  std::remove(trace_path.c_str());
  std::remove(pcap_path.c_str());

  std::size_t expect = kPcapGlobalHeaderBytes;
  for (const auto& p : packets) {
    expect += kPcapRecordHeaderBytes + kSynthHeaderBytes + p.payload_len;
  }
  EXPECT_EQ(image.size(), expect);
  // Nanosecond-resolution little-endian magic.
  EXPECT_EQ(image[0], 0x4d);
  EXPECT_EQ(image[1], 0x3c);
  EXPECT_EQ(image[2], 0xb2);
  EXPECT_EQ(image[3], 0xa1);
}

}  // namespace
}  // namespace h2priv::capture
