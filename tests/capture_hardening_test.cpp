// Reader hardening: hostile .h2t images must raise TraceError, never UB.
//
// Exercises the validator (capture::validate_and_index) and every section
// decoder behind capture::TraceFile — opening alone, then a full decode of
// every section (tests/support decode_all) — with surgically corrupted
// trailers (truncated tail, overlapping sections, offsets past EOF,
// implausible counts) plus a seeded fuzz sweep of random byte flips and
// truncations over an otherwise-valid image. Packet payload lengths no IPv4
// packet can carry are rejected before replay or pcap export sizes a buffer
// by them.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/pcap_export.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/capture/varint.hpp"
#include "h2priv/sim/rng.hpp"
#include "scratch_path.hpp"
#include "trace_decode.hpp"

namespace h2priv::capture {
namespace {

std::string temp_path(const char* name) {
  // ctest runs each TEST_F as its own process, concurrently — scope scratch
  // files by test name so parallel fixtures never race on the same path.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return testing::scratch_path(std::string("h2t_hardening_") + info->name() + "_" +
                               name + ".h2t")
      .string();
}

util::Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return util::Bytes{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const util::Bytes& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(content.data()),
            static_cast<std::streamsize>(content.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Big-endian field patching (the .h2t trailer is fixed-width big-endian).
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

/// Trailer-table index of section `id` (v2 compressed flag masked off).
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

/// Opens `image` and decodes every section it carries. Throws TraceError on
/// a hostile image.
void decode_image(const util::Bytes& image) {
  (void)testing::decode_all(TraceFile{image});
}

/// A hostile image must be rejected with TraceError at open and by a full
/// decode; anything else (other exception types, aborts, sanitizer reports)
/// fails.
void expect_rejected(const util::Bytes& image, const char* label) {
  EXPECT_THROW(TraceFile{image}, TraceError) << label;
  EXPECT_THROW(decode_image(image), TraceError) << label;
}

class TraceHardening : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("base");
    sim::Rng rng(2026);
    TraceMeta meta;
    meta.seed = 77;
    meta.scenario = "hardening";
    TraceWriter writer(path_, meta);
    std::int64_t t = 0;
    std::uint64_t off = 0;
    for (int i = 0; i < 40; ++i) {
      analysis::PacketObservation p;
      t += rng.uniform_int(1'000, 900'000);
      p.time = util::TimePoint{t};
      p.dir = rng.chance(0.5) ? net::Direction::kClientToServer
                              : net::Direction::kServerToClient;
      p.wire_size = rng.uniform_int(40, 1'500);
      p.seq = static_cast<std::uint64_t>(rng.next());
      p.ack = static_cast<std::uint64_t>(rng.next());
      p.payload_len = static_cast<std::size_t>(rng.uniform_int(0, 1'460));
      writer.add_packet(p);

      analysis::RecordObservation r;
      r.time = util::TimePoint{t};
      r.dir = p.dir;
      r.ciphertext_len = static_cast<std::size_t>(rng.uniform_int(21, 0x4000));
      off += r.ciphertext_len + 5;
      r.stream_offset = off;
      writer.add_record(r);
    }
    analysis::GroundTruth truth;
    const analysis::InstanceId id = truth.register_instance(3, 5, false);
    truth.record_data(id, h2::WireSpan{0, 4'000});
    truth.record_headers(id, h2::WireSpan{4'000, 4'020});
    truth.mark_complete(id);
    writer.set_ground_truth(truth);
    TraceSummary summary;
    summary.monitor_packets = 40;
    summary.predicted_sequence = {"party-1", "party-2"};
    writer.set_summary(summary);
    writer.finish();
    image_ = slurp(path_);
    std::remove(path_.c_str());
  }

  std::string path_;
  util::Bytes image_;
};

TEST_F(TraceHardening, ValidImageParsesThroughBothPaths) {
  EXPECT_NO_THROW(decode_image(image_));
  const TraceFile lazy{image_};
  EXPECT_EQ(lazy.meta().seed, 77u);
  EXPECT_EQ(lazy.meta().scenario, "hardening");

  // The cursor counts down from the section's row count to exhaustion.
  PacketCursor cursor = lazy.packets();
  EXPECT_EQ(cursor.remaining(), lazy.packet_count());
  analysis::PacketObservation p;
  std::uint64_t n = 0;
  while (cursor.next(p)) ++n;
  EXPECT_EQ(n, 40u);
  EXPECT_EQ(cursor.remaining(), 0u);
  EXPECT_FALSE(cursor.next(p));
}

TEST_F(TraceHardening, TruncatedSectionTrailerIsRejected) {
  // Inflate the declared section count so the table extends past the image.
  util::Bytes bad = image_;
  put_u32be(bad, bad.size() - kTrailerTailBytes, 0x00ffffff);
  expect_rejected(bad, "inflated section count");

  // Chop the image inside the trailer table (end magic re-planted so only
  // the table truncation itself is on trial).
  util::Bytes cut(image_.begin(),
                  image_.begin() + static_cast<std::ptrdiff_t>(entry_at(image_, 1)));
  const util::Bytes tail(image_.end() - kTrailerTailBytes, image_.end());
  cut.insert(cut.end(), tail.begin(), tail.end());
  expect_rejected(cut, "truncated trailer table");
}

TEST_F(TraceHardening, SectionOffsetPastEofIsRejected) {
  util::Bytes bad = image_;
  put_u64be(bad, entry_at(bad, 0) + 4, bad.size() + 1'000);
  expect_rejected(bad, "offset past EOF");

  // Offset in range but length running past the trailer table.
  util::Bytes bad2 = image_;
  put_u64be(bad2, entry_at(bad2, 0) + 12, bad2.size());
  expect_rejected(bad2, "length past EOF");

  // Offset pointing inside the fixed header.
  util::Bytes bad3 = image_;
  put_u64be(bad3, entry_at(bad3, 0) + 4, 4);
  expect_rejected(bad3, "offset inside header");
}

TEST_F(TraceHardening, OverlappingSectionsAreRejected) {
  // Slide section 1 so it starts inside section 0's payload. Both sections
  // are non-empty in the fixture (packets, then records).
  util::Bytes bad = image_;
  const std::uint64_t first_off = get_u64be(bad, entry_at(bad, 0) + 4);
  const std::uint64_t first_len = get_u64be(bad, entry_at(bad, 0) + 12);
  ASSERT_GT(first_len, 1u);
  put_u64be(bad, entry_at(bad, 1) + 4, first_off + first_len - 1);
  expect_rejected(bad, "overlapping sections");
}

TEST_F(TraceHardening, ImplausibleEntryCountIsRejectedWithoutAllocating) {
  // A count no payload of this length could hold must be refused up front —
  // the failure mode guarded against is a multi-GiB reserve(), not a throw
  // from deep inside the decode loop.
  for (std::size_t entry : {std::size_t{0}, std::size_t{2}}) {  // packets, records
    util::Bytes bad = image_;
    put_u64be(bad, entry_at(bad, entry) + 20, 0x7fffffffffffffffULL);
    expect_rejected(bad, "implausible count");
  }
}

TEST_F(TraceHardening, FuzzedImagesNeverEscapeTraceError) {
  sim::Rng rng(424242);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    util::Bytes mutated = image_;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    if (rng.chance(0.25)) {
      mutated.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()))));
    }
    try {
      decode_image(mutated);
      ++parsed;  // mutation landed somewhere harmless (or was masked)
    } catch (const TraceError&) {
      ++rejected;
    }
    // Any other exception type propagates and fails the test.
  }
  EXPECT_GT(rejected, 0);
  SUCCEED() << parsed << " parsed, " << rejected << " rejected";
}

// --- v2 hostile compressed inputs -------------------------------------------
// The fixture image is a v2 trace: packets/records/truth/summary are
// block-compressed and described by the block-index section. Structural lies
// about the compressed layout must fail closed with TraceError before any
// decoder trusts a length.

TEST_F(TraceHardening, CompressedFlagOnRowlessSectionsIsRejected) {
  // Meta and the block index itself have no column layout; a compressed flag
  // on either is a forgery no writer produces.
  for (const Section id : {Section::kMeta, Section::kBlockIndex}) {
    util::Bytes bad = image_;
    const std::size_t at = entry_at(bad, entry_for(bad, id));
    put_u32be(bad, at, get_u32be(bad, at) | kSectionCompressedFlag);
    expect_rejected(bad, "compressed flag on row-less section");
  }
}

TEST_F(TraceHardening, CompressedSectionLengthLieIsRejected) {
  // Shrinking the declared on-disk length truncates the final block: the
  // per-block compressed lengths in the index no longer sum to the section
  // length, so validation must refuse before any block is ranged-decoded.
  util::Bytes bad = image_;
  const std::size_t at = entry_at(bad, entry_for(bad, Section::kPackets));
  const std::uint64_t len = get_u64be(bad, at + 12);
  ASSERT_GT(len, 1u);
  put_u64be(bad, at + 12, len - 1);
  expect_rejected(bad, "truncated compressed section");
}

TEST_F(TraceHardening, CompressedSectionCountLieIsRejected) {
  // The index pins stream 0 of a packets/records section to exactly `count`
  // raw bytes (one tag/type byte per row); a trailer count that disagrees
  // with the compressed layout is a declared-size lie.
  for (const std::uint64_t lie : {std::uint64_t{39}, std::uint64_t{41},
                                  std::uint64_t{1} << 40}) {
    util::Bytes bad = image_;
    const std::size_t at = entry_at(bad, entry_for(bad, Section::kPackets));
    put_u64be(bad, at + 20, lie);
    expect_rejected(bad, "count disagrees with block index");
  }
}

TEST_F(TraceHardening, CompressedFlagStrippedLeavesOrphanIndexEntry) {
  // Clearing the flag turns the coded payload into a claimed row-interleaved
  // v1 section while its block-index entry still exists — the cross-check
  // between trailer flags and index entries must catch the mismatch.
  util::Bytes bad = image_;
  const std::size_t at = entry_at(bad, entry_for(bad, Section::kPackets));
  put_u32be(bad, at, get_u32be(bad, at) & ~kSectionCompressedFlag);
  expect_rejected(bad, "orphan block-index entry");
}

TEST_F(TraceHardening, FuzzedBlockIndexNeverEscapesTraceError) {
  // Byte flips inside the block-index payload hit varint lengths, stream
  // counts and per-block sizes; every mutation must either still validate
  // end-to-end or raise TraceError — never a raw std::exception or a crash.
  const std::size_t at = entry_at(image_, entry_for(image_, Section::kBlockIndex));
  const auto idx_off = static_cast<std::size_t>(get_u64be(image_, at + 4));
  const auto idx_len = static_cast<std::size_t>(get_u64be(image_, at + 12));
  ASSERT_GT(idx_len, 0u);
  sim::Rng rng(171717);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    util::Bytes bad = image_;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < flips; ++i) {
      const auto rel = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(idx_len) - 1));
      bad[idx_off + rel] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    try {
      decode_image(bad);
      ++parsed;
    } catch (const TraceError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  SUCCEED() << parsed << " parsed, " << rejected << " rejected";
}

TEST_F(TraceHardening, CorruptedCompressedPayloadNeverEscapesTraceError) {
  // Flips inside the coded packet blocks themselves: the range decoder either
  // consumes a different byte count than the block declares (rejected), or
  // decodes garbage columns that fail the varint/row decoders — both must
  // surface as TraceError.
  const std::size_t at = entry_at(image_, entry_for(image_, Section::kPackets));
  const auto off = static_cast<std::size_t>(get_u64be(image_, at + 4));
  const auto len = static_cast<std::size_t>(get_u64be(image_, at + 12));
  ASSERT_GT(len, 0u);
  sim::Rng rng(292929);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    util::Bytes bad = image_;
    const auto rel = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len) - 1));
    bad[off + rel] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    try {
      decode_image(bad);
      ++parsed;
    } catch (const TraceError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  SUCCEED() << parsed << " parsed, " << rejected << " rejected";
}

TEST_F(TraceHardening, StreamedFileDigestMatchesWholeImageDigest) {
  // digest_file streams in 64 KiB chunks; it must agree with the one-shot
  // fnv1a and the chunk-walking digest_view on a file spanning several
  // chunks. The fixture trace is small, so pad a copy out past 3 chunks
  // with a second image's worth of appended bytes (digest input is raw
  // bytes; validity as a trace is irrelevant here).
  util::Bytes big = image_;
  while (big.size() < 3 * util::kFileChunkBytes + 17) {
    big.insert(big.end(), image_.begin(), image_.end());
  }
  const std::string path = temp_path("digest");
  spit(path, big);
  const util::BytesView view{big.data(), big.size()};
  EXPECT_EQ(digest_file(path), fnv1a(view));
  EXPECT_EQ(digest_view(view), fnv1a(view));
  std::remove(path.c_str());
}

TEST_F(TraceHardening, TraceFileOpenMapsAndMatchesInMemoryParse) {
  const std::string path = temp_path("mmap");
  spit(path, image_);
  const TraceFile mapped = TraceFile::open(path);
  const TraceFile in_memory{image_};
  EXPECT_EQ(mapped.digest(), in_memory.digest());
  EXPECT_EQ(mapped.meta().seed, in_memory.meta().seed);
  EXPECT_EQ(mapped.sections().size(), in_memory.sections().size());
  EXPECT_THROW((void)TraceFile::open(temp_path("nonexistent")), TraceError);
  std::remove(path.c_str());
}

/// A trace whose one packet claims a payload_len of 2^33 bytes, with
/// application-data records tiling that whole stream (so replay can
/// synthesize it), written through TraceWriter. `fleet` makes it a
/// one-connection fleet trace.
util::Bytes huge_payload_trace(const std::string& path, bool fleet) {
  constexpr std::uint64_t kPayload = std::uint64_t{1} << 33;
  TraceMeta meta;
  meta.seed = 9;
  meta.scenario = "hardening";
  TraceWriter writer(path, meta);
  if (fleet) writer.begin_fleet(std::vector<FleetConn>(1));
  analysis::PacketObservation p;
  p.time = util::TimePoint{1'000};
  p.dir = net::Direction::kServerToClient;
  p.seq = 1;
  p.payload_len = static_cast<std::size_t>(kPayload);
  p.wire_size = 40 + static_cast<std::int64_t>(kPayload);
  writer.add_packet(p);
  analysis::RecordObservation r;
  r.time = p.time;
  r.dir = p.dir;
  for (std::uint64_t off = 0; off < kPayload;) {
    r.stream_offset = off;
    r.ciphertext_len = static_cast<std::size_t>(
        std::min<std::uint64_t>(0xffff, kPayload - off - 5));
    writer.add_record(r);
    off += 5 + r.ciphertext_len;
  }
  if (!fleet) {
    writer.set_ground_truth(analysis::GroundTruth{});
    writer.set_summary(TraceSummary{});
  }
  writer.finish();
  util::Bytes image = slurp(path);
  std::remove(path.c_str());
  return image;
}

TEST_F(TraceHardening, PayloadLengthBeyondIpv4IsRejectedBeforeAllocating) {
  const util::Bytes single = huge_payload_trace(temp_path("huge"), false);
  EXPECT_THROW((void)replay(TraceFile{single}), TraceError);
  const std::string pcap = temp_path("huge_pcap");
  EXPECT_THROW((void)export_pcap(TraceFile{single}.packets(), pcap), TraceError);
  std::remove(pcap.c_str());

  const util::Bytes fleet = huge_payload_trace(temp_path("huge_fleet"), true);
  EXPECT_THROW((void)demux_fleet(TraceFile{fleet}), TraceError);
}

TEST_F(TraceHardening, PayloadLengthOnePastTheCeilingIsRejected) {
  // The ceiling itself round-trips (TraceRoundTrip.MaxLengthPacketFields).
  const std::string path = temp_path("ceiling");
  {
    TraceWriter writer(path, TraceMeta{});
    analysis::PacketObservation p;
    p.seq = 1;
    p.payload_len = static_cast<std::size_t>(kMaxPacketPayload + 1);
    writer.add_packet(p);
    writer.finish();
  }
  const TraceFile trace = TraceFile::open(path);
  PacketCursor cursor = trace.packets();
  analysis::PacketObservation p;
  EXPECT_THROW((void)cursor.next(p), TraceError);
  std::remove(path.c_str());
}

/// A ground-truth section payload: `fields` as varints, then `tail` zero
/// bytes (every field here fits one byte, so a flags field is its u8).
util::Bytes truth_payload(std::initializer_list<std::uint64_t> fields, std::size_t tail) {
  util::ByteWriter w;
  for (const std::uint64_t v : fields) put_varint(w, v);
  for (std::size_t i = 0; i < tail; ++i) w.u8(0);
  return w.take();
}

TEST_F(TraceHardening, GroundTruthCountsBeyondThePayloadAreRejectedBeforeReserving) {
  // An instance costs >= 5 bytes and an interval >= 2. Counts past what the
  // payload holds must be a TraceError before the decoder reserves for them:
  // the huge ones would otherwise end in bad_alloc or length_error (or an
  // ASan allocation-size report), not in a typed error.
  constexpr std::size_t kTail = 20;
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;
  constexpr std::uint64_t kLarge = std::uint64_t{1} << 40;
  constexpr std::uint64_t kOnePastIntervals = kTail / 2 + 1;
  const auto decode = [](const util::Bytes& payload) {
    return decode_ground_truth(util::BytesView{payload.data(), payload.size()});
  };
  for (const std::uint64_t n : {kHuge, kLarge, kOnePastIntervals}) {
    // Instance count.
    EXPECT_THROW((void)decode(truth_payload({n}, kTail)), TraceError) << n;
    // One instance (object 0, stream 0, flags 0) whose data interval count,
    // then whose header interval count, lies.
    EXPECT_THROW((void)decode(truth_payload({1, 0, 0, 0, n}, kTail)), TraceError) << n;
    EXPECT_THROW((void)decode(truth_payload({1, 0, 0, 0, 0, n}, kTail)), TraceError) << n;
  }
  EXPECT_THROW((void)decode(truth_payload({kTail / 5 + 1}, kTail)), TraceError);
  // At the bound, the same zero bytes decode: kTail / 5 instances, no data.
  const analysis::GroundTruth truth = decode(truth_payload({kTail / 5}, kTail));
  EXPECT_EQ(truth.instances().size(), kTail / 5);
}

}  // namespace
}  // namespace h2priv::capture
