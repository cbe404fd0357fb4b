// Monitor-side stream reassembly and TLS record extraction from observed
// packets (the adversary's tshark view).
#include "h2priv/analysis/monitor_stream.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/sim/rng.hpp"
#include "h2priv/tls/record.hpp"

namespace h2priv::analysis {
namespace {

constexpr std::uint64_t kSecret = 99;

PacketObservation packet_at(std::uint64_t seq, std::size_t payload_len,
                            util::TimePoint t = {}) {
  PacketObservation p;
  p.time = t;
  p.dir = net::Direction::kServerToClient;
  p.seq = seq;
  p.payload_len = payload_len;
  return p;
}

TEST(MonitorStream, ExtractsRecordsFromSinglePacket) {
  tls::SealContext seal(kSecret, 1);
  util::Bytes wire = seal.seal(tls::ContentType::kApplicationData,
                               util::patterned_bytes(100, 1));
  const util::Bytes second =
      seal.seal(tls::ContentType::kHandshake, util::patterned_bytes(40, 2));
  wire.insert(wire.end(), second.begin(), second.end());

  MonitorStream ms(net::Direction::kServerToClient);
  ms.on_packet(packet_at(1, wire.size()), wire, util::TimePoint{5});
  ASSERT_EQ(ms.records().size(), 2u);
  EXPECT_EQ(ms.records()[0].type, tls::ContentType::kApplicationData);
  EXPECT_EQ(ms.records()[0].ciphertext_len, 100 + tls::kAeadOverhead);
  EXPECT_EQ(ms.records()[0].plaintext_estimate(), 100u);
  EXPECT_EQ(ms.records()[1].type, tls::ContentType::kHandshake);
  EXPECT_EQ(ms.records()[0].stream_offset, 0u);
  EXPECT_EQ(ms.records()[1].stream_offset,
            100 + tls::kHeaderBytes + tls::kAeadOverhead);
}

TEST(MonitorStream, RecordSplitAcrossPackets) {
  tls::SealContext seal(kSecret, 1);
  const util::Bytes wire =
      seal.seal(tls::ContentType::kApplicationData, util::patterned_bytes(3'000, 3));
  MonitorStream ms(net::Direction::kServerToClient);
  const std::size_t half = wire.size() / 2;
  ms.on_packet(packet_at(1, half), util::BytesView(wire.data(), half),
               util::TimePoint{1});
  EXPECT_TRUE(ms.records().empty());
  ms.on_packet(packet_at(1 + half, wire.size() - half),
               util::BytesView(wire.data() + half,
                               wire.size() - half), util::TimePoint{2});
  ASSERT_EQ(ms.records().size(), 1u);
  EXPECT_EQ(ms.records()[0].time.ns, 2) << "record completes with the second packet";
}

TEST(MonitorStream, OutOfOrderPacketsReassemble) {
  tls::SealContext seal(kSecret, 1);
  const util::Bytes wire =
      seal.seal(tls::ContentType::kApplicationData, util::patterned_bytes(500, 4));
  MonitorStream ms(net::Direction::kServerToClient);
  const std::size_t half = wire.size() / 2;
  // Second half arrives first.
  ms.on_packet(packet_at(1 + half, wire.size() - half),
               util::BytesView(wire.data() + half,
                               wire.size() - half), util::TimePoint{1});
  EXPECT_TRUE(ms.records().empty());
  ms.on_packet(packet_at(1, half), util::BytesView(wire.data(), half),
               util::TimePoint{2});
  ASSERT_EQ(ms.records().size(), 1u);
}

TEST(MonitorStream, RetransmittedBytesAreDeduplicated) {
  tls::SealContext seal(kSecret, 1);
  const util::Bytes wire =
      seal.seal(tls::ContentType::kApplicationData, util::patterned_bytes(200, 5));
  MonitorStream ms(net::Direction::kServerToClient);
  ms.on_packet(packet_at(1, wire.size()), wire, util::TimePoint{1});
  ms.on_packet(packet_at(1, wire.size()), wire, util::TimePoint{2});  // retransmit
  EXPECT_EQ(ms.records().size(), 1u);
}

TEST(MonitorStream, CallbackFiresPerRecord) {
  tls::SealContext seal(kSecret, 1);
  util::Bytes wire;
  for (int i = 0; i < 3; ++i) {
    const util::Bytes rec = seal.seal(tls::ContentType::kApplicationData,
                                      util::patterned_bytes(
                                          50, static_cast<std::uint32_t>(i)));
    wire.insert(wire.end(), rec.begin(), rec.end());
  }
  MonitorStream ms(net::Direction::kServerToClient);
  int fired = 0;
  ms.on_record = [&](const RecordObservation&) { ++fired; };
  ms.on_packet(packet_at(1, wire.size()), wire, util::TimePoint{1});
  EXPECT_EQ(fired, 3);
}

TEST(MonitorStream, EmptyPayloadIgnored) {
  MonitorStream ms(net::Direction::kServerToClient);
  ms.on_packet(packet_at(1, 0), util::BytesView{}, util::TimePoint{1});
  EXPECT_TRUE(ms.records().empty());
}

TEST(MonitorStream, ManyRecordsAcrossManySegments) {
  tls::SealContext seal(kSecret, 1);
  util::Bytes stream;
  for (int i = 0; i < 40; ++i) {
    const util::Bytes rec = seal.seal(tls::ContentType::kApplicationData,
                                      util::patterned_bytes(
                                          997, static_cast<std::uint32_t>(i)));
    stream.insert(stream.end(), rec.begin(), rec.end());
  }
  MonitorStream ms(net::Direction::kServerToClient);
  // Deliver in MSS-sized packets.
  const std::size_t mss = 1'452;
  std::uint64_t seq = 1;
  for (std::size_t pos = 0; pos < stream.size(); pos += mss) {
    const std::size_t n = std::min(mss, stream.size() - pos);
    ms.on_packet(packet_at(seq, n), util::BytesView(stream.data() + pos, n),
                 util::TimePoint{static_cast<std::int64_t>(pos)});
    seq += n;
  }
  EXPECT_EQ(ms.records().size(), 40u);
  for (const auto& rec : ms.records()) {
    EXPECT_EQ(rec.plaintext_estimate(), 997u);
  }
}

/// A raw record with a `body_len`-byte body: the monitor reads only
/// headers, so it need not authenticate (bodies shorter than a tag too).
util::Bytes raw_record(tls::ContentType type, std::size_t body_len, std::uint32_t tag) {
  util::Bytes rec = {static_cast<std::uint8_t>(type), 3, 3,
                     static_cast<std::uint8_t>(body_len >> 8),
                     static_cast<std::uint8_t>(body_len)};
  const util::Bytes body = util::patterned_bytes(body_len, tag);
  rec.insert(rec.end(), body.begin(), body.end());
  return rec;
}

void expect_same_records(const std::vector<RecordObservation>& got,
                         const std::vector<RecordObservation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << "record " << i;
    EXPECT_EQ(got[i].dir, want[i].dir) << "record " << i;
    EXPECT_EQ(got[i].type, want[i].type) << "record " << i;
    EXPECT_EQ(got[i].ciphertext_len, want[i].ciphertext_len) << "record " << i;
    EXPECT_EQ(got[i].stream_offset, want[i].stream_offset) << "record " << i;
  }
}

/// Reference monitor, the straightforward buffer-and-scan algorithm the
/// header-only scanner must match: every in-order byte is appended to a
/// pending buffer and complete records are scanned off its front.
/// Reassembly is a plain per-byte bitmap (first arrival wins), independent
/// of tcp::Reassembly.
class BufferingReference {
 public:
  explicit BufferingReference(std::size_t stream_len)
      : bytes_(stream_len), have_(stream_len, false) {}

  void on_packet(std::uint64_t seq, util::BytesView payload, util::TimePoint now) {
    const auto from = static_cast<std::size_t>(seq - 1);  // data starts at seq 1
    for (std::size_t i = 0; i < payload.size(); ++i) {
      if (!have_[from + i]) {
        have_[from + i] = true;
        bytes_[from + i] = payload[i];
      }
    }
    const std::size_t before = delivered_;
    while (delivered_ < have_.size() && have_[delivered_]) ++delivered_;
    if (delivered_ == before) return;
    pending_.insert(pending_.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(before),
                    bytes_.begin() + static_cast<std::ptrdiff_t>(delivered_));
    std::size_t pos = 0;
    for (;;) {
      const util::BytesView window(pending_.data() + pos, pending_.size() - pos);
      tls::RecordHeader hdr{};
      if (!tls::parse_header(window, hdr)) break;
      if (window.size() < tls::kHeaderBytes + hdr.ciphertext_len) break;
      RecordObservation rec;
      rec.time = now;
      rec.dir = net::Direction::kServerToClient;
      rec.type = hdr.type;
      rec.ciphertext_len = hdr.ciphertext_len;
      rec.stream_offset = scan_offset_ + pos;
      records.push_back(rec);
      pos += tls::kHeaderBytes + hdr.ciphertext_len;
    }
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(pos));
    scan_offset_ += pos;
  }

  std::vector<RecordObservation> records;

 private:
  util::Bytes bytes_;
  std::vector<bool> have_;
  std::size_t delivered_ = 0;
  util::Bytes pending_;
  std::uint64_t scan_offset_ = 0;
};

TEST(MonitorStream, HeaderSplitAcrossPacketsAtEveryOffset) {
  for (std::size_t cut = 1; cut < tls::kHeaderBytes; ++cut) {
    tls::SealContext seal(kSecret, 1);
    util::Bytes wire =
        seal.seal(tls::ContentType::kApplicationData, util::patterned_bytes(100, 8));
    const std::size_t first_len = wire.size();
    const util::Bytes second =
        seal.seal(tls::ContentType::kHandshake, util::patterned_bytes(40, 9));
    wire.insert(wire.end(), second.begin(), second.end());
    const util::Bytes empty = raw_record(tls::ContentType::kApplicationData, 0, 0);
    wire.insert(wire.end(), empty.begin(), empty.end());

    MonitorStream ms(net::Direction::kServerToClient);
    const std::size_t split = first_len + cut;  // inside the second header
    ms.on_packet(packet_at(1, split), util::BytesView(wire.data(), split),
                 util::TimePoint{1});
    ASSERT_EQ(ms.records().size(), 1u) << "cut " << cut;
    ms.on_packet(packet_at(1 + split, wire.size() - split),
                 util::BytesView(wire.data() + split, wire.size() - split),
                 util::TimePoint{2});
    ASSERT_EQ(ms.records().size(), 3u) << "cut " << cut;
    EXPECT_EQ(ms.records()[1].type, tls::ContentType::kHandshake);
    EXPECT_EQ(ms.records()[1].stream_offset, first_len);
    EXPECT_EQ(ms.records()[1].ciphertext_len, 40 + tls::kAeadOverhead);
    EXPECT_EQ(ms.records()[1].time.ns, 2);
    EXPECT_EQ(ms.records()[2].ciphertext_len, 0u);
    EXPECT_EQ(ms.records()[2].stream_offset, first_len + second.size());
  }
}

TEST(MonitorStream, InvalidContentTypeThrowsWhenItsHeaderCompletes) {
  const util::Bytes bad = {99, 3, 3, 0, 0};
  MonitorStream ms(net::Direction::kServerToClient);
  EXPECT_NO_THROW(ms.on_packet(packet_at(1, 3), util::BytesView(bad.data(), 3),
                               util::TimePoint{1}));
  EXPECT_THROW(ms.on_packet(packet_at(4, 2), util::BytesView(bad.data() + 3, 2),
                            util::TimePoint{2}),
               tls::TlsError);
}

// Property: cut a sealed multi-record stream at random points, add
// duplicates and overlapping copies, reorder locally — the header-only
// scanner emits exactly the records (time, type, length, offset) the
// buffering reference does.
class MonitorStreamProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorStreamProperty, MatchesBufferingReference) {
  sim::Rng rng(GetParam());
  tls::SealContext seal(kSecret, 1);
  util::Bytes stream;
  std::size_t record_count = 0;
  const auto append = [&](const util::Bytes& rec) {
    stream.insert(stream.end(), rec.begin(), rec.end());
    ++record_count;
  };
  constexpr std::size_t kBodyLengths[] = {0, 1, 4, 5, 16'384};
  for (std::uint32_t round = 0; round < 3; ++round) {
    append(seal.seal(tls::ContentType::kHandshake,
                     util::patterned_bytes(
                         static_cast<std::size_t>(rng.uniform_int(1, 600)), round)));
    for (const std::size_t n : kBodyLengths) {
      // Sealed (body n + tag) and raw (body exactly n) records.
      append(seal.seal(tls::ContentType::kApplicationData, util::patterned_bytes(n, round)));
      append(raw_record(rng.chance(0.5) ? tls::ContentType::kApplicationData
                                        : tls::ContentType::kHandshake,
                        n, round));
    }
  }

  struct Piece {
    std::size_t from;
    std::size_t len;
  };
  std::vector<Piece> pieces;
  for (std::size_t at = 0; at < stream.size();) {
    const std::int64_t max_len = rng.chance(0.3) ? 6 : 2'000;
    const auto len = std::min(static_cast<std::size_t>(rng.uniform_int(1, max_len)),
                              stream.size() - at);
    pieces.push_back({at, len});
    at += len;
  }
  const std::size_t base_count = pieces.size();
  for (std::size_t i = 0; i < base_count / 3; ++i) {
    const Piece p = pieces[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(base_count) - 1))];
    if (rng.chance(0.5)) {
      pieces.push_back(p);  // duplicate
    } else {                // overlapping copy reaching into the neighbours
      const std::size_t from = p.from - std::min<std::size_t>(p.from, 7);
      pieces.push_back({from, std::min<std::size_t>(p.len + 20, stream.size() - from)});
    }
  }
  // Reorder locally: the retransmissions land near their originals.
  for (std::size_t i = 0; i + 1 < pieces.size(); ++i) {
    if (rng.chance(0.25)) {
      const std::size_t j = std::min(
          pieces.size() - 1, i + static_cast<std::size_t>(rng.uniform_int(1, 8)));
      std::swap(pieces[i], pieces[j]);
    }
  }

  MonitorStream ms(net::Direction::kServerToClient);
  BufferingReference ref(stream.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const util::BytesView payload(stream.data() + pieces[i].from, pieces[i].len);
    const util::TimePoint now{static_cast<std::int64_t>(i)};
    ms.on_packet(packet_at(1 + pieces[i].from, pieces[i].len), payload, now);
    ref.on_packet(1 + pieces[i].from, payload, now);
  }
  ASSERT_EQ(ref.records.size(), record_count);
  expect_same_records(ms.records(), ref.records);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorStreamProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace h2priv::analysis
