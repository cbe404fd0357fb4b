// Round-trip and robustness properties of the adaptive range coder that
// backs .h2t v2 block compression. The codec must be exact (every byte
// sequence round-trips), deterministic (same input, same coded bytes), and
// hostile-input safe (truncated or garbage streams throw, never over-read).
// The branch-free encoder must also code every input to the bytes of the
// branchy reference kept here.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/sim/rng.hpp"
#include "h2priv/util/range_coder.hpp"

using namespace h2priv;
using util::Bytes;
using util::ByteWriter;
using util::RcModel;

namespace {

Bytes compress(const Bytes& raw, RcModel& model) {
  model.reset();
  ByteWriter out;
  const std::size_t n = util::rc_compress(raw, model, out);
  Bytes coded = out.take();
  EXPECT_EQ(n, coded.size());
  return coded;
}

Bytes decompress(const Bytes& coded, std::size_t raw_size, RcModel& model) {
  model.reset();
  Bytes out(raw_size);
  const std::size_t consumed = util::rc_decompress(coded, model, out);
  // The encoder emits exactly the bytes the decoder needs: a correct stream
  // is consumed in full, which is what lets the block envelope treat any
  // length mismatch as corruption.
  EXPECT_EQ(consumed, coded.size());
  return out;
}

void expect_round_trip(const Bytes& raw) {
  RcModel model;
  const Bytes coded = compress(raw, model);
  EXPECT_EQ(decompress(coded, raw.size(), model), raw);
}

}  // namespace

TEST(RangeCoder, RoundTripsEdgeCasePayloads) {
  expect_round_trip({});
  expect_round_trip({0x00});
  expect_round_trip({0xFF});
  expect_round_trip(Bytes(3, 0xAB));
  expect_round_trip(Bytes(65536, 0x00));
  expect_round_trip(Bytes(65536, 0xFF));
  Bytes ramp(4096);
  std::iota(ramp.begin(), ramp.end(), std::uint8_t{0});
  expect_round_trip(ramp);
}

TEST(RangeCoder, RoundTripsRandomPayloadsOfManySizes) {
  sim::Rng rng(0x5EED);
  RcModel model;
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{64},
        std::size_t{1000}, std::size_t{65536}, std::size_t{100000}}) {
    Bytes raw(size);
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next());
    const Bytes coded = compress(raw, model);
    EXPECT_EQ(decompress(coded, raw.size(), model), raw) << "size " << size;
  }
}

TEST(RangeCoder, RoundTripsAdversarialPatterns) {
  sim::Rng rng(7);
  // Long 0xFF runs stress the encoder's carry/cache path; alternating and
  // near-boundary patterns stress renormalization.
  Bytes ff_run(10000, 0xFF);
  ff_run[5000] = 0x00;
  expect_round_trip(ff_run);
  Bytes alternating(8192);
  for (std::size_t i = 0; i < alternating.size(); ++i) {
    alternating[i] = (i % 2 == 0) ? 0xFF : 0x00;
  }
  expect_round_trip(alternating);
  // Varint-like data: what the codec actually sees from the trace writer.
  Bytes varintish;
  for (int i = 0; i < 20000; ++i) {
    varintish.push_back(static_cast<std::uint8_t>(0x80 | (rng.next() & 0x3F)));
    varintish.push_back(static_cast<std::uint8_t>(rng.next() & 0x7F));
  }
  expect_round_trip(varintish);
}

TEST(RangeCoder, CompressesRedundantDataAndIsDeterministic) {
  RcModel model;
  Bytes redundant;
  sim::Rng rng(99);
  for (int i = 0; i < 8000; ++i) {
    redundant.push_back(static_cast<std::uint8_t>(rng.next() % 4));
  }
  const Bytes first = compress(redundant, model);
  const Bytes second = compress(redundant, model);
  EXPECT_EQ(first, second);
  EXPECT_LT(first.size(), redundant.size() / 2);
}

TEST(RangeCoder, NoCodedByteCarriesMoreThanTheExpansionBound) {
  // The most compressible block there is, one byte value repeated, at the
  // largest block size the .h2t reader accepts (4 MiB): it must still code
  // under kRcMaxExpansion raw bytes per coded byte, the bound the reader
  // enforces on every block an index declares.
  RcModel model;
  for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    const Bytes raw(std::size_t{4} << 20, value);
    const Bytes coded = compress(raw, model);
    EXPECT_LT(raw.size(), util::kRcMaxExpansion * coded.size()) << int{value};
    EXPECT_GT(raw.size(), (util::kRcMaxExpansion - 1) * coded.size()) << int{value};
    EXPECT_EQ(decompress(coded, raw.size(), model), raw);
  }
}

TEST(RangeCoder, IncompressibleDataExpandsOnlySlightly) {
  sim::Rng rng(1234);
  RcModel model;
  Bytes raw(65536);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next());
  const Bytes coded = compress(raw, model);
  // Random bytes cannot compress; the coded form must stay within a small
  // constant overhead so the stored-raw fallback threshold is meaningful.
  EXPECT_GT(coded.size(), raw.size() * 99 / 100);
  EXPECT_LT(coded.size(), raw.size() + raw.size() / 16 + 64);
  EXPECT_EQ(decompress(coded, raw.size(), model), raw);
}

TEST(RangeCoder, TruncatedStreamThrowsNeverOverReads) {
  sim::Rng rng(42);
  RcModel model;
  Bytes raw(5000);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next() % 16);
  const Bytes coded = compress(raw, model);
  ASSERT_GT(coded.size(), 8u);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                                 coded.size() / 2, coded.size() - 1}) {
    const Bytes cut(coded.begin(), coded.begin() + static_cast<long>(keep));
    model.reset();
    Bytes out(raw.size());
    EXPECT_THROW((void)util::rc_decompress(cut, model, out), util::OutOfBounds)
        << "kept " << keep;
  }
}

TEST(RangeCoder, GarbageLeadByteIsRejected) {
  RcModel model;
  Bytes bogus{0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  Bytes out(16);
  EXPECT_THROW((void)util::rc_decompress(bogus, model, out), std::invalid_argument);
}

TEST(RangeCoder, DecodeWithWrongDeclaredSizeStaysBounded) {
  sim::Rng rng(8);
  RcModel model;
  Bytes raw(1000);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next() % 8);
  const Bytes coded = compress(raw, model);
  // Asking for more bytes than were encoded must hit the end of the coded
  // view and throw — the decoder can never fabricate output past the stream.
  model.reset();
  Bytes big(raw.size() + 4096);
  EXPECT_THROW((void)util::rc_decompress(coded, model, big), util::OutOfBounds);
  // Asking for fewer is well-defined (a prefix) and must not over-consume.
  model.reset();
  Bytes small(100);
  const std::size_t consumed = util::rc_decompress(coded, model, small);
  EXPECT_LE(consumed, coded.size());
  EXPECT_TRUE(std::equal(small.begin(), small.end(), raw.begin()));
}

TEST(RangeCoder, ResetModelCodesLikeAFreshOne) {
  // reset() is lazy (each context tree refills on its first use in a block),
  // so a reused model must code every block exactly as a fresh one would —
  // including contexts the previous block touched and this one does not.
  sim::Rng rng(17);
  Bytes every_context(8192);
  for (auto& b : every_context) b = static_cast<std::uint8_t>(rng.next());
  Bytes few_contexts(3000);
  for (auto& b : few_contexts) b = static_cast<std::uint8_t>(rng.next() % 4);

  RcModel reused;
  for (int round = 0; round < 3; ++round) {
    for (const Bytes* raw : {&every_context, &few_contexts}) {
      RcModel fresh;
      const Bytes want = compress(*raw, fresh);
      EXPECT_EQ(compress(*raw, reused), want) << "round " << round;
      EXPECT_EQ(decompress(want, raw->size(), reused), *raw) << "round " << round;
    }
  }
}

namespace {

/// The encoder as first written: one branch per coded bit. It defines the
/// coded bytes of every .h2t v2 block. It also records the longest run of
/// deferred 0xFF bytes that a carry settled, so a test can show it drove
/// that path.
class ReferenceEncoder {
 public:
  explicit ReferenceEncoder(ByteWriter& out) : out_(out) {}

  void encode_bit(util::RcProb& prob, unsigned bit) {
    const std::uint32_t bound = (range_ >> util::kRcProbBits) * prob;
    if (bit == 0) {
      range_ = bound;
      prob = static_cast<util::RcProb>(
          prob + (((1u << util::kRcProbBits) - prob) >> util::kRcMoveBits));
    } else {
      low_ += bound;
      range_ -= bound;
      prob = static_cast<util::RcProb>(prob - (prob >> util::kRcMoveBits));
    }
    if (range_ < util::kRcTopValue) {
      range_ <<= 8;
      shift_low();
    }
  }

  void flush() {
    for (int i = 0; i < 5; ++i) shift_low();
    for (std::uint64_t i = 1; i < cache_size_; ++i) {
      out_.u8(i == 1 ? cache_ : std::uint8_t{0xFF});
    }
  }

  [[nodiscard]] std::uint64_t longest_carried_run() const noexcept {
    return longest_carried_run_;
  }

 private:
  void shift_low() {
    if (static_cast<std::uint32_t>(low_) < 0xFF000000u ||
        static_cast<std::uint32_t>(low_ >> 32) != 0) {
      const auto carry = static_cast<std::uint8_t>(low_ >> 32);
      if (carry != 0) longest_carried_run_ = std::max(longest_carried_run_, cache_size_);
      std::uint8_t pending = cache_;
      do {
        out_.u8(static_cast<std::uint8_t>(pending + carry));
        pending = 0xFF;
      } while (--cache_size_ != 0);
      cache_ = static_cast<std::uint8_t>(low_ >> 24);
    }
    ++cache_size_;
    low_ = (low_ & 0x00FFFFFFu) << 8;
  }

  ByteWriter& out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
  std::uint64_t longest_carried_run_ = 0;
};

/// rc_compress's byte loop over the reference encoder, from a fresh model.
Bytes reference_compress(const Bytes& raw, std::uint64_t* longest_carried_run = nullptr) {
  RcModel model;
  ByteWriter out;
  ReferenceEncoder encoder(out);
  unsigned context = 0;
  for (const std::uint8_t byte : raw) {
    util::RcProb* tree = model.tree(context);
    unsigned node = 1;
    for (int shift = 7; shift >= 0; --shift) {
      const unsigned bit = (byte >> static_cast<unsigned>(shift)) & 1u;
      encoder.encode_bit(tree[node], bit);
      node = (node << 1) | bit;
    }
    context = byte;
  }
  encoder.flush();
  if (longest_carried_run != nullptr) {
    *longest_carried_run = encoder.longest_carried_run();
  }
  return out.take();
}

void expect_reference_bytes(const Bytes& raw, const std::string& what) {
  RcModel model;
  EXPECT_EQ(compress(raw, model), reference_compress(raw)) << what;
}

}  // namespace

TEST(RangeCoder, EncodesLikeTheBranchyReference) {
  expect_reference_bytes({}, "empty");
  expect_reference_bytes({0x5A}, "one byte");
  expect_reference_bytes(Bytes(65536, 0x00), "64 KiB of 0x00");
  expect_reference_bytes(Bytes(65536, 0xFF), "64 KiB of 0xFF");
  Bytes alternating(65536);
  for (std::size_t i = 0; i < alternating.size(); ++i) {
    alternating[i] = (i % 2 == 0) ? 0x55 : 0xAA;
  }
  expect_reference_bytes(alternating, "64 KiB alternating");
  sim::Rng rng(0xC0DE);
  for (const std::size_t size : {std::size_t{3}, std::size_t{4096}, std::size_t{65536}}) {
    Bytes raw(size);
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next());
    expect_reference_bytes(raw, "random " + std::to_string(size));
  }
}

TEST(RangeCoder, LongCarriedFFRunEncodesLikeTheReference) {
  // Decoding a chosen coded stream yields raw bytes whose coding reproduces
  // that stream. Here the encoder makes the chosen 0x43 and forty 0x00 bytes
  // as 0x42 and forty deferred 0xFF bytes that one carry settles (the
  // reference records it), the longest path through shift_low.
  sim::Rng rng(31);
  Bytes chosen{0x00};
  for (int i = 0; i < 200; ++i) chosen.push_back(static_cast<std::uint8_t>(rng.next()));
  chosen.push_back(0x43);
  chosen.insert(chosen.end(), 40, 0x00);
  for (int i = 0; i < 200; ++i) chosen.push_back(static_cast<std::uint8_t>(rng.next()));
  RcModel model;
  Bytes raw(300);
  (void)util::rc_decompress(chosen, model, raw);

  std::uint64_t longest = 0;
  const Bytes want = reference_compress(raw, &longest);
  EXPECT_GE(longest, 40u);
  EXPECT_EQ(compress(raw, model), want);
}

TEST(RangeCoder, EveryCodedGoldenBlockEncodesToItsStoredBytes) {
  // Each coded block, decoded back to raw, must code to the bytes on disk
  // with both encoders.
  const std::string dir = std::string(H2PRIV_TEST_DATA_DIR) + "/corpus";
  const capture::Manifest manifest = capture::read_manifest(dir + "/manifest.txt");
  std::size_t blocks = 0;
  RcModel model;
  for (const capture::ManifestEntry& e : manifest.entries) {
    const capture::TraceFile trace = capture::TraceFile::open(dir + "/" + e.file);
    for (const capture::SectionInfo& s : trace.sections()) {
      if (!s.compressed) continue;
      const util::BytesView payload = trace.section_bytes(s.id);
      for (const capture::BlockInfo& b : trace.section_blocks(s.id)->blocks) {
        if (b.stored) continue;
        const util::BytesView disk =
            payload.subspan(static_cast<std::size_t>(b.disk_offset),
                            static_cast<std::size_t>(b.comp_length));
        const Bytes coded(disk.begin(), disk.end());
        const auto raw_length = static_cast<std::size_t>(b.raw_length);
        const Bytes raw = decompress(coded, raw_length, model);
        const std::string where = e.file + " section " + std::to_string(int(s.id));
        EXPECT_EQ(compress(raw, model), coded) << where;
        EXPECT_EQ(reference_compress(raw), coded) << where;
        ++blocks;
      }
    }
  }
  EXPECT_GT(blocks, 0u);
}
