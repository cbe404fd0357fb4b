#include "h2priv/util/range_coder.hpp"

namespace h2priv::util {

namespace {

/// The point a 1 bit pulls its probability toward: p + ((31 - p) >> 5),
/// with an arithmetic shift, equals p - (p >> 5) for every p in [0, 2048).
constexpr std::uint32_t kRcProbFloor = (1u << kRcMoveBits) - 1;

/// `bit` ? `one` : `zero`, without a branch on `bit`. gcc 12 compiles the
/// encoder written with ternaries into a jump, which mispredicts on every
/// high-entropy bit; once `low` and the probability use masks it happens to
/// pick a cmov for `range` too, but nothing holds it to that, so x86-64 gets
/// an explicit cmov and other targets a mask.
[[nodiscard]] inline std::uint32_t select_u32(unsigned bit, std::uint32_t zero,
                                              std::uint32_t one) noexcept {
#if defined(__x86_64__) && defined(__GNUC__)
  __asm__("test %[bit], %[bit]\n\tcmovnz %[one], %[out]"
          : [out] "+r"(zero)
          : [one] "r"(one), [bit] "r"(bit)
          : "cc");
  return zero;
#else
  return zero ^ ((zero ^ one) & (0u - bit));
#endif
}

/// Carry-counting byte-at-a-time emitter. `low_` holds 33 significant bits:
/// the top bit is the pending carry, the next 8 are the byte scheduled for
/// emission, the low 24 overlap the live range. A run of 0xFF bytes is
/// deferred in `cache_size_` until a non-0xFF byte (or a carry) settles it.
class RangeEncoder {
 public:
  explicit RangeEncoder(ByteWriter& out) : out_(out) {}

  /// Codes `bit` (0 or 1) without branching on it: the encoder holds the
  /// bit, but on high-entropy columns a branch on it mispredicts about half
  /// the time. A 0 keeps [low, low + bound) and moves `prob` 1/32 of the way
  /// to 2048; a 1 keeps [low + bound, low + range) and moves it 1/32 of the
  /// way to 31, where the arithmetic shift of the negative distance rounds
  /// exactly as `prob - (prob >> 5)` does. The decoder mirrors the branchy
  /// form, which codes the same bytes.
  void encode_bit(RcProb& prob, unsigned bit) {
    const std::uint32_t bound = (range_ >> kRcProbBits) * prob;
    const std::uint32_t mask = 0u - bit;
    low_ += bound & mask;
    range_ = select_u32(bit, bound, range_ - bound);
    const auto target = static_cast<std::int32_t>(
        (1u << kRcProbBits) ^ (((1u << kRcProbBits) ^ kRcProbFloor) & mask));
    const std::int32_t p = prob;
    prob = static_cast<RcProb>(p + ((target - p) >> kRcMoveBits));
    if (range_ < kRcTopValue) {
      range_ <<= 8;
      shift_low();
    }
  }

  /// Drains the register so the stream holds every byte the decoder will
  /// read — exactly (normalizations + 5) bytes, no more, no fewer. The
  /// trailing drain settles any deferred 0xFF run that the classic 5-byte
  /// flush would leave pending, which is what lets the decoder treat *any*
  /// missing byte as truncation instead of padding with zeros.
  void flush() {
    for (int i = 0; i < 5; ++i) shift_low();
    for (std::uint64_t i = 1; i < cache_size_; ++i) {
      out_.u8(i == 1 ? cache_ : std::uint8_t{0xFF});
    }
  }

 private:
  void shift_low() {
    if (static_cast<std::uint32_t>(low_) < 0xFF000000u ||
        static_cast<std::uint32_t>(low_ >> 32) != 0) {
      const auto carry = static_cast<std::uint8_t>(low_ >> 32);
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
};

class RangeDecoder {
 public:
  explicit RangeDecoder(BytesView comp) : pos_(comp.data()), end_(comp.data() + comp.size()) {
    if (next_byte() != 0) {
      throw std::invalid_argument("range coder stream does not start with 0");
    }
    for (int i = 0; i < 4; ++i) code_ = (code_ << 8) | next_byte();
  }

  unsigned decode_bit(RcProb& prob) {
    const std::uint32_t bound = (range_ >> kRcProbBits) * prob;
    unsigned bit;
    if (code_ < bound) {
      range_ = bound;
      prob = static_cast<RcProb>(prob + (((1u << kRcProbBits) - prob) >> kRcMoveBits));
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      prob = static_cast<RcProb>(prob - (prob >> kRcMoveBits));
      bit = 1;
    }
    if (range_ < kRcTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | next_byte();
    }
    return bit;
  }

  [[nodiscard]] std::size_t consumed(BytesView comp) const noexcept {
    return static_cast<std::size_t>(pos_ - comp.data());
  }

 private:
  std::uint8_t next_byte() {
    if (pos_ == end_) throw OutOfBounds("range coder input truncated");
    return *pos_++;
  }

  const std::uint8_t* pos_;
  const std::uint8_t* end_;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

}  // namespace

std::size_t rc_compress(BytesView raw, RcModel& model, ByteWriter& out) {
  const std::size_t start = out.size();
  RangeEncoder encoder(out);
  unsigned context = 0;
  for (const std::uint8_t byte : raw) {
    RcProb* tree = model.tree(context);
    unsigned node = 1;
    for (int shift = 7; shift >= 0; --shift) {
      const unsigned bit = (byte >> static_cast<unsigned>(shift)) & 1u;
      encoder.encode_bit(tree[node], bit);
      node = (node << 1) | bit;
    }
    context = byte;
  }
  encoder.flush();
  return out.size() - start;
}

std::size_t rc_decompress(BytesView comp, RcModel& model, std::span<std::uint8_t> out) {
  RangeDecoder decoder(comp);
  unsigned context = 0;
  for (std::uint8_t& slot : out) {
    RcProb* tree = model.tree(context);
    unsigned node = 1;
    for (int i = 0; i < 8; ++i) node = (node << 1) | decoder.decode_bit(tree[node]);
    const auto byte = static_cast<std::uint8_t>(node & 0xFFu);
    slot = byte;
    context = byte;
  }
  return decoder.consumed(comp);
}

}  // namespace h2priv::util
