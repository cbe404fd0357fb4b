// Adaptive binary range coder — the entropy stage of the .h2t v2 block codec.
//
// The coder is the classic carry-counting binary range coder (the LZMA/PAQ
// lineage): a 32-bit range register split by an 11-bit adaptive probability
// per binary decision, renormalized a byte at a time. Bytes are coded
// through a bit-tree of 255 probabilities (one per internal node of the
// 8-level binary tree), and the tree is selected by the previous byte of
// the same stream — an order-1 byte context. On the per-field delta streams
// the trace writer feeds it (tag bytes, time deltas, seq/ack/len deltas),
// the previous byte is a strong predictor, and the model adapts within a
// block; no tables are stored.
//
// Determinism: encoding is a pure function of (input bytes, model state) and
// decoding of (coded bytes, model state). All arithmetic is fixed-width
// unsigned integer — no floats, no ambient state — so corpora compress
// byte-identically on every platform and at any --jobs count.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "h2priv/util/bytes.hpp"

namespace h2priv::util {

/// Probability that the next bit is 0, in 1/2048ths (11-bit fixed point).
using RcProb = std::uint16_t;
inline constexpr unsigned kRcProbBits = 11;
inline constexpr RcProb kRcProbInit = 1u << (kRcProbBits - 1);
/// Adaptation rate: each coded bit moves its probability 1/32 of the way
/// toward the observed outcome.
inline constexpr unsigned kRcMoveBits = 5;
/// Renormalization threshold: emit/consume one byte whenever the range
/// drops below 2^24.
inline constexpr std::uint32_t kRcTopValue = 1u << 24;
/// Most raw bytes one coded byte can carry, rounded up. A probability moves
/// 1/32 of its distance to the observed outcome, rounded down, so it never
/// comes within 31/2048 of either end: the likelier outcome of a decision
/// has probability at most 2017/2048 and costs at least 0.022 bits, eight
/// decisions per byte, so one coded byte carries at most 45.45 raw bytes.
/// The .h2t reader rejects a block that claims more, which bounds every size
/// a block index declares by the file's size.
inline constexpr std::uint64_t kRcMaxExpansion = 46;

/// Order-1 byte model: 256 bit-trees of 256 probabilities (indices 1..255
/// are the tree nodes), selected by the previous byte. ~128 KiB; reset()
/// restores the uniform prior, which callers do at every block boundary so
/// blocks stay independently decodable.
///
/// The reset is lazy: each tree carries the epoch it was last filled for,
/// reset() starts a new epoch, and tree() refills a stale tree (512 B) on
/// its first use in the block. A block that touches a few contexts pays for
/// those, not for all 256; the coded bytes are the same as with a full fill.
/// A new model starts with every tree stale, so constructing one fills
/// nothing either.
class RcModel {
 public:
  RcModel() : probs_(std::make_unique_for_overwrite<RcProb[]>(kContexts * kTreeSize)) {}

  void reset() {
    if (++epoch_ == 0) {  // wrapped: old stamps would look current again
      std::fill_n(probs_.get(), kContexts * kTreeSize, kRcProbInit);
      epochs_.fill(0);
    }
  }

  [[nodiscard]] RcProb* tree(unsigned context) noexcept {
    RcProb* t = probs_.get() + static_cast<std::size_t>(context) * kTreeSize;
    if (epochs_[context] != epoch_) {
      std::fill(t, t + kTreeSize, kRcProbInit);
      epochs_[context] = epoch_;
    }
    return t;
  }

 private:
  static constexpr std::size_t kContexts = 256;
  static constexpr std::size_t kTreeSize = 256;
  std::unique_ptr<RcProb[]> probs_;  // uninitialized until a tree is filled
  std::array<std::uint32_t, kContexts> epochs_{};  // per tree: epoch last filled for
  std::uint32_t epoch_ = 1;  // no tree has been filled for it yet
};

/// Encodes `raw` with `model` (caller resets the model per block) and
/// appends the coded bytes to `out`. Returns the number of bytes appended.
/// Coded output can exceed the input for incompressible data — callers
/// should fall back to storing such blocks raw.
std::size_t rc_compress(BytesView raw, RcModel& model, ByteWriter& out);

/// Decodes exactly `out.size()` bytes from `comp` into `out` using `model`
/// (reset by the caller, mirroring the encoder). Returns the number of coded
/// bytes consumed (<= comp.size(); the encoder's flush tail may not all be
/// read). Throws util::OutOfBounds if `comp` runs out before `out` is full —
/// truncated or size-lying input never reads past the view or writes past
/// `out`.
std::size_t rc_decompress(BytesView comp, RcModel& model,
                          std::span<std::uint8_t> out);

}  // namespace h2priv::util
