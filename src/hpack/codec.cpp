#include "h2priv/hpack/codec.hpp"

#include "h2priv/hpack/huffman.hpp"
#include "h2priv/hpack/integer.hpp"
#include "h2priv/hpack/static_table.hpp"
#include "h2priv/util/narrow.hpp"

namespace h2priv::hpack {

namespace {
// First-byte patterns (RFC 7541 §6).
constexpr std::uint8_t kIndexed = 0x80;            // 1xxxxxxx, 7-bit prefix
constexpr std::uint8_t kLiteralIncremental = 0x40; // 01xxxxxx, 6-bit prefix
constexpr std::uint8_t kTableSizeUpdate = 0x20;    // 001xxxxx, 5-bit prefix
// Literal without indexing (0000xxxx) and never-indexed (0001xxxx), both with
// a 4-bit prefix: only a peer sends them; the decoder reads them alike.
}  // namespace

void Encoder::resize_table(std::size_t capacity) {
  pending_resize_ = capacity;
  table_.set_capacity(capacity);
}

void Encoder::encode_string(util::ByteWriter& w, std::string_view s) {
  const std::size_t huff_len = huffman_encoded_size(s);
  if (huff_len < s.size()) {
    encode_integer(w, 0x80, 7, huff_len);
    const util::Bytes encoded = huffman_encode(s);
    w.bytes(encoded);
  } else {
    encode_integer(w, 0x00, 7, s.size());
    w.bytes(s);
  }
}

util::Bytes Encoder::encode(const HeaderList& headers) {
  util::ByteWriter w;
  if (pending_resize_) {
    encode_integer(w, kTableSizeUpdate, 5, *pending_resize_);
    pending_resize_.reset();
  }
  for (const Header& h : headers) encode_one(w, h);
  return w.take();
}

void Encoder::encode_one(util::ByteWriter& w, const Header& h) {
  // Full match: indexed representation.
  if (const auto idx = static_find(h.name, h.value)) {
    encode_integer(w, kIndexed, 7, *idx);
    return;
  }
  if (const auto idx = table_.find(h.name, h.value)) {
    encode_integer(w, kIndexed, 7, kStaticTableSize + *idx);
    return;
  }

  // Literal with incremental indexing; prefer an indexed name.
  std::optional<std::size_t> name_idx = static_find_name(h.name);
  if (!name_idx) {
    if (const auto dyn = table_.find_name(h.name)) name_idx = kStaticTableSize + *dyn;
  }
  if (name_idx) {
    encode_integer(w, kLiteralIncremental, 6, *name_idx);
  } else {
    encode_integer(w, kLiteralIncremental, 6, 0);
    encode_string(w, h.name);
  }
  encode_string(w, h.value);
  table_.insert(h);
}

Header Decoder::lookup(std::size_t index) const {
  if (index == 0) throw HpackError("indexed field with index 0");
  if (index <= kStaticTableSize) return static_entry(index);
  const std::size_t dyn = index - kStaticTableSize;
  if (dyn > table_.entry_count()) {
    throw HpackError("dynamic table index " + std::to_string(index) + " out of range");
  }
  return table_.at(dyn);
}

HeaderList Decoder::decode(util::BytesView block) {
  HeaderList out;
  util::ByteReader r(block);
  bool seen_field = false;

  const auto read_string = [&r]() -> std::string {
    if (r.remaining() == 0) throw HpackError("truncated string literal");
    const bool huffman = (r.peek_u8() & 0x80) != 0;
    const std::uint64_t len = decode_integer(r, 7);
    if (len > r.remaining()) throw HpackError("string literal longer than block");
    const util::BytesView raw = r.bytes(static_cast<std::size_t>(len));
    if (huffman) return huffman_decode(raw);
    return std::string(raw.begin(), raw.end());
  };

  while (!r.done()) {
    const std::uint8_t first = r.peek_u8();
    if (first & kIndexed) {
      const std::uint64_t idx = decode_integer(r, 7);
      out.push_back(lookup(static_cast<std::size_t>(idx)));
      seen_field = true;
    } else if (first & kLiteralIncremental) {
      const std::uint64_t name_idx = decode_integer(r, 6);
      Header h;
      h.name = name_idx ? lookup(static_cast<std::size_t>(name_idx)).name : read_string();
      h.value = read_string();
      table_.insert(h);
      out.push_back(std::move(h));
      seen_field = true;
    } else if (first & kTableSizeUpdate) {
      if (seen_field) throw HpackError("table size update after header field");
      const std::uint64_t cap = decode_integer(r, 5);
      if (cap > max_capacity_) throw HpackError("table size update above settings limit");
      table_.set_capacity(static_cast<std::size_t>(cap));
    } else {  // literal without indexing (0x00) or never-indexed (0x10)
      const std::uint64_t name_idx = decode_integer(r, 4);
      Header h;
      h.name = name_idx ? lookup(static_cast<std::size_t>(name_idx)).name : read_string();
      h.value = read_string();
      out.push_back(std::move(h));
      seen_field = true;
    }
  }
  return out;
}

}  // namespace h2priv::hpack
