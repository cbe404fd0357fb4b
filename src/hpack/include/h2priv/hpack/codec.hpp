// HPACK encoder/decoder (RFC 7541 §6): indexed fields, literals with and
// without incremental indexing, never-indexed literals, dynamic table size
// updates, and Huffman string literals when they shrink the output. The
// encoder emits indexed fields and literals with incremental indexing only;
// the decoder reads every representation a peer may send.
//
// Encoder and decoder each own a dynamic table; one encoder must feed one
// decoder in order (HTTP/2 guarantees this by serializing header blocks).
#pragma once

#include <cstdint>

#include "h2priv/hpack/dynamic_table.hpp"
#include "h2priv/hpack/header.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::hpack {

class HpackError : public std::runtime_error {
 public:
  explicit HpackError(const std::string& what) : std::runtime_error(what) {}
};

class Encoder {
 public:
  explicit Encoder(std::size_t table_capacity = kDefaultDynamicTableCapacity)
      : table_(table_capacity) {}

  /// Encodes one header block.
  [[nodiscard]] util::Bytes encode(const HeaderList& headers);

  /// Emits a dynamic-table size update at the start of the next block.
  void resize_table(std::size_t capacity);

  [[nodiscard]] const DynamicTable& table() const noexcept { return table_; }

 private:
  void encode_one(util::ByteWriter& w, const Header& h);
  static void encode_string(util::ByteWriter& w, std::string_view s);

  DynamicTable table_;
  std::optional<std::size_t> pending_resize_;
};

class Decoder {
 public:
  explicit Decoder(std::size_t table_capacity = kDefaultDynamicTableCapacity)
      : table_(table_capacity) {}

  /// Decodes one header block. Throws HpackError on malformed input.
  [[nodiscard]] HeaderList decode(util::BytesView block);

  /// Upper bound for table-size updates the peer may request
  /// (SETTINGS_HEADER_TABLE_SIZE).
  void set_max_capacity(std::size_t cap) noexcept { max_capacity_ = cap; }

  [[nodiscard]] const DynamicTable& table() const noexcept { return table_; }

 private:
  [[nodiscard]] Header lookup(std::size_t index) const;

  DynamicTable table_;
  std::size_t max_capacity_ = kDefaultDynamicTableCapacity;
};

}  // namespace h2priv::hpack
