// Read-only memory-mapped file.
//
// The corpus-scale offline pipeline opens hundreds of thousands of .h2t
// traces; mmap gives each reader a zero-copy view of the whole image (the
// kernel pages sections in on demand, so a scorer that only touches the
// records sections never faults the packet stream in). The file maps or
// open() fails: there is no buffered second reader.
#pragma once

#include <cstdint>
#include <string>

#include "h2priv/util/bytes.hpp"

namespace h2priv::util {

class MappedFile {
 public:
  /// Maps `path` read-only (an empty file gives an empty view). Throws
  /// std::runtime_error when the file cannot be opened, sized or mapped.
  [[nodiscard]] static MappedFile open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& o) noexcept;
  MappedFile& operator=(MappedFile&& o) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] BytesView view() const noexcept { return {mapped_, size_}; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  const std::uint8_t* mapped_ = nullptr;  // nullptr while empty
  std::size_t size_ = 0;
};

}  // namespace h2priv::util
