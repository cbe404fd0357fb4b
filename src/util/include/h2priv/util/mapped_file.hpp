// Read-only memory-mapped file with a portable buffered fallback.
//
// The corpus-scale offline pipeline opens hundreds of thousands of .h2t
// traces; mmap gives each reader a zero-copy view of the whole image (the
// kernel pages sections in on demand, so a scorer that only touches the
// records sections never faults the packet stream in). When mmap is
// unavailable — non-POSIX platform, exotic filesystem, or the
// H2PRIV_NO_MMAP=1 escape hatch — the file is read into an owned buffer in
// fixed 64 KiB chunks instead; the view() contract is identical either way.
#pragma once

#include <cstdint>
#include <string>

#include "h2priv/util/bytes.hpp"

namespace h2priv::util {

/// Chunk size of the buffered fallback reader below: the largest single
/// read it asks the OS for.
inline constexpr std::size_t kFileChunkBytes = 64 * 1024;

class MappedFile {
 public:
  /// Maps `path` read-only; falls back to chunked buffered reads when mmap
  /// is unavailable or refused. Throws std::runtime_error on I/O failure.
  [[nodiscard]] static MappedFile open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& o) noexcept;
  MappedFile& operator=(MappedFile&& o) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] BytesView view() const noexcept {
    return mapped_ != nullptr ? BytesView{mapped_, size_}
                              : BytesView{fallback_.data(), fallback_.size()};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// True when view() aliases kernel-managed pages (zero-copy path).
  [[nodiscard]] bool is_mapped() const noexcept { return mapped_ != nullptr; }

 private:
  const std::uint8_t* mapped_ = nullptr;  // nullptr => fallback buffer owns
  std::size_t size_ = 0;
  Bytes fallback_;
};

}  // namespace h2priv::util
