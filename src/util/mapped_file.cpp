#include "h2priv/util/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

namespace h2priv::util {

MappedFile MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) throw std::runtime_error("cannot open file: " + path);
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat file: " + path);
  }
  MappedFile f;
  f.size_ = static_cast<std::size_t>(st.st_size);
  if (f.size_ > 0) {  // an empty file has nothing to map
    void* p = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {  // NOLINT(performance-no-int-to-ptr)
      ::close(fd);
      throw std::runtime_error("cannot map file: " + path);
    }
    f.mapped_ = static_cast<const std::uint8_t*>(p);
  }
  ::close(fd);
  return f;
}

MappedFile::~MappedFile() {
  if (mapped_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(mapped_), size_);  // NOLINT(cppcoreguidelines-pro-type-const-cast)
  }
}

MappedFile::MappedFile(MappedFile&& o) noexcept
    : mapped_(std::exchange(o.mapped_, nullptr)), size_(std::exchange(o.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& o) noexcept {
  if (this != &o) {
    std::swap(mapped_, o.mapped_);
    std::swap(size_, o.size_);
  }
  return *this;  // o's destructor unmaps whatever we held before
}

}  // namespace h2priv::util
