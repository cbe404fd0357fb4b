// util::MappedFile: the zero-copy file view the corpus readers sit on.
// The mmap path and the H2PRIV_NO_MMAP buffered fallback must expose
// byte-identical views, including the empty-file and missing-file edges.
#include "h2priv/util/mapped_file.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "scratch_path.hpp"

namespace h2priv::util {
namespace {

std::string temp_path(const char* name) {
  return testing::scratch_path(std::string("mapped_file_") + name + ".bin").string();
}

/// A scratch file holding `content`, removed when it goes out of scope.
/// Declared before the MappedFile over it, so the view is gone first.
class ScratchFile {
 public:
  ScratchFile(const char* name, const Bytes& content) : path_(temp_path(name)) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(content.data()),
              static_cast<std::streamsize>(content.size()));
    EXPECT_TRUE(out.good()) << path_;
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

Bytes patterned(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 8));
  }
  return b;
}

/// RAII toggle for the H2PRIV_NO_MMAP escape hatch.
class NoMmapGuard {
 public:
  NoMmapGuard() { ::setenv("H2PRIV_NO_MMAP", "1", 1); }
  ~NoMmapGuard() { ::unsetenv("H2PRIV_NO_MMAP"); }
  NoMmapGuard(const NoMmapGuard&) = delete;
  NoMmapGuard& operator=(const NoMmapGuard&) = delete;
};

TEST(MappedFile, ViewMatchesFileBytes) {
  const Bytes content = patterned(12'345);
  const ScratchFile file("basic", content);

  const MappedFile f = MappedFile::open(file.path());
  ASSERT_EQ(f.size(), content.size());
  const BytesView v = f.view();
  EXPECT_TRUE(std::equal(v.begin(), v.end(), content.begin()));
}

TEST(MappedFile, FallbackViewIsIdenticalToMapped) {
  // Larger than one 64 KiB chunk so the pread loop takes several laps.
  const Bytes content = patterned(3 * kFileChunkBytes + 17);
  const ScratchFile file("fallback", content);

  const MappedFile mapped = MappedFile::open(file.path());
  NoMmapGuard guard;
  const MappedFile buffered = MappedFile::open(file.path());
  EXPECT_FALSE(buffered.is_mapped());
  ASSERT_EQ(mapped.size(), buffered.size());
  const BytesView a = mapped.view();
  const BytesView b = buffered.view();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  EXPECT_TRUE(std::equal(a.begin(), a.end(), content.begin()));
}

TEST(MappedFile, EmptyFileGivesEmptyView) {
  const ScratchFile file("empty", {});
  const MappedFile f = MappedFile::open(file.path());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_TRUE(f.view().empty());
}

TEST(MappedFile, MissingFileThrows) {
  EXPECT_THROW((void)MappedFile::open(temp_path("does_not_exist_xyz")),
               std::runtime_error);
}

TEST(MappedFile, MoveTransfersTheView) {
  const Bytes content = patterned(4'096);
  const ScratchFile file("move", content);

  MappedFile a = MappedFile::open(file.path());
  const MappedFile b = std::move(a);
  ASSERT_EQ(b.size(), content.size());
  const BytesView v = b.view();
  EXPECT_TRUE(std::equal(v.begin(), v.end(), content.begin()));
}

}  // namespace
}  // namespace h2priv::util
