// Scratch-file paths for tests: `name` inside GoogleTest's TempDir().
//
// Some GoogleTest releases return TEST_TMPDIR / TMPDIR verbatim, with no
// trailing slash, so gluing a file name on with `+` lands the file beside
// the directory instead of in it. Every test joins through here, with
// std::filesystem, so TMPDIR works with or without the slash.
#pragma once

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace h2priv::testing {

[[nodiscard]] inline std::filesystem::path scratch_path(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) / name;
}

}  // namespace h2priv::testing
