// Golden-trace regression: seeded fig2/table2 experiments must keep every
// packet's wire bytes and every scored field bit-identical across data-path
// refactors (zero-copy buffers, encoder changes, ...).
//
// Expected digests were captured on the deque-SendBuffer / copying wire
// path (pre pooled-buffer rewrite); the pooled path must reproduce them
// exactly. If an *intentional* wire-format change lands, re-capture by
// running this test and pasting the printed actual values.
//
// The wire digests were re-captured once, on purpose, when the TLS record
// layer went word-wide: tag bytes 0-7 became one mix() per record (they
// were a per-byte mix chain), and util::patterned_bytes, which makes every
// object body and handshake flight, became one splitmix64 word per 8 bytes
// (it was one output per byte). Ciphertext for a given plaintext and tag
// bytes 8-15 are unchanged, as is every record, frame and packet length;
// expect_scored and expect_packets did not move.
//
// They were re-captured a second time when sealing and opening became one
// fused pass per record: tag bytes 8-15 became a word polynomial
// (h = h*K + w per 8-byte word, then the body length), where they were a
// per-byte one (h = h*31 + b), so tag bytes 0-7, which mix that value, moved
// with them. Ciphertext bodies, every length, expect_scored and
// expect_packets are unchanged again.
#include "trace_hash.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include <gtest/gtest.h>

namespace h2priv::testing {
namespace {

struct GoldenCase {
  const char* name;
  std::uint64_t seed;
  bool attack;
  long spacing_ms;  // 0 = none (fig2 uses the 50 ms column)
  std::uint64_t expect_wire;
  std::uint64_t expect_scored;
  std::uint64_t expect_packets;
};

// gtest prints a parameter into its ctest name. Without a PrintTo that is
// the struct's raw bytes, `name`'s pointer included, which differ from one
// build to the next.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

// Wire digests re-captured for the word-polynomial tag (see file comment).
constexpr GoldenCase kCases[] = {
    {"fig2_spacing50_seed1000", 1000, false, 50,
     0x3c8fc228aacb9afbull, 0x4a7dbe2272a1ca5aull, 3348},
    {"fig2_spacing50_seed1001", 1001, false, 50,
     0x293baf200de015eeull, 0x84610254b25132ccull, 3532},
    {"table2_attack_seed1000", 1000, true, 0,
     0x453d23f0f297a348ull, 0x6876aa6f9e75ea2cull, 5692},
    {"table2_attack_seed1001", 1001, true, 0,
     0xa7725ca2648e941cull, 0xfa83d05631f1a3caull, 5706},
};

class GoldenTrace : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTrace, WireBytesAndScoredFieldsAreBitIdentical) {
  const GoldenCase& c = GetParam();
  core::RunConfig cfg;
  cfg.seed = c.seed;
  cfg.attack_enabled = c.attack;
  if (c.spacing_ms > 0) cfg.manual_spacing = util::milliseconds(c.spacing_ms);

  const TraceDigest got = hash_run(cfg);
  std::printf("  {\"%s\", %llu, %s, %ld,\n   0x%016" PRIx64 "ull, 0x%016" PRIx64
              "ull, %llu},\n",
              c.name, static_cast<unsigned long long>(c.seed), c.attack ? "tru"
                                                                          "e" : "false",
              c.spacing_ms, got.wire, got.scored,
              static_cast<unsigned long long>(got.packets));

  EXPECT_EQ(got.wire, c.expect_wire) << c.name << ": wire bytes diverged";
  EXPECT_EQ(got.scored, c.expect_scored) << c.name << ": scored metrics diverged";
  EXPECT_EQ(got.packets, c.expect_packets) << c.name << ": packet count diverged";
}

INSTANTIATE_TEST_SUITE_P(Experiments, GoldenTrace, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
                           return std::string(param_info.param.name);
                         });

// Same seed, run twice: the digest itself must be deterministic (guards the
// hasher against accidental address- or time-dependence).
TEST(GoldenTrace, DigestIsDeterministicAcrossRepeats) {
  core::RunConfig cfg;
  cfg.seed = 4242;
  cfg.manual_spacing = util::milliseconds(25);
  const TraceDigest a = hash_run(cfg);
  const TraceDigest b = hash_run(cfg);
  EXPECT_EQ(a.wire, b.wire);
  EXPECT_EQ(a.scored, b.scored);
  EXPECT_EQ(a.packets, b.packets);
}

}  // namespace
}  // namespace h2priv::testing
