// Defense layer (DESIGN.md §11): PADDING edge cases on the wire, padded
// delivery under flow control, TLS record quantization round trips plus
// hostile inputs, the defense=none identity (wire bytes and verdicts
// bit-identical to a default-constructed config), defended capture →
// replay fidelity, and the evaluation grid's jobs-invariance contract.
#include "h2priv/defense/defense.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "h2priv/capture/record.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/defense/grid.hpp"
#include "h2priv/h2/connection.hpp"
#include "h2priv/tls/record.hpp"
#include "scratch_path.hpp"
#include "trace_hash.hpp"

namespace h2priv {
namespace {

// --- h2 PADDING edge cases (RFC 7540 §6.1) ---------------------------------

util::Bytes raw_frame(std::uint32_t length, std::uint8_t flags,
                      const util::Bytes& payload) {
  util::Bytes wire;
  wire.push_back(static_cast<std::uint8_t>(length >> 16));
  wire.push_back(static_cast<std::uint8_t>(length >> 8));
  wire.push_back(static_cast<std::uint8_t>(length));
  wire.push_back(0x0);  // DATA
  wire.push_back(flags);
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(1);  // stream 1
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

TEST(DefensePadding, PaddedFlagWithZeroPadLength) {
  // PADDED with pad_length 0: one prefix byte, no trailer — legal, and the
  // body must come back intact.
  util::Bytes payload{0x00};  // pad_length = 0
  const util::Bytes body = util::patterned_bytes(10, 1);
  payload.insert(payload.end(), body.begin(), body.end());
  h2::FrameDecoder dec;
  dec.feed(raw_frame(11, h2::kFlagPadded, payload));
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  const auto& data = std::get<h2::DataFrame>(*frame);
  EXPECT_EQ(data.data, body);
  EXPECT_EQ(data.pad_length, 0);
}

TEST(DefensePadding, MaxPadRoundTrip) {
  h2::DataFrame f;
  f.stream_id = 1;
  f.data = util::patterned_bytes(64, 2);
  f.pad_length = 255;
  const util::Bytes wire = h2::encode_frame(f);
  EXPECT_EQ(wire.size(), h2::kFrameHeaderBytes + 1 + 64 + 255);
  h2::FrameDecoder dec;
  dec.feed(wire);
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  const auto& data = std::get<h2::DataFrame>(*frame);
  EXPECT_EQ(data.data, f.data);
  EXPECT_EQ(data.pad_length, 255);
}

TEST(DefensePadding, AllPadNoBodyRoundTrip) {
  // The whole payload is padding (empty body): length = 1 + pad exactly.
  h2::DataFrame f;
  f.stream_id = 1;
  f.pad_length = 255;
  f.end_stream = true;
  h2::FrameDecoder dec;
  dec.feed(h2::encode_frame(f));
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  const auto& data = std::get<h2::DataFrame>(*frame);
  EXPECT_TRUE(data.data.empty());
  EXPECT_EQ(data.pad_length, 255);
  EXPECT_TRUE(data.end_stream);
}

TEST(DefensePadding, DeclaredPadReachingFrameLengthThrows) {
  // pad_length == frame length: the pad-length byte plus the declared pad
  // exceed the payload — hostile (RFC 7540 §6.1: connection error).
  util::Bytes payload{0x05, 0xaa, 0xbb, 0xcc, 0xdd};
  h2::FrameDecoder dec;
  dec.feed(raw_frame(5, h2::kFlagPadded, payload));
  EXPECT_THROW((void)dec.next(), h2::FrameError);
}

TEST(DefensePadding, DeclaredPadExceedingFrameLengthThrows) {
  util::Bytes payload{0xff, 0x01, 0x02};
  h2::FrameDecoder dec;
  dec.feed(raw_frame(3, h2::kFlagPadded, payload));
  EXPECT_THROW((void)dec.next(), h2::FrameError);
}

// --- padded delivery through a live connection pair -------------------------

struct ConnPair {
  std::unique_ptr<h2::Connection> client;
  std::unique_ptr<h2::Connection> server;
  std::deque<util::Bytes> to_server;
  std::deque<util::Bytes> to_client;
  std::uint64_t client_offset = 0;
  std::uint64_t server_offset = 0;
  std::uint64_t server_wire_bytes = 0;

  explicit ConnPair(h2::ConnectionConfig client_cfg = {},
                    h2::ConnectionConfig server_cfg = {}) {
    client = std::make_unique<h2::Connection>(
        h2::Role::kClient, client_cfg, [this](util::BytesView b) {
          to_server.emplace_back(b.begin(), b.end());
          const h2::WireSpan span{client_offset, client_offset + b.size()};
          client_offset += b.size();
          return span;
        });
    server = std::make_unique<h2::Connection>(
        h2::Role::kServer, server_cfg, [this](util::BytesView b) {
          to_client.emplace_back(b.begin(), b.end());
          server_wire_bytes += b.size();
          const h2::WireSpan span{server_offset, server_offset + b.size()};
          server_offset += b.size();
          return span;
        });
  }

  void pump() {
    while (!to_server.empty() || !to_client.empty()) {
      if (!to_server.empty()) {
        const util::Bytes b = std::move(to_server.front());
        to_server.pop_front();
        server->on_bytes(b);
      }
      if (!to_client.empty()) {
        const util::Bytes b = std::move(to_client.front());
        to_client.pop_front();
        client->on_bytes(b);
      }
    }
  }
};

hpack::HeaderList get_request(const std::string& path) {
  return {{":method", "GET"},
          {":scheme", "https"},
          {":authority", "example.com"},
          {":path", path}};
}

/// Transfers `body` server→client with the given pad provider installed and
/// a small client window (so padded WINDOW_UPDATE accounting is exercised),
/// offering the unsent rest again on every window update; returns the
/// server's total wire bytes.
std::uint64_t padded_transfer(const util::Bytes& body,
                              std::function<std::uint8_t(std::size_t)> provider) {
  h2::ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 4'096;
  ConnPair pair(client_cfg);
  pair.server->data_pad_provider = std::move(provider);
  pair.client->start();
  pair.server->start();
  pair.pump();

  std::uint32_t stream = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    stream = id;
    pair.server->send_response_headers(id, {{":status", "200"}});
  };
  util::Bytes received;
  bool ended = false;
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool end) {
    received.insert(received.end(), d.begin(), d.end());
    ended = ended || end;
  };
  (void)pair.client->send_request(get_request("/padded"));
  pair.pump();
  std::size_t sent = 0;
  const auto offer = [&] {
    sent += pair.server->send_data(stream, util::BytesView(body).subspan(sent), true);
  };
  pair.server->on_window_update = [&](std::uint32_t) {
    if (sent < body.size()) offer();
  };
  offer();
  pair.pump();
  EXPECT_EQ(sent, body.size());
  EXPECT_EQ(received, body);
  EXPECT_TRUE(ended);
  return pair.server_wire_bytes;
}

TEST(DefensePadding, PaddedDeliveryUnderFlowControl) {
  const util::Bytes body = util::patterned_bytes(50'000, 3);
  const std::uint64_t unpadded = padded_transfer(body, nullptr);
  // Max pad on every frame: pad bytes consume window like body bytes, so
  // the transfer must still drain completely through the 4 KiB window.
  const std::uint64_t padded =
      padded_transfer(body, [](std::size_t) -> std::uint8_t { return 255; });
  EXPECT_GT(padded, unpadded + 255);
}

// --- TLS record quantization -------------------------------------------------

constexpr std::uint64_t kSecret = 0x5151;

TEST(DefenseQuantize, QuantizedRecordRoundTrip) {
  tls::SealContext seal(kSecret, 0);
  seal.set_pad_bucket(4'096);
  tls::OpenContext open(kSecret, 0);
  open.set_unpad(true);
  const util::Bytes plaintext = util::patterned_bytes(1'000, 4);
  const util::Bytes wire = seal.seal(tls::ContentType::kApplicationData, plaintext);
  EXPECT_EQ(wire.size(), tls::kHeaderBytes + 4'096 + tls::kAeadOverhead);
  std::size_t consumed = 0;
  const auto rec = open.open_one(wire, consumed);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(util::Bytes(rec.plaintext.begin(), rec.plaintext.end()), plaintext);
}

TEST(DefenseQuantize, EmptyPlaintextStillFillsOneBucket) {
  tls::SealContext seal(kSecret, 0);
  seal.set_pad_bucket(4'096);
  tls::OpenContext open(kSecret, 0);
  open.set_unpad(true);
  const util::Bytes wire = seal.seal(tls::ContentType::kApplicationData, {});
  EXPECT_EQ(wire.size(), tls::kHeaderBytes + 4'096 + tls::kAeadOverhead);
  std::size_t consumed = 0;
  EXPECT_TRUE(open.open_one(wire, consumed).plaintext.empty());
}

TEST(DefenseQuantize, EveryRecordIsABucketMultiple) {
  tls::SealContext seal(kSecret, 0);
  seal.set_pad_bucket(4'096);
  tls::OpenContext open(kSecret, 0);
  open.set_unpad(true);
  const util::Bytes plaintext = util::patterned_bytes(40'000, 5);
  const util::Bytes wire = seal.seal(tls::ContentType::kApplicationData, plaintext);
  util::Bytes reassembled;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    // Wire length field = padded plaintext + AEAD tag.
    const std::size_t wire_len =
        (static_cast<std::size_t>(wire[pos + 3]) << 8) | wire[pos + 4];
    EXPECT_EQ((wire_len - tls::kAeadOverhead) % 4'096, 0u);
    std::size_t consumed = 0;
    const auto rec = open.open_one(
        util::BytesView(wire.data() + pos, wire.size() - pos), consumed);
    reassembled.insert(reassembled.end(), rec.plaintext.begin(), rec.plaintext.end());
    pos += consumed;
  }
  EXPECT_EQ(reassembled, plaintext);
}

TEST(DefenseQuantize, HandshakeRecordsAreNeverPadded) {
  tls::SealContext seal(kSecret, 0);
  seal.set_pad_bucket(4'096);
  const util::Bytes wire =
      seal.seal(tls::ContentType::kHandshake, util::patterned_bytes(300, 6));
  EXPECT_EQ(wire.size(), tls::kHeaderBytes + 300 + tls::kAeadOverhead);
}

TEST(DefenseQuantize, UnquantizedRecordWithoutMarkerIsHostile) {
  // The receiver expects quantized framing but the record carries no 0x17
  // content marker (all zeros): declared padding swallows the whole record.
  tls::SealContext seal(kSecret, 0);
  tls::OpenContext open(kSecret, 0);
  open.set_unpad(true);
  const util::Bytes wire =
      seal.seal(tls::ContentType::kApplicationData, util::Bytes(64, 0x00));
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(wire, consumed), tls::TlsError);
}

// --- DefenseConfig policy helpers -------------------------------------------

TEST(DefenseConfig, PresetNamesRoundTrip) {
  for (const std::string& name : defense::defense_preset_names()) {
    const auto config = defense::defense_from_name(name);
    ASSERT_TRUE(config.has_value()) << name;
    EXPECT_EQ(defense::defense_name(*config), name);
  }
  EXPECT_FALSE(defense::defense_from_name("bogus").has_value());
}

TEST(DefenseConfig, DeterministicPoliciesNeverTouchTheRng) {
  sim::Rng rng(7);
  sim::Rng reference(7);
  defense::DefenseConfig config;
  EXPECT_EQ(defense::data_pad_length(config, 1'000, rng), 0);
  config.padding = defense::PaddingPolicy::kPadToBucket;
  config.pad_bucket = 64;
  // Payload grows by one pad-length byte, then rounds up to the bucket.
  const std::uint8_t pad = defense::data_pad_length(config, 1'000, rng);
  EXPECT_EQ((1'000 + 1 + pad) % 64, 0u);
  EXPECT_EQ(rng.uniform_int(0, 1'000'000), reference.uniform_int(0, 1'000'000));
}

TEST(DefenseConfig, RandomPolicyStaysInBounds) {
  sim::Rng rng(11);
  defense::DefenseConfig config;
  config.padding = defense::PaddingPolicy::kPerFrameRandom;
  config.pad_random_max = 37;
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(defense::data_pad_length(config, 500, rng), 37);
  }
}

// --- defense=none identity ---------------------------------------------------

util::Bytes file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(DefenseIdentity, NoneLeavesWireBytesAndVerdictsBitIdentical) {
  core::RunConfig baseline;
  baseline.attack_enabled = true;
  baseline.seed = 1'000;
  core::RunConfig defended = baseline;
  defended.server.defense = *defense::defense_from_name("none");

  const testing::TraceDigest a = testing::hash_run(baseline);
  const testing::TraceDigest b = testing::hash_run(defended);
  EXPECT_EQ(a.wire, b.wire);
  EXPECT_EQ(a.scored, b.scored);
  EXPECT_EQ(a.packets, b.packets);

  // The .h2t files must be byte-identical too: the defense meta block is
  // only written for an enabled config.
  baseline.capture.path = testing::scratch_path("defense_identity_a.h2t").string();
  defended.capture.path = testing::scratch_path("defense_identity_b.h2t").string();
  (void)capture::record_run(baseline);
  (void)capture::record_run(defended);
  EXPECT_EQ(file_bytes(baseline.capture.path), file_bytes(defended.capture.path));
  std::filesystem::remove(baseline.capture.path);
  std::filesystem::remove(defended.capture.path);
}

// --- defended capture → replay ----------------------------------------------

TEST(DefenseCapture, MetaRoundTripAndReplayReproducesVerdicts) {
  for (const std::string preset : {"pad-random", "quantize+shape", "full"}) {
    core::RunConfig cfg;
    cfg.attack_enabled = true;
    cfg.seed = 1'000;
    cfg.server.defense = *defense::defense_from_name(preset);
    cfg.capture.path =
        testing::scratch_path("defense_replay_" + preset + ".h2t").string();
    cfg.capture.scenario = "table2+" + preset;
    (void)capture::record_run(cfg);
    {
      const capture::TraceFile trace = capture::TraceFile::open(cfg.capture.path);
      EXPECT_EQ(trace.meta().defense, cfg.server.defense) << preset;
      const capture::ReplayResult replayed = capture::replay(trace);
      EXPECT_TRUE(replayed.records_match) << preset;
      EXPECT_TRUE(replayed.summary_matches) << preset;
    }
    std::filesystem::remove(cfg.capture.path);
  }
}

// --- grid determinism --------------------------------------------------------

TEST(DefenseGrid, ReportIsJobsInvariantAndPassesTheGate) {
  defense::GridOptions options;
  options.root = testing::scratch_path("defense_grid_test").string();
  options.runs = 4;
  options.defenses = {"none", "pad-bucket"};
  options.attacks = {{"catalog", corpus::Classifier::kNone, analysis::kFeatureBursts, 3}};
  options.parallelism = core::Parallelism{1};
  const defense::GridReport serial = defense::run_grid(options);
  options.parallelism = core::Parallelism{2};
  const defense::GridReport parallel = defense::run_grid(options);
  EXPECT_EQ(defense::format_grid_report(serial), defense::format_grid_report(parallel));
  EXPECT_TRUE(defense::check_grid_invariants(serial).empty());
  ASSERT_EQ(serial.rows.size(), 2u);
  EXPECT_EQ(serial.rows[0].pad_bytes, 0u);
  EXPECT_GT(serial.rows[1].pad_bytes, 0u);
  EXPECT_LE(serial.rows[1].mean_recovery, serial.rows[0].mean_recovery);
  std::filesystem::remove_all(options.root);
}

}  // namespace
}  // namespace h2priv
