// Client/server h2::Connection pair wired back to back (no transport):
// protocol-level behaviour including flow control and push.
#include "h2priv/h2/connection.hpp"

#include <deque>
#include <vector>

#include "h2priv/obs/metrics.hpp"
#include "h2priv/sim/rng.hpp"
#include "hex.hpp"

#include <gtest/gtest.h>

namespace h2priv::h2 {
namespace {

using h2priv::testing::to_bytes;

// Wires two connections so each one's output bytes feed the peer, with an
// explicit pump so tests can control delivery timing.
struct ConnPair {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
  std::deque<util::Bytes> to_server;
  std::deque<util::Bytes> to_client;
  std::uint64_t client_offset = 0;
  std::uint64_t server_offset = 0;

  explicit ConnPair(ConnectionConfig client_cfg = {}, ConnectionConfig server_cfg = {}) {
    client = std::make_unique<Connection>(
        Role::kClient, client_cfg, [this](util::BytesView b) {
          to_server.emplace_back(b.begin(), b.end());
          const WireSpan span{client_offset, client_offset + b.size()};
          client_offset += b.size();
          return span;
        });
    server = std::make_unique<Connection>(
        Role::kServer, server_cfg, [this](util::BytesView b) {
          to_client.emplace_back(b.begin(), b.end());
          const WireSpan span{server_offset, server_offset + b.size()};
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

  void start() {
    client->start();
    server->start();
    pump();
  }
};

hpack::HeaderList get_request(const std::string& path) {
  return {{":method", "GET"}, {":scheme", "https"},
          {":authority", "example.com"}, {":path", path}};
}

// A response body its caller holds, as the server's handlers do: offer()
// writes what flow control allows, and the caller offers the rest again
// when on_window_update fires.
struct HeldBody {
  Connection* conn = nullptr;
  std::uint32_t stream = 0;
  util::Bytes body;
  std::size_t sent = 0;

  void offer() {
    sent += conn->send_data(stream, util::BytesView(body).subspan(sent), true);
  }
  [[nodiscard]] bool done() const noexcept { return sent == body.size(); }
};

TEST(H2Connection, SettingsExchangeOnStart) {
  ConnPair pair;
  pair.start();
  EXPECT_TRUE(pair.client->peer_settings_received());
  EXPECT_TRUE(pair.server->peer_settings_received());
}

TEST(H2Connection, BadPrefaceRejected) {
  ConnPair pair;
  const util::Bytes garbage = to_bytes("GET / HTTP/1.1\r\n");
  EXPECT_THROW(pair.server->on_bytes(garbage), FrameError);
}

TEST(H2Connection, RequestReachesServerWithHeaders) {
  ConnPair pair;
  pair.start();
  std::uint32_t got_stream = 0;
  hpack::HeaderList got_headers;
  bool got_end = false;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList& h, bool end) {
    got_stream = id;
    got_headers = h;
    got_end = end;
  };
  const std::uint32_t id = pair.client->send_request(get_request("/index.html"));
  pair.pump();
  EXPECT_EQ(got_stream, id);
  EXPECT_EQ(id, 1u);
  EXPECT_TRUE(got_end);
  ASSERT_EQ(got_headers.size(), 4u);
  EXPECT_EQ(got_headers[3].value, "/index.html");
}

TEST(H2Connection, StreamIdsAreOddAndIncreasing) {
  ConnPair pair;
  pair.start();
  pair.server->on_request = [](std::uint32_t, const hpack::HeaderList&, bool) {};
  EXPECT_EQ(pair.client->send_request(get_request("/a")), 1u);
  EXPECT_EQ(pair.client->send_request(get_request("/b")), 3u);
  EXPECT_EQ(pair.client->send_request(get_request("/c")), 5u);
}

TEST(H2Connection, ResponseBodyDeliveredWithEndStream) {
  ConnPair pair;
  pair.start();
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    pair.server->send_response_headers(id, {{":status", "200"}});
    EXPECT_EQ(pair.server->send_data(id, util::patterned_bytes(30'000, 1), true),
              30'000u);
  };
  util::Bytes body;
  bool ended = false;
  hpack::HeaderList response_headers;
  pair.client->on_response_headers = [&](std::uint32_t, const hpack::HeaderList& h) {
    response_headers = h;
  };
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool end) {
    body.insert(body.end(), d.begin(), d.end());
    ended = ended || end;
  };
  (void)pair.client->send_request(get_request("/big"));
  pair.pump();
  EXPECT_EQ(response_headers.at(0).value, "200");
  EXPECT_EQ(body, util::patterned_bytes(30'000, 1));
  EXPECT_TRUE(ended);
}

TEST(H2Connection, DataFramesRespectMaxFrameSize) {
  ConnPair pair;
  pair.start();
  std::size_t data_frames = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    pair.server->send_response_headers(id, {{":status", "200"}});
    EXPECT_EQ(pair.server->send_data(id, util::patterned_bytes(40'000, 2), true),
              40'000u);
  };
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool) {
    EXPECT_LE(d.size(), kDefaultMaxFrameSize);
    ++data_frames;
  };
  (void)pair.client->send_request(get_request("/big"));
  pair.pump();
  EXPECT_GE(data_frames, 3u);  // 40000 / 16384 -> at least 3 frames
}

TEST(H2Connection, FlowControlBlocksUntilWindowUpdate) {
  // Tiny client windows: send_data writes one window's worth and leaves the
  // rest with its caller, which offers it again on each window update.
  ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 4'096;
  ConnPair pair(client_cfg);
  pair.client->start();
  pair.server->start();
  // Deliver only the client's SETTINGS to the server first.
  pair.pump();

  std::uint32_t stream = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    stream = id;
    pair.server->send_response_headers(id, {{":status", "200"}});
  };
  util::Bytes body;
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool) {
    body.insert(body.end(), d.begin(), d.end());
  };
  (void)pair.client->send_request(get_request("/slow"));
  pair.pump();
  ASSERT_NE(stream, 0u);

  HeldBody held{pair.server.get(), stream, util::patterned_bytes(50'000, 3)};
  int updates = 0;
  pair.server->on_window_update = [&](std::uint32_t) {
    ++updates;
    if (!held.done()) held.offer();
  };
  held.offer();
  // Before pumping, the stream window (4096) caps what was written.
  EXPECT_EQ(held.sent, 4'096u);
  EXPECT_EQ(pair.server->send_window(stream), 0);
  EXPECT_EQ(pair.server->send_data(stream, util::BytesView(held.body).subspan(held.sent),
                                   true),
            0u)
      << "a closed window writes nothing";
  pair.pump();  // window updates flow back and the caller offers the rest
  EXPECT_TRUE(held.done());
  EXPECT_GE(updates, 50'000 / 4'096);
  EXPECT_EQ(body, held.body);
  EXPECT_EQ(pair.server->stream(stream).state, StreamState::kClosed);
}

TEST(H2Connection, EmptyEndStreamFrameNeedsNoWindow) {
  ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 1'024;
  ConnPair pair(client_cfg);
  pair.start();
  std::uint32_t stream = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    stream = id;
    pair.server->send_response_headers(id, {{":status", "200"}});
    EXPECT_EQ(pair.server->send_data(id, util::patterned_bytes(1'024, 8), false), 1'024u);
    EXPECT_EQ(pair.server->send_window(id), 0);
    EXPECT_EQ(pair.server->send_data(id, {}, true), 0u);
  };
  std::vector<std::size_t> frames;
  bool ended = false;
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool end) {
    frames.push_back(d.size());
    ended = ended || end;
  };
  (void)pair.client->send_request(get_request("/ends-empty"));
  pair.pump();
  EXPECT_EQ(frames, (std::vector<std::size_t>{1'024, 0}));
  EXPECT_TRUE(ended);
  EXPECT_EQ(pair.server->stream(stream).state, StreamState::kClosed);
}

TEST(H2Connection, WindowUpdateCallbackReportsEveryWindowThatGrew) {
  ConnPair pair;
  pair.start();
  std::uint32_t stream = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    stream = id;
  };
  (void)pair.client->send_request(get_request("/windows"));
  pair.pump();
  ASSERT_NE(stream, 0u);
  std::vector<std::uint32_t> grown;
  pair.server->on_window_update = [&](std::uint32_t id) { grown.push_back(id); };

  pair.server->on_bytes(encode_frame(Frame{WindowUpdateFrame{stream, 100}}));
  pair.server->on_bytes(encode_frame(Frame{WindowUpdateFrame{0, 200}}));
  pair.server->on_bytes(encode_frame(Frame{WindowUpdateFrame{99, 300}}));  // never opened
  const auto settings_window = [&](std::uint32_t value) {
    SettingsFrame sf;
    sf.settings = {{static_cast<std::uint16_t>(SettingId::kInitialWindowSize), value}};
    pair.server->on_bytes(encode_frame(Frame{sf}));
  };
  settings_window(70'000);  // raised: every stream window grew
  settings_window(60'000);  // lowered: none did
  EXPECT_EQ(grown, (std::vector<std::uint32_t>{stream, 0, 0}));
  EXPECT_EQ(pair.server->stream(stream).send_window, 60'000 + 100);
  EXPECT_EQ(pair.server->connection_send_window(), 65'535 + 200);
}

TEST(H2Connection, ConnectionWindowExtraIsGranted) {
  ConnectionConfig client_cfg;
  client_cfg.connection_window_extra = 1 << 20;
  ConnPair pair(client_cfg);
  pair.start();
  // Server's view of the connection send window grew by the grant.
  EXPECT_EQ(pair.server->connection_send_window(), 65'535 + (1 << 20));
}

TEST(H2Connection, RstStreamFlushesPendingAndNotifiesPeer) {
  ConnectionConfig client_cfg;
  client_cfg.local_settings.initial_window_size = 1'024;
  ConnPair pair(client_cfg);
  pair.start();
  std::uint32_t stream = 0;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    stream = id;
    pair.server->send_response_headers(id, {{":status", "200"}});
  };
  bool server_saw_rst = false;
  pair.server->on_rst_stream = [&](std::uint32_t, ErrorCode code) {
    server_saw_rst = true;
    EXPECT_EQ(code, ErrorCode::kCancel);
  };
  const std::uint32_t id = pair.client->send_request(get_request("/cancel-me"));
  pair.pump();
  ASSERT_NE(stream, 0u);
  // Write the body while the client's bytes are NOT being delivered: flow
  // control (1 KiB stream window) leaves most of it with the caller.
  HeldBody held{pair.server.get(), stream, util::patterned_bytes(100'000, 4)};
  held.offer();
  EXPECT_EQ(held.sent, 1'024u);
  pair.client->rst_stream(id, ErrorCode::kCancel);
  pair.pump();
  EXPECT_TRUE(server_saw_rst);
  EXPECT_EQ(pair.server->stream(stream).state, StreamState::kClosed);
  // The pending remainder is flushed: offered again, it is dropped and
  // reported written, and no DATA frame leaves.
  int data_frames = 0;
  pair.server->on_frame_sent = [&](std::uint32_t, FrameType type, WireSpan) {
    if (type == FrameType::kData) ++data_frames;
  };
  held.offer();
  EXPECT_TRUE(held.done());
  EXPECT_EQ(data_frames, 0);
}

TEST(H2Connection, PingIsAnsweredWithAck) {
  ConnPair pair;
  pair.start();
  int pings_sent = 0;
  pair.client->on_frame_sent = [&](std::uint32_t, FrameType type, WireSpan) {
    if (type == FrameType::kPing) ++pings_sent;
  };
  PingFrame ping;
  ping.opaque = {0x68, 0x32, 0x70, 0x72, 0x69, 0x76, 0x00, 0x00};
  pair.client->on_bytes(encode_frame(Frame{ping}));
  EXPECT_EQ(pings_sent, 1);
  ASSERT_EQ(pair.to_server.size(), 1u);
  FrameDecoder decoder;
  decoder.feed(pair.to_server.front());
  const std::optional<Frame> sent = decoder.next();
  ASSERT_TRUE(sent.has_value());
  const auto* pong = std::get_if<PingFrame>(&*sent);
  ASSERT_NE(pong, nullptr);
  EXPECT_TRUE(pong->ack);
  EXPECT_EQ(pong->opaque, ping.opaque);
}

TEST(H2Connection, ServerPushDeliversPromisedResource) {
  obs::ScopedRegistry scoped;
  ConnPair pair;
  pair.start();
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    pair.server->send_response_headers(id, {{":status", "200"}});
    const std::uint32_t promised = pair.server->push_promise(id,
                                                             get_request("/style.css"));
    EXPECT_EQ(pair.server->send_data(id, util::patterned_bytes(100, 5), true), 100u);
    pair.server->send_response_headers(promised, {{":status", "200"}});
    EXPECT_EQ(pair.server->send_data(promised, util::patterned_bytes(700, 6), true), 700u);
  };
  std::uint32_t promised_id = 0;
  hpack::HeaderList promised_request;
  pair.client->on_push_promise = [&](std::uint32_t parent, std::uint32_t promised,
                                     const hpack::HeaderList& h) {
    EXPECT_EQ(parent, 1u);
    promised_id = promised;
    promised_request = h;
  };
  util::Bytes pushed_body;
  pair.client->on_data = [&](std::uint32_t id, util::BytesView d, bool) {
    if (id == promised_id) pushed_body.insert(pushed_body.end(), d.begin(), d.end());
  };
  (void)pair.client->send_request(get_request("/index.html"));
  pair.pump();
  EXPECT_EQ(promised_id, 2u);
  EXPECT_EQ(promised_request.back().value, "/style.css");
  EXPECT_EQ(pushed_body, util::patterned_bytes(700, 6));
  EXPECT_EQ(scoped.registry().get(obs::Counter::kH2PushPromiseSent), 1u);
}

TEST(H2Connection, PushRejectedWhenPeerDisablesIt) {
  ConnectionConfig client_cfg;
  client_cfg.local_settings.enable_push = false;
  ConnPair pair(client_cfg);
  pair.start();
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    EXPECT_THROW((void)pair.server->push_promise(id, get_request("/x")),
                 std::logic_error);
  };
  (void)pair.client->send_request(get_request("/index.html"));
  pair.pump();
}

TEST(H2Connection, HpackContextSurvivesManyRequests) {
  ConnPair pair;
  pair.start();
  std::vector<std::string> paths;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList& h, bool) {
    for (const auto& header : h) {
      if (header.name == ":path") paths.push_back(header.value);
    }
    pair.server->send_response_headers(id, {{":status", "200"}}, true);
  };
  for (int i = 0; i < 40; ++i) {
    (void)pair.client->send_request(get_request("/obj/" + std::to_string(i % 7)));
    pair.pump();
  }
  ASSERT_EQ(paths.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(paths[static_cast<std::size_t>(i)], "/obj/" + std::to_string(i % 7));
  }
}

TEST(H2Connection, FrameSentCallbackReportsSpans) {
  ConnPair pair;
  std::vector<FrameType> sent_types;
  std::uint64_t last_end = 0;
  bool monotonic = true;
  pair.client->on_frame_sent = [&](std::uint32_t, FrameType t, WireSpan span) {
    sent_types.push_back(t);
    if (span.begin < last_end) monotonic = false;
    last_end = span.end;
  };
  pair.start();
  (void)pair.client->send_request(get_request("/x"));
  pair.pump();
  EXPECT_TRUE(monotonic);
  ASSERT_GE(sent_types.size(), 2u);
  EXPECT_EQ(sent_types[0], FrameType::kSettings);
}

TEST(H2Connection, LargeHeaderBlockUsesContinuationFrames) {
  ConnPair pair;
  pair.start();
  hpack::HeaderList got;
  pair.server->on_request = [&](std::uint32_t, const hpack::HeaderList& h, bool) {
    got = h;
  };
  // A header block well beyond one 16 KiB frame (incompressible values).
  hpack::HeaderList headers = get_request("/big-headers");
  for (int i = 0; i < 60; ++i) {
    std::string value;
    for (int j = 0; j < 800; ++j) {
      value.push_back(static_cast<char>('A' + (i * 31 + j * 7) % 26));
    }
    headers.push_back({"x-blob-" + std::to_string(i), value});
  }
  (void)pair.client->send_request(headers);
  pair.pump();
  EXPECT_EQ(got, headers) << "HEADERS + CONTINUATION reassembled intact";
}

TEST(H2Connection, ContinuationWithoutHeadersRejected) {
  ConnPair pair;
  pair.start();
  ContinuationFrame cf;
  cf.stream_id = 1;
  cf.header_block = util::patterned_bytes(10, 1);
  EXPECT_THROW(pair.server->on_bytes(encode_frame(Frame{cf})), FrameError);
}

TEST(H2Connection, PriorityFramesAreAcceptedAndIgnored) {
  // Priority signals are advisory (RFC 7540 §5.3): they are decoded and
  // validated, then dropped, so a flood of PRIORITY frames on fresh stream
  // ids leaves no state behind.
  ConnPair pair;
  pair.start();
  std::vector<std::uint32_t> requests;
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    requests.push_back(id);
  };
  constexpr std::uint32_t kFirst = 3;
  constexpr std::uint32_t kEnd = kFirst + 2 * 10'000;
  for (std::uint32_t id = kFirst; id < kEnd; id += 2) {
    PriorityFrame prio;
    prio.stream_id = id;
    prio.stream_dependency = 1;
    prio.weight = 220;
    ASSERT_NO_THROW(pair.server->on_bytes(encode_frame(Frame{prio})));
  }
  std::size_t left_behind = 0;
  for (std::uint32_t id = kFirst; id < kEnd; id += 2) {
    if (pair.server->stream_exists(id)) ++left_behind;
  }
  EXPECT_EQ(left_behind, 0u);

  // A HEADERS frame with the priority flag opens its stream like any other.
  HeadersFrame hf;
  hf.stream_id = 1;
  hf.end_stream = true;
  hf.has_priority = true;
  hf.weight = 220;
  hf.header_block = hpack::Encoder().encode(get_request("/prioritized"));
  ASSERT_NO_THROW(pair.server->on_bytes(encode_frame(Frame{hf})));
  EXPECT_EQ(requests, std::vector<std::uint32_t>{1});
}

TEST(H2Connection, StreamLookupErrors) {
  ConnPair pair;
  pair.start();
  EXPECT_FALSE(pair.client->stream_exists(99));
  EXPECT_THROW((void)pair.client->stream(99), std::out_of_range);
  EXPECT_THROW((void)pair.client->send_data(99, util::patterned_bytes(1, 1), true),
               std::out_of_range);
  EXPECT_THROW((void)pair.client->send_window(99), std::out_of_range);
}

TEST(H2Connection, ServerCannotSendRequests) {
  ConnPair pair;
  pair.start();
  EXPECT_THROW((void)pair.server->send_request(get_request("/x")), std::logic_error);
  EXPECT_THROW((void)pair.client->push_promise(1, get_request("/x")), std::logic_error);
}

class ChunkingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkingFuzz, ArbitraryByteChunkingPreservesProtocol) {
  // Deliver every wire byte stream in random-sized chunks: framing must not
  // depend on write boundaries.
  sim::Rng rng(GetParam());
  ConnPair pair;

  const auto chunked_deliver = [&rng](Connection& to, std::deque<util::Bytes>& queue) {
    while (!queue.empty()) {
      util::Bytes bytes = std::move(queue.front());
      queue.pop_front();
      std::size_t pos = 0;
      while (pos < bytes.size()) {
        const std::size_t n = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(bytes.size() - pos)));
        to.on_bytes(util::BytesView(bytes.data() + pos, n));
        pos += n;
      }
    }
  };
  const auto pump_chunked = [&] {
    while (!pair.to_server.empty() || !pair.to_client.empty()) {
      chunked_deliver(*pair.server, pair.to_server);
      chunked_deliver(*pair.client, pair.to_client);
    }
  };

  pair.client->start();
  pair.server->start();
  pump_chunked();

  // 77,777 bytes outgrow the default 64 KiB windows, so the tail waits
  // for window updates that arrive in random pieces too.
  util::Bytes body;
  bool done = false;
  HeldBody held{pair.server.get(), 0, util::patterned_bytes(77'777, 7)};
  pair.server->on_request = [&](std::uint32_t id, const hpack::HeaderList&, bool) {
    pair.server->send_response_headers(id, {{":status", "200"}});
    held.stream = id;
    held.offer();
  };
  pair.server->on_window_update = [&](std::uint32_t) {
    if (held.stream != 0 && !held.done()) held.offer();
  };
  pair.client->on_data = [&](std::uint32_t, util::BytesView d, bool end) {
    body.insert(body.end(), d.begin(), d.end());
    done = done || end;
  };
  (void)pair.client->send_request(get_request("/chunked"));
  pump_chunked();
  EXPECT_TRUE(held.done());
  EXPECT_TRUE(done);
  EXPECT_EQ(body, held.body);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkingFuzz, ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace h2priv::h2
