#include "h2priv/tcp/connection.hpp"

#include <gtest/gtest.h>

#include "tcp_pair.hpp"

namespace h2priv::tcp {
namespace {

using h2priv::testing::TcpPair;
using h2priv::testing::TcpPairConfig;
using util::milliseconds;
using util::seconds;

TEST(TcpConnection, ThreeWayHandshake) {
  TcpPair pair;
  EXPECT_TRUE(pair.establish());
  EXPECT_EQ(pair.client->state(), State::kEstablished);
  EXPECT_EQ(pair.server->state(), State::kEstablished);
}

TEST(TcpConnection, ConnectWithoutSinkThrows) {
  sim::Simulator sim;
  Connection conn(sim, TcpConfig{});
  EXPECT_THROW(conn.connect(), std::logic_error);
}

TEST(TcpConnection, SmallTransferDeliversExactBytes) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  util::Bytes received;
  pair.server->on_data = [&](util::BytesView d) {
    received.insert(received.end(), d.begin(), d.end());
  };
  const util::Bytes payload = util::patterned_bytes(500, 1);
  pair.client->send(payload);
  pair.run_for(seconds(1));
  EXPECT_EQ(received, payload);
}

TEST(TcpConnection, LargeTransferSpansManySegments) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  util::Bytes received;
  pair.server->on_data = [&](util::BytesView d) {
    received.insert(received.end(), d.begin(), d.end());
  };
  const util::Bytes payload = util::patterned_bytes(300'000, 2);
  // Feed respecting the send buffer.
  std::size_t sent = 0;
  const auto feed = [&] {
    while (sent < payload.size()) {
      const auto cap = static_cast<std::size_t>(pair.client->send_capacity());
      if (cap == 0) break;
      const std::size_t n = std::min(cap, payload.size() - sent);
      pair.client->send(util::BytesView(payload.data() + sent, n));
      sent += n;
    }
  };
  pair.client->on_writable = feed;
  feed();
  pair.run_for(seconds(30));
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
  EXPECT_GT(pair.client->stats().data_segments_sent, 200u);
}

TEST(TcpConnection, BidirectionalTransfer) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  util::Bytes at_server, at_client;
  pair.server->on_data = [&](util::BytesView d) {
    at_server.insert(at_server.end(), d.begin(), d.end());
  };
  pair.client->on_data = [&](util::BytesView d) {
    at_client.insert(at_client.end(), d.begin(), d.end());
  };
  pair.client->send(util::patterned_bytes(20'000, 3));
  pair.server->send(util::patterned_bytes(30'000, 4));
  pair.run_for(seconds(5));
  EXPECT_EQ(at_server, util::patterned_bytes(20'000, 3));
  EXPECT_EQ(at_client, util::patterned_bytes(30'000, 4));
}

TEST(TcpConnection, SendReturnsStreamOffsets) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  EXPECT_EQ(pair.client->send(util::patterned_bytes(10, 1)), 0u);
  EXPECT_EQ(pair.client->send(util::patterned_bytes(10, 2)), 10u);
  EXPECT_EQ(pair.client->bytes_enqueued(), 20u);
}

TEST(TcpConnection, RecoversFromLossWithFastRetransmit) {
  TcpPairConfig cfg;
  cfg.loss = 0.05;
  cfg.seed = 11;
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  util::Bytes received;
  pair.server->on_data = [&](util::BytesView d) {
    received.insert(received.end(), d.begin(), d.end());
  };
  const util::Bytes payload = util::patterned_bytes(200'000, 5);
  std::size_t sent = 0;
  const auto feed = [&] {
    while (sent < payload.size()) {
      const auto cap = static_cast<std::size_t>(pair.client->send_capacity());
      if (cap == 0) break;
      const std::size_t n = std::min(cap, payload.size() - sent);
      pair.client->send(util::BytesView(payload.data() + sent, n));
      sent += n;
    }
  };
  pair.client->on_writable = feed;
  feed();
  pair.run_for(seconds(60));
  EXPECT_EQ(received, payload);
  EXPECT_GT(pair.client->stats().total_retransmits(), 0u);
  EXPECT_GT(pair.client->stats().retransmits_fast, 0u);
  EXPECT_GT(pair.server->stats().dup_acks_sent, 0u);
}

TEST(TcpConnection, OrderlyCloseReachesBothSides) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  CloseReason client_reason{}, server_reason{};
  bool client_closed = false, server_closed = false;
  pair.client->on_closed = [&](CloseReason r) { client_closed = true; client_reason =
                               r; };
  pair.server->on_closed = [&](CloseReason r) { server_closed = true; server_reason =
                               r; };
  pair.client->send(util::patterned_bytes(100, 1));
  pair.client->close();
  pair.run_for(seconds(1));
  // Server saw FIN; server closes too.
  pair.server->close();
  pair.run_for(seconds(5));
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(client_reason, CloseReason::kNormal);
  EXPECT_EQ(server_reason, CloseReason::kNormal);
}

TEST(TcpConnection, DataQueuedBeforeCloseIsDeliveredBeforeFin) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  util::Bytes received;
  pair.server->on_data = [&](util::BytesView d) {
    received.insert(received.end(), d.begin(), d.end());
  };
  pair.client->send(util::patterned_bytes(50'000, 9));
  pair.client->close();
  pair.run_for(seconds(10));
  EXPECT_EQ(received, util::patterned_bytes(50'000, 9));
}

TEST(TcpConnection, AbortSendsRst) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  CloseReason server_reason{};
  pair.server->on_closed = [&](CloseReason r) { server_reason = r; };
  pair.client->abort();
  pair.run_for(seconds(1));
  EXPECT_EQ(pair.client->state(), State::kClosed);
  EXPECT_EQ(pair.server->state(), State::kClosed);
  EXPECT_EQ(server_reason, CloseReason::kReset);
}

TEST(TcpConnection, SendAfterCloseThrows) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  pair.client->close();
  EXPECT_THROW(pair.client->send(util::patterned_bytes(1, 1)), std::logic_error);
}

TEST(TcpConnection, OversizeSendThrows) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  const auto too_big = static_cast<std::size_t>(kSendBufferLimit + 1);
  EXPECT_THROW(pair.client->send(util::patterned_bytes(too_big, 1)), std::length_error);
}

TEST(TcpConnection, BrokenPathReportsBroken) {
  // Establish first, then make the path 100% lossy: retransmissions exhaust.
  TcpPairConfig cfg;
  cfg.client_tcp.max_retries = 4;
  cfg.client_tcp.rto.max = seconds(2);
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  CloseReason reason{};
  bool closed = false;
  pair.client->on_closed = [&](CloseReason r) { closed = true; reason = r; };
  // Break the forward path only.
  // (Re-wire the sink to drop everything.)
  pair.client->set_segment_out([](util::SharedBytes) {});
  pair.client->send(util::patterned_bytes(1'000, 1));
  pair.run_for(seconds(120));
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, CloseReason::kBroken);
}

TEST(TcpConnection, WritableCallbackFiresAfterDrain) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  int writable_calls = 0;
  pair.client->on_writable = [&] { ++writable_calls; };
  // Fill well past the watermark.
  const auto cap = static_cast<std::size_t>(pair.client->send_capacity());
  pair.client->send(util::patterned_bytes(cap, 1));
  pair.run_for(seconds(30));
  EXPECT_GT(writable_calls, 0);
  EXPECT_EQ(pair.client->send_capacity(), kSendBufferLimit);
}

TEST(TcpConnection, RttEstimatorLearnsPathDelay) {
  TcpPairConfig cfg;
  cfg.delay = milliseconds(25);  // RTT 50 ms
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  pair.client->send(util::patterned_bytes(5'000, 1));
  pair.run_for(seconds(2));
  EXPECT_TRUE(pair.client->rto_estimator().has_sample());
  EXPECT_NEAR(static_cast<double>(pair.client->rto_estimator().srtt().ns), 50e6, 10e6);
}

TEST(TcpConnection, SlowStartRestartAfterIdle) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  // Grow the window with a bulk transfer.
  pair.server->on_data = [](util::BytesView) {};
  pair.client->send(util::patterned_bytes(200'000, 1));
  pair.run_for(seconds(20));
  const std::uint64_t grown = pair.client->congestion().cwnd();
  EXPECT_GT(grown, 100'000u);
  // Idle for far longer than the RTO, then send again.
  pair.run_for(seconds(30));
  pair.client->send(util::patterned_bytes(2'000, 2));
  pair.run_for(milliseconds(1));
  EXPECT_LT(pair.client->congestion().cwnd(), 20'000u)
      << "cwnd must collapse to the initial window after idle (RFC 2861)";
}

TEST(TcpConnection, DupAckCountingAtSender) {
  TcpPairConfig cfg;
  cfg.loss = 0.08;
  cfg.seed = 123;
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  pair.server->on_data = [](util::BytesView) {};
  std::size_t sent = 0;
  const util::Bytes payload = util::patterned_bytes(150'000, 1);
  const auto feed = [&] {
    while (sent < payload.size()) {
      const auto cap = static_cast<std::size_t>(pair.client->send_capacity());
      if (cap == 0) break;
      const std::size_t n = std::min(cap, payload.size() - sent);
      pair.client->send(util::BytesView(payload.data() + sent, n));
      sent += n;
    }
  };
  pair.client->on_writable = feed;
  feed();
  pair.run_for(seconds(60));
  EXPECT_GT(pair.client->stats().dup_acks_received, 0u);
}

}  // namespace
}  // namespace h2priv::tcp
