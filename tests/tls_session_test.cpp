#include "h2priv/tls/session.hpp"

#include <gtest/gtest.h>

#include "stack_pair.hpp"

namespace h2priv::tls {
namespace {

using h2priv::testing::StackPair;
using h2priv::testing::TcpPairConfig;
using util::seconds;

TEST(TlsSession, HandshakeCompletesOverTcp) {
  StackPair stack;
  EXPECT_TRUE(stack.establish());
  EXPECT_TRUE(stack.client_tls->established());
  EXPECT_TRUE(stack.server_tls->established());
}

TEST(TlsSession, SendAppBeforeHandshakeThrows) {
  StackPair stack;
  EXPECT_THROW((void)stack.client_tls->send_app(util::patterned_bytes(1, 1)),
               std::logic_error);
}

TEST(TlsSession, AppDataRoundTripsBothWays) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  util::Bytes at_server, at_client;
  stack.server_tls->on_app_data = [&](util::BytesView d) {
    at_server.insert(at_server.end(), d.begin(), d.end());
  };
  stack.client_tls->on_app_data = [&](util::BytesView d) {
    at_client.insert(at_client.end(), d.begin(), d.end());
  };
  stack.client_tls->send_app(util::patterned_bytes(5'000, 1));
  stack.server_tls->send_app(util::patterned_bytes(8'000, 2));
  stack.run_for(seconds(5));
  EXPECT_EQ(at_server, util::patterned_bytes(5'000, 1));
  EXPECT_EQ(at_client, util::patterned_bytes(8'000, 2));
  EXPECT_EQ(stack.server_tls->app_bytes_received(), 5'000u);
  EXPECT_EQ(stack.client_tls->app_bytes_received(), 8'000u);
}

TEST(TlsSession, WireRangesAreContiguousAndSized) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  const WireRange r1 = stack.client_tls->send_app(util::patterned_bytes(100, 1));
  const WireRange r2 = stack.client_tls->send_app(util::patterned_bytes(200, 2));
  EXPECT_EQ(r1.size(), 100 + kHeaderBytes + kAeadOverhead);
  EXPECT_EQ(r2.begin, r1.end) << "writes occupy consecutive TCP stream ranges";
  EXPECT_EQ(r2.size(), 200 + kHeaderBytes + kAeadOverhead);
}

TEST(TlsSession, LargeWriteSpansRecordsButOneRange) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  const WireRange r = stack.client_tls->send_app(util::patterned_bytes(40'000, 3));
  EXPECT_EQ(r.size(), 40'000 + 3 * (kHeaderBytes + kAeadOverhead));
}

TEST(TlsSession, SurvivesLossyTransport) {
  TcpPairConfig cfg;
  cfg.loss = 0.05;
  cfg.seed = 77;
  StackPair stack(cfg);
  ASSERT_TRUE(stack.establish(seconds(60)));
  util::Bytes at_server;
  stack.server_tls->on_app_data = [&](util::BytesView d) {
    at_server.insert(at_server.end(), d.begin(), d.end());
  };
  stack.client_tls->send_app(util::patterned_bytes(30'000, 4));
  stack.run_for(seconds(60));
  EXPECT_EQ(at_server, util::patterned_bytes(30'000, 4));
}

TEST(TlsSession, AppCapacityTracksTransport) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  const std::int64_t cap = stack.client_tls->app_send_capacity();
  EXPECT_GT(cap, 0);
  EXPECT_LT(cap, tcp::kSendBufferLimit);
  stack.client_tls->send_app(util::patterned_bytes(100'000, 1));
  EXPECT_LT(stack.client_tls->app_send_capacity(), cap)
      << "bytes beyond the congestion window stay buffered";
}

TEST(TlsSession, ClosePropagates) {
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  bool client_closed = false;
  tcp::CloseReason reason{};
  stack.client_tls->on_closed = [&](tcp::CloseReason r) {
    client_closed = true;
    reason = r;
  };
  stack.transport.server->abort();
  stack.run_for(seconds(1));
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(reason, tcp::CloseReason::kReset);
}

TEST(TlsSession, HandshakeTrafficUsesHandshakeContentType) {
  // Count records by type on the wire via a tap link is heavyweight here;
  // instead verify app counters exclude handshake bytes.
  StackPair stack;
  ASSERT_TRUE(stack.establish());
  EXPECT_EQ(stack.client_tls->app_bytes_sent(), 0u);
  EXPECT_EQ(stack.server_tls->app_bytes_sent(), 0u);
  EXPECT_EQ(stack.client_tls->app_bytes_received(), 0u);
}

}  // namespace
}  // namespace h2priv::tls
