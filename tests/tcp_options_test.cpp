// The endpoint runs without Nagle's algorithm (RFC 896), as HTTP/2 servers
// do (TCP_NODELAY), and without delayed ACKs (RFC 1122), which keeps loss
// detection crisp. These cases pin that: small writes leave at once, full
// segments are never held, every data segment is ACKed on arrival, and
// out-of-order data draws the duplicate ACKs loss recovery needs.
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/tcp/connection.hpp"
#include "tcp_pair.hpp"

namespace h2priv::tcp {
namespace {

using h2priv::testing::TcpPair;
using h2priv::testing::TcpPairConfig;
using util::milliseconds;
using util::seconds;

TEST(TcpNagle, DisabledSendsImmediately) {
  TcpPairConfig cfg;
  cfg.delay = milliseconds(20);
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish());
  // Each segment arrives in order on a lossless path: one delivery apiece.
  std::vector<std::size_t> deliveries;
  pair.server->on_data = [&](util::BytesView d) { deliveries.push_back(d.size()); };
  for (int i = 0; i < 10; ++i) {
    pair.client->send(util::patterned_bytes(10, static_cast<std::uint32_t>(i)));
  }
  pair.run_for(seconds(2));
  EXPECT_EQ(deliveries, std::vector<std::size_t>(10, 10));
}

TEST(TcpNagle, FullSegmentsAreNeverHeld) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  util::Bytes got;
  pair.server->on_data = [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  };
  pair.client->send(util::patterned_bytes(50'000, 1));
  pair.run_for(seconds(5));
  EXPECT_EQ(got, util::patterned_bytes(50'000, 1));
}

TEST(TcpDelayedAck, OutOfOrderDataStillAckedImmediately) {
  TcpPairConfig cfg;
  cfg.loss = 0.06;
  cfg.seed = 31;
  TcpPair pair(cfg);
  ASSERT_TRUE(pair.establish(seconds(60)));
  util::Bytes got;
  pair.server->on_data = [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  };
  std::size_t sent = 0;
  const util::Bytes payload = util::patterned_bytes(120'000, 3);
  const auto feed = [&] {
    while (sent < payload.size() && pair.client->send_capacity() > 0) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(pair.client->send_capacity()), payload.size() - sent);
      pair.client->send(util::BytesView(payload.data() + sent, n));
      sent += n;
    }
  };
  pair.client->on_writable = feed;
  feed();
  pair.run_for(seconds(120));
  EXPECT_EQ(got, payload) << "loss recovery must still work";
  EXPECT_GT(pair.client->stats().retransmits_fast, 0u)
      << "dup ACKs are the loss signal";
}

TEST(TcpDelayedAck, TimerFlushesSoloSegment) {
  TcpPair pair;
  ASSERT_TRUE(pair.establish());
  pair.server->on_data = [](util::BytesView) {};
  pair.client->send(util::patterned_bytes(100, 1));
  pair.run_for(seconds(2));
  // The single segment's ACK arrived: client fully acked.
  EXPECT_EQ(pair.client->send_capacity(), kSendBufferLimit);
}

}  // namespace
}  // namespace h2priv::tcp
