// core::Topology: the client <-> gateway <-> server stack that run_once and
// the benches share, on a bench-style path (fixed delays, no jitter, no
// background loss, no egress contention).
#include "h2priv/core/topology.hpp"

#include <array>

#include <gtest/gtest.h>

#include "h2priv/tcp/segment.hpp"

namespace h2priv::core {
namespace {

constexpr std::size_t kUpload = 40'000;     // client -> server
constexpr std::size_t kDownload = 300'000;  // server -> client

const PathConfig kQuietPath{.client_hop_delay = util::milliseconds(5),
                            .server_hop_delay = util::milliseconds(5),
                            .jitter_sigma = util::Duration{},
                            .background_loss = 0.0,
                            .egress_burst_capacity = 0};

/// One topology exchanging patterned bytes both ways once TLS is up, with a
/// gateway tap counting what enters the middlebox per direction.
struct Lab {
  sim::Simulator sim;
  sim::Rng rng;
  Topology topology;
  util::Bytes client_got;
  util::Bytes server_got;
  std::array<std::uint64_t, 2> tapped{};
  /// Header fields of the first packet per direction (the payload view is
  /// not kept alive).
  std::array<tcp::SegmentView, 2> first_segment{};

  explicit Lab(std::uint64_t seed)
      : rng(seed), topology(sim, kQuietPath, rng, seed + 99) {
    topology.middlebox().add_tap(
        [this](net::Direction d, const net::Packet& p, util::TimePoint) {
          const auto dir = static_cast<std::size_t>(d);
          if (tapped[dir]++ == 0) first_segment[dir] = tcp::peek(p.segment);
        });
    tls::Session& client = topology.client_tls();
    tls::Session& server = topology.server_tls();
    client.on_app_data = [this](util::BytesView b) {
      client_got.insert(client_got.end(), b.begin(), b.end());
    };
    server.on_app_data = [this](util::BytesView b) {
      server_got.insert(server_got.end(), b.begin(), b.end());
    };
    client.on_established = [&client] {
      (void)client.send_app(util::patterned_bytes(kUpload, 1));
    };
    server.on_established = [&server] {
      (void)server.send_app(util::patterned_bytes(kDownload, 2));
    };
    topology.start();
    sim.run_until(util::TimePoint{} + util::seconds(10));
  }
};

TEST(Topology, HandshakeCompletesAndBytesArriveIntactBothWays) {
  Lab lab(7);
  EXPECT_TRUE(lab.topology.client_tcp().established());
  EXPECT_TRUE(lab.topology.server_tcp().established());
  EXPECT_TRUE(lab.topology.client_tls().established());
  EXPECT_TRUE(lab.topology.server_tls().established());
  EXPECT_EQ(lab.server_got, util::patterned_bytes(kUpload, 1));
  EXPECT_EQ(lab.client_got, util::patterned_bytes(kDownload, 2));
  EXPECT_EQ(lab.topology.client_tcp().stats().total_retransmits(), 0u);
  EXPECT_EQ(lab.topology.server_tcp().stats().total_retransmits(), 0u);
}

TEST(Topology, GatewayTapSeesExactlyWhatTheFirstHopsSent) {
  Lab lab(7);
  const auto c2s = static_cast<std::size_t>(net::Direction::kClientToServer);
  const auto s2c = static_cast<std::size_t>(net::Direction::kServerToClient);
  EXPECT_GT(lab.tapped[c2s], 0u);
  EXPECT_GT(lab.tapped[s2c], 0u);
  EXPECT_EQ(lab.tapped[c2s], lab.topology.link_stats(Hop::kClientToGateway).sent);
  EXPECT_EQ(lab.tapped[s2c], lab.topology.link_stats(Hop::kServerToGateway).sent);
  // Nothing is lost and the gateway forwards every packet it sees.
  EXPECT_EQ(lab.topology.link_stats(Hop::kGatewayToServer).sent, lab.tapped[c2s]);
  EXPECT_EQ(lab.topology.link_stats(Hop::kGatewayToClient).sent, lab.tapped[s2c]);
  for (const Hop hop : {Hop::kClientToGateway, Hop::kGatewayToServer,
                        Hop::kServerToGateway, Hop::kGatewayToClient}) {
    EXPECT_EQ(lab.topology.link_stats(hop).lost, 0u);
  }
  // The client connects from 49152 to 443; the SYN opens each direction.
  EXPECT_EQ(lab.first_segment[c2s].src_port, 49'152);
  EXPECT_EQ(lab.first_segment[c2s].dst_port, 443);
  EXPECT_TRUE(lab.first_segment[c2s].syn());
  EXPECT_EQ(lab.first_segment[s2c].src_port, 443);
  EXPECT_EQ(lab.first_segment[s2c].dst_port, 49'152);
  EXPECT_TRUE(lab.first_segment[s2c].syn());
}

TEST(Topology, SameSeedGivesIdenticalLinkStats) {
  Lab a(11);
  Lab b(11);
  for (const Hop hop : {Hop::kClientToGateway, Hop::kGatewayToServer,
                        Hop::kServerToGateway, Hop::kGatewayToClient}) {
    const net::Link::Stats& x = a.topology.link_stats(hop);
    const net::Link::Stats& y = b.topology.link_stats(hop);
    EXPECT_EQ(x.sent, y.sent);
    EXPECT_EQ(x.delivered, y.delivered);
    EXPECT_EQ(x.lost, y.lost);
    EXPECT_EQ(x.burst_dropped, y.burst_dropped);
    EXPECT_EQ(x.bytes_sent, y.bytes_sent);
  }
  EXPECT_EQ(a.sim.executed(), b.sim.executed());
}

}  // namespace
}  // namespace h2priv::core
