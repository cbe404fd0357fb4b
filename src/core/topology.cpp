#include "h2priv/core/topology.hpp"

#include <utility>

namespace h2priv::core {

namespace {

constexpr std::uint16_t kClientPort = 49'152;
constexpr std::uint16_t kServerPort = 443;

/// Gateway-egress contention window and the loss each packet above
/// PathConfig::egress_burst_capacity in one window suffers.
constexpr util::Duration kEgressBurstWindow = util::milliseconds(1);
constexpr double kEgressBurstLoss = 0.5;

net::LinkConfig link_config(const PathConfig& path, Hop hop) {
  net::LinkConfig c;
  const bool client_side = hop == Hop::kClientToGateway || hop == Hop::kGatewayToClient;
  c.propagation = client_side ? path.client_hop_delay : path.server_hop_delay;
  c.rate = path.link_rate;
  c.jitter_sigma = path.jitter_sigma;
  c.loss_probability = path.background_loss;
  if (hop == Hop::kGatewayToClient) {
    // The gateway's egress toward the client is the shared, contended hop.
    c.burst_capacity_packets = path.egress_burst_capacity;
    c.burst_window = kEgressBurstWindow;
    c.burst_excess_loss = kEgressBurstLoss;
  }
  return c;
}

tcp::TcpConfig with_ports(tcp::TcpConfig c, std::uint16_t local, std::uint16_t remote) {
  c.local_port = local;
  c.remote_port = remote;
  return c;
}

}  // namespace

Topology::Topology(sim::Simulator& sim, const PathConfig& path, sim::Rng& rng,
                   std::uint64_t session_secret, tcp::TcpConfig client_tcp)
    : middlebox_(sim),
      client_tcp_(sim, with_ports(client_tcp, kClientPort, kServerPort)),
      server_tcp_(sim, with_ports({}, kServerPort, kClientPort)),
      c2g_(sim, link_config(path, Hop::kClientToGateway), rng.fork(),
           [this](net::Packet&& p) {
             middlebox_.process(net::Direction::kClientToServer, std::move(p));
           }),
      g2s_(sim, link_config(path, Hop::kGatewayToServer), rng.fork(),
           [this](net::Packet&& p) { server_tcp_.on_wire(p.segment); }),
      s2g_(sim, link_config(path, Hop::kServerToGateway), rng.fork(),
           [this](net::Packet&& p) {
             middlebox_.process(net::Direction::kServerToClient, std::move(p));
           }),
      g2c_(sim, link_config(path, Hop::kGatewayToClient), rng.fork(),
           [this](net::Packet&& p) { client_tcp_.on_wire(p.segment); }),
      client_tls_(tls::Role::kClient, session_secret, client_tcp_),
      server_tls_(tls::Role::kServer, session_secret, server_tcp_) {
  middlebox_.set_output(net::Direction::kClientToServer,
                        [this](net::Packet&& p) { g2s_.send(std::move(p)); });
  middlebox_.set_output(net::Direction::kServerToClient,
                        [this](net::Packet&& p) { g2c_.send(std::move(p)); });
  client_tcp_.set_segment_out([this](util::SharedBytes wire) {
    c2g_.send(net::Packet{++next_packet_id_, net::Direction::kClientToServer,
                          std::move(wire)});
  });
  server_tcp_.set_segment_out([this](util::SharedBytes wire) {
    s2g_.send(net::Packet{++next_packet_id_, net::Direction::kServerToClient,
                          std::move(wire)});
  });
}

void Topology::start() {
  server_tcp_.listen();
  client_tcp_.connect();
}

const net::Link::Stats& Topology::link_stats(Hop hop) const noexcept {
  switch (hop) {
    case Hop::kClientToGateway: return c2g_.stats();
    case Hop::kGatewayToServer: return g2s_.stats();
    case Hop::kServerToGateway: return s2g_.stats();
    case Hop::kGatewayToClient: break;
  }
  return g2c_.stats();
}

}  // namespace h2priv::core
