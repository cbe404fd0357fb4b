#include "tcp_pair.hpp"

namespace h2priv::testing {

TcpPair::TcpPair(TcpPairConfig config) {
  sim::Rng rng(config.seed);

  config.client_tcp.local_port = 40'000;
  config.client_tcp.remote_port = 443;
  config.server_tcp.local_port = 443;
  config.server_tcp.remote_port = 40'000;

  client = std::make_unique<tcp::Connection>(sim, config.client_tcp);
  server = std::make_unique<tcp::Connection>(sim, config.server_tcp);

  net::LinkConfig link_cfg;
  link_cfg.propagation = config.delay;
  link_cfg.loss_probability = config.loss;
  link_cfg.jitter_sigma = config.jitter_sigma;

  c2s = std::make_unique<net::Link>(sim, link_cfg, rng.fork(), [this](net::Packet&& p) {
    server->on_wire(p.segment);
  });
  s2c = std::make_unique<net::Link>(sim, link_cfg, rng.fork(), [this](net::Packet&& p) {
    client->on_wire(p.segment);
  });

  client->set_segment_out([this](util::SharedBytes wire) {
    c2s->send(net::Packet{0, net::Direction::kClientToServer, std::move(wire)});
  });
  server->set_segment_out([this](util::SharedBytes wire) {
    s2c->send(net::Packet{0, net::Direction::kServerToClient, std::move(wire)});
  });
}

bool TcpPair::establish(util::Duration budget) {
  server->listen();
  client->connect();
  const util::TimePoint deadline = sim.now() + budget;
  while (sim.now() < deadline && (!client->established() || !server->established())) {
    if (!sim.step()) break;
  }
  return client->established() && server->established();
}

}  // namespace h2priv::testing
