// The lab topology of the paper's Section V, built in one place:
//
//   client TCP/TLS  --c->gw-->  gateway (net::Middlebox)  --gw->s-->  server TCP/TLS
//                   <--gw->c--                            <--s->gw--
//
// The gateway is the compromised device (the adversary's tc/tshark vantage
// point); only its egress toward the client is contended. run_once and every
// bench that needs a victim, a gateway and a server build their stack here;
// what runs on top (browser, h2 server, raw h2 client, monitor, controller)
// stays with the caller.
#pragma once

#include <cstdint>

#include "h2priv/net/link.hpp"
#include "h2priv/net/middlebox.hpp"
#include "h2priv/sim/rng.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tcp/connection.hpp"
#include "h2priv/tls/session.hpp"
#include "h2priv/util/units.hpp"

namespace h2priv::core {

struct PathConfig {
  /// Client <-> middlebox hop (the lab LAN to the gateway).
  util::Duration client_hop_delay{util::milliseconds(2)};
  /// Middlebox <-> server hop (gateway to a CDN-fronted webserver).
  util::Duration server_hop_delay{util::milliseconds(18)};
  util::BitRate link_rate{util::gigabits_per_second(1)};
  /// Background propagation noise per packet.
  util::Duration jitter_sigma{util::microseconds(100)};
  /// Real paths lose the occasional packet; this also gives Table I a
  /// non-zero retransmission baseline to report increases against.
  double background_loss = 0.0004;

  /// Gateway-egress contention (toward the client): bursts above this many
  /// packets per 1 ms window suffer drop-tail loss (topology.cpp). Upstream
  /// shaping (the adversary's bandwidth limit) smooths arrivals under the
  /// threshold — the paper's Fig. 5 mechanism. 0 disables.
  int egress_burst_capacity = 70;       // ~840 Mbps sustained in 1 ms windows
};

/// The four links, in the order the constructor forks their Rngs.
enum class Hop : std::uint8_t {
  kClientToGateway,
  kGatewayToServer,
  kServerToGateway,
  kGatewayToClient,  ///< the contended egress
};

class Topology {
 public:
  /// Forks `rng` once per link, in Hop order. The client connects from port
  /// 49152 to the server's 443 (`client_tcp`'s ports are overwritten); both
  /// TLS sessions share `session_secret`. Packets are numbered 1, 2, ... in
  /// send order across both directions.
  Topology(sim::Simulator& sim, const PathConfig& path, sim::Rng& rng,
           std::uint64_t session_secret, tcp::TcpConfig client_tcp = {});

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Server listen(), then client connect(): the SYN leaves at once.
  void start();

  /// The gateway: attach taps, the monitor and the controller here.
  [[nodiscard]] net::Middlebox& middlebox() noexcept { return middlebox_; }
  [[nodiscard]] tcp::Connection& client_tcp() noexcept { return client_tcp_; }
  [[nodiscard]] tcp::Connection& server_tcp() noexcept { return server_tcp_; }
  [[nodiscard]] tls::Session& client_tls() noexcept { return client_tls_; }
  [[nodiscard]] tls::Session& server_tls() noexcept { return server_tls_; }
  [[nodiscard]] const net::Link::Stats& link_stats(Hop hop) const noexcept;

 private:
  net::Middlebox middlebox_;
  tcp::Connection client_tcp_;
  tcp::Connection server_tcp_;
  // Declaration order is Rng fork order (Hop order).
  net::Link c2g_;
  net::Link g2s_;
  net::Link s2g_;
  net::Link g2c_;
  tls::Session client_tls_;
  tls::Session server_tls_;
  std::uint64_t next_packet_id_ = 0;
};

}  // namespace h2priv::core
