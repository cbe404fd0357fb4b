// End-to-end stack throughput microbench (the data-path speedometer).
//
// Pushes N MiB of application bytes server->client through the full wire
// path — TLS seal -> TCP segmentation -> links (-> middlebox + monitor) ->
// TCP reassembly -> TLS open — and reports bytes/s, packets/s and heap
// allocations per packet. Two scenarios:
//   direct : client <-> server over two links, no adversary
//   mitm   : the experiment topology's gateway middlebox with the traffic
//            monitor tapping and parsing every packet
//
// Allocation counts come from a process-wide operator new override, so they
// capture every heap allocation on the path (vectors, closures, pool refills
// and misses alike). The BENCH_JSON line records the perf trajectory of the
// hottest loop in the codebase; run bench/collect_bench.py to aggregate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench_common.hpp"
#include "h2priv/core/monitor.hpp"
#include "h2priv/core/topology.hpp"
#include "h2priv/net/link.hpp"
#include "h2priv/obs/export.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/sim/rng.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tcp/connection.hpp"
#include "h2priv/tls/session.hpp"
#include "h2priv/util/bytes.hpp"
#include "h2priv/util/parse_number.hpp"

// ---------------------------------------------------------------------------
// Global allocation counters (single-threaded bench; plain counters).
namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t n) {
  ++g_allocs;
  g_alloc_bytes += n;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) {
  return ::operator new(n);
}
__attribute__((noinline)) void* operator new(std::size_t n, std::align_val_t a) {
  ++g_allocs;
  g_alloc_bytes += n;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n,
              std::align_val_t a) { return ::operator new(n, a); }
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p,
              std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p,
              std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p,
              std::align_val_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p,
              std::align_val_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t,
              std::align_val_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t,
              std::align_val_t) noexcept { std::free(p); }

namespace h2priv {
namespace {

struct ScenarioResult {
  double wall_s = 0.0;
  std::uint64_t app_bytes = 0;
  std::uint64_t packets = 0;     // first-hop packets, both directions
  std::uint64_t allocs = 0;      // operator new calls during the drive loop
  std::uint64_t alloc_bytes = 0;
  std::uint64_t events = 0;

  [[nodiscard]] double bytes_per_s() const {
    return wall_s > 0 ? static_cast<double>(app_bytes) / wall_s : 0.0;
  }
  [[nodiscard]] double packets_per_s() const {
    return wall_s > 0 ? static_cast<double>(packets) / wall_s : 0.0;
  }
  [[nodiscard]] double allocs_per_packet() const {
    return packets > 0 ? static_cast<double>(allocs) / static_cast<double>(packets) : 0.0;
  }
};

/// Pumps `total_bytes` server->client over a started session pair and times
/// the drive loop. `up` and `down` are the stats of each direction's first
/// link.
ScenarioResult drive(sim::Simulator& sim, tls::Session& client_tls,
                     tls::Session& server_tls, const net::Link::Stats& up,
                     const net::Link::Stats& down, std::uint64_t total_bytes) {
  const util::Bytes chunk = util::patterned_bytes(64 * 1024, 0xf00du);
  std::uint64_t remaining = total_bytes;
  std::uint64_t received = 0;

  const auto pump = [&] {
    while (remaining > 0) {
      const std::int64_t cap = server_tls.app_send_capacity();
      if (cap < static_cast<std::int64_t>(chunk.size())) break;
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(remaining, chunk.size()));
      (void)server_tls.send_app(util::BytesView(chunk.data(), n));
      remaining -= n;
    }
  };
  server_tls.on_established = pump;
  server_tls.on_writable = pump;
  client_tls.on_app_data = [&](util::BytesView bytes) { received += bytes.size(); };

  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t alloc_bytes_before = g_alloc_bytes;
  const auto t0 = std::chrono::steady_clock::now();
  while (received < total_bytes && sim.step()) {
  }
  const auto t1 = std::chrono::steady_clock::now();

  ScenarioResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.app_bytes = received;
  r.packets = up.sent + down.sent;
  r.allocs = g_allocs - allocs_before;
  r.alloc_bytes = g_alloc_bytes - alloc_bytes_before;
  r.events = sim.executed();
  if (received < total_bytes) {
    std::fprintf(stderr, "warning: scenario stalled at %llu / %llu bytes\n",
                 static_cast<unsigned long long>(received),
                 static_cast<unsigned long long>(total_bytes));
  }
  return r;
}

std::uint64_t session_secret(std::uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ull + 17;
}

/// client <-> server over two links, no adversary.
ScenarioResult run_direct(std::uint64_t total_bytes, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng(seed);

  tcp::Connection client_tcp(sim,
                             tcp::TcpConfig{.local_port = 49'152, .remote_port = 443});
  tcp::Connection server_tcp(sim,
                             tcp::TcpConfig{.local_port = 443, .remote_port = 49'152});

  net::LinkConfig hop;
  hop.propagation = util::milliseconds(2);
  hop.rate = util::gigabits_per_second(10);
  net::Link c2s(sim, hop, rng.fork(),
                [&](net::Packet&& p) { server_tcp.on_wire(p.segment); });
  net::Link s2c(sim, hop, rng.fork(),
                [&](net::Packet&& p) { client_tcp.on_wire(p.segment); });
  client_tcp.set_segment_out([&](util::SharedBytes wire) {
    c2s.send(net::Packet{0, net::Direction::kClientToServer, std::move(wire)});
  });
  server_tcp.set_segment_out([&](util::SharedBytes wire) {
    s2c.send(net::Packet{0, net::Direction::kServerToClient, std::move(wire)});
  });

  tls::Session client_tls(tls::Role::kClient, session_secret(seed), client_tcp);
  tls::Session server_tls(tls::Role::kServer, session_secret(seed), server_tcp);
  server_tcp.listen();
  client_tcp.connect();
  return drive(sim, client_tls, server_tls, c2s.stats(), s2c.stats(), total_bytes);
}

/// The experiment topology: the gateway middlebox with the traffic monitor
/// tapping and parsing every packet.
ScenarioResult run_mitm(std::uint64_t total_bytes, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  const core::PathConfig path{.client_hop_delay = util::milliseconds(2),
                              .server_hop_delay = util::milliseconds(2),
                              .link_rate = util::gigabits_per_second(10),
                              .jitter_sigma = util::Duration{},
                              .background_loss = 0.0,
                              .egress_burst_capacity = 0};
  core::Topology topology(sim, path, rng, session_secret(seed));
  core::TrafficMonitor monitor(topology.middlebox());
  topology.start();
  return drive(sim, topology.client_tls(), topology.server_tls(),
               topology.link_stats(core::Hop::kClientToGateway),
               topology.link_stats(core::Hop::kServerToGateway), total_bytes);
}

void print_row(const char* name, const ScenarioResult& r) {
  std::printf("%-8s | %8.2f MiB | %7.3f s | %9.2f MiB/s | %8.0f pkt/s | %6.2f allocs/pkt"
              "\n",
              name, static_cast<double>(r.app_bytes) / (1024.0 * 1024.0), r.wall_s,
              r.bytes_per_s() / (1024.0 * 1024.0), r.packets_per_s(),
              r.allocs_per_packet());
}

}  // namespace
}  // namespace h2priv

int main(int argc, char** argv) {
  using namespace h2priv;
  // [MiB] or --mb MiB: a whole number of at least 1, or exit 2.
  std::uint64_t mib = 32;
  for (int i = 1; i < argc; ++i) {
    const bool flag = std::strcmp(argv[i], "--mb") == 0 && i + 1 < argc;
    const char* value = flag ? argv[++i] : argv[i];
    if ((!flag && i != 1) || !util::parse_number(value, mib) || mib == 0) {
      bench::bad_argument(argv[0], flag ? std::string("--mb ") + value : value);
    }
  }
  const std::uint64_t total = mib * 1024 * 1024;

  std::printf("=========================================================================="
              "\n");
  std::printf("stack_throughput — end-to-end wire-path speed (%llu MiB per scenario)\n",
              static_cast<unsigned long long>(mib));
  std::printf("=========================================================================="
              "\n");

  const ScenarioResult direct = run_direct(total, /*seed=*/7);
  const ScenarioResult mitm = run_mitm(total, /*seed=*/7);
  print_row("direct", direct);
  print_row("mitm", mitm);

  std::printf("BENCH_JSON {\"name\":\"stack_throughput\",\"runs\":2,\"jobs\":1,"
              "\"wall_s\":%.3f,\"batch_wall_s\":%.3f,\"events\":%llu,"
              "\"events_per_s\":%.5g,\"metrics\":{"
              "\"mib\":%llu,"
              "\"direct_bytes_per_s\":%.6g,\"direct_pkts_per_s\":%.6g,"
              "\"direct_allocs_per_pkt\":%.4f,"
              "\"mitm_bytes_per_s\":%.6g,\"mitm_pkts_per_s\":%.6g,"
              "\"mitm_allocs_per_pkt\":%.4f}}\n",
              direct.wall_s + mitm.wall_s, direct.wall_s + mitm.wall_s,
              static_cast<unsigned long long>(direct.events + mitm.events),
              static_cast<double>(direct.events + mitm.events) /
                  std::max(1e-9, direct.wall_s + mitm.wall_s),
              static_cast<unsigned long long>(mib), direct.bytes_per_s(),
              direct.packets_per_s(), direct.allocs_per_packet(), mitm.bytes_per_s(),
              mitm.packets_per_s(), mitm.allocs_per_packet());
  // Deterministic per --mb value: both scenarios pump a fixed byte count, so
  // every counter here is a hard gate in collect_bench.py compare.
  std::printf("METRICS_JSON %s\n", obs::to_json(obs::current()).c_str());
  return 0;
}
