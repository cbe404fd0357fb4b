// Multi-threaded HTTP/2 web server model.
//
// Each accepted request spawns a *handler* (the paper's "server thread",
// Fig. 3). A scheduler pumps the active handlers into the connection:
//  - kRoundRobin  — one chunk per handler per turn: interleaved DATA frames,
//                   the multiplexing the privacy schemes rely on;
//  - kSequential  — one handler runs to completion before the next starts
//                   (HTTP/1.1-style head-of-line behaviour, the baseline).
// Client priority signals (PRIORITY frames, HEADERS priority fields) are
// advisory under RFC 7540 §5.3 and ignored: no browser model sends them.
// Pumping is driven by transport backpressure: the scheduler fills the TCP
// send buffer to a target depth and resumes on the writable callback.
//
// Response bytes wait only here: a handler keeps its body view and offset,
// h2::Connection::send_data writes what flow control allows, and a handler
// whose window is closed waits for the connection's on_window_update. An
// RST_STREAM drops the handler, and with it every byte not yet written: the
// queue flush of the paper's Fig. 6.
//
// A duplicate GET for an object already being served spawns a *new* handler
// on the new stream — the paper's observed behaviour under request
// retransmission (DESIGN.md §2) and the source of "intensified multiplexing".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/defense/defense.hpp"
#include "h2priv/h2/connection.hpp"
#include "h2priv/sim/rng.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tls/session.hpp"
#include "h2priv/web/site.hpp"

namespace h2priv::server {

enum class InterleavePolicy : std::uint8_t {
  kRoundRobin,
  kSequential,
};

[[nodiscard]] const char* to_string(InterleavePolicy p) noexcept;

struct ServerConfig {
  h2::ConnectionConfig h2{};
  InterleavePolicy policy = InterleavePolicy::kRoundRobin;
  /// Bytes a handler writes per scheduler turn (interleaving granularity).
  std::size_t chunk_bytes = 4'096;

  /// Extra origin-side delay added to an object's dispatch latency before
  /// its handler starts writing — how an upstream tier (the fleet's caching
  /// reverse proxy) injects per-path miss/revalidation cost without touching
  /// the wire model. Must be a pure function of the path: it is consulted on
  /// every request, including browser re-GETs after resets, and determinism
  /// across replays depends on it returning the same value each time.
  /// Empty (the default) adds nothing and is byte-identical to no hook.
  std::function<util::Duration(const std::string& path)> origin_delay;

  /// Server push: when a request for a key path arrives, push the mapped
  /// resources unasked (RFC 7540 §8.2). The push order is shuffled per
  /// request — the Section VII privacy idea: the secret request order never
  /// reaches the wire.
  std::map<std::string, std::vector<std::string>> push_map;

  /// Defense knobs this server enforces (src/defense): DATA padding policy
  /// (installed as the connection's pad provider), constant-rate pacing
  /// with burst coalescing (pump on a fixed shape_interval clock, at most
  /// shape_rate * shape_interval bytes per tick), and randomized stream
  /// prioritization. Default-constructed = undefended, byte-identical to
  /// the pre-defense server.
  defense::DefenseConfig defense{};
};

class H2Server {
 public:
  /// `truth` may be null (no ground-truth recording, e.g. microbenches).
  H2Server(sim::Simulator& sim, const web::Site& site, ServerConfig config,
           tls::Session& session, sim::Rng rng, analysis::GroundTruth* truth);

  [[nodiscard]] h2::Connection& connection() noexcept { return *conn_; }
  [[nodiscard]] std::size_t active_handlers() const noexcept { return handlers_.size(); }

  struct ServerStats {
    std::uint64_t duplicate_requests = 0;
  };
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }

  /// Fires when a response's last byte is written to the connection (not yet
  /// ACKed).
  std::function<void(web::ObjectId, std::uint32_t stream_id)> on_response_complete;

 private:
  struct Handler {
    std::uint32_t stream_id = 0;
    web::ObjectId object_id = 0;
    analysis::InstanceId instance = 0;
    /// View into the server's per-object body cache (which outlives every
    /// handler) — re-requests and reset episodes re-serve the same object
    /// without regenerating or copying its body.
    util::BytesView body;
    std::size_t offset = 0;
    bool started = false;       // dispatch latency elapsed
    bool headers_sent = false;  // emitted with the first body write

    [[nodiscard]] std::size_t remaining() const noexcept { return body.size() - offset; }
  };

  void on_request(std::uint32_t stream_id, const hpack::HeaderList& headers);
  void push_mapped_resources(std::uint32_t parent_stream, const std::string& path);
  void start_handler(std::uint32_t stream_id);
  void spawn_handler(std::uint32_t stream_id, const web::SiteObject& object,
                     bool duplicate);
  void schedule_pump();
  void pump();
  /// Offers the handler's next chunk to the connection and advances its
  /// offset by what was written; returns true if the handler finished.
  bool write_chunk(Handler& h, std::size_t chunk);
  [[nodiscard]] bool shaping() const noexcept { return config_.defense.shaping(); }

  sim::Simulator& sim_;
  const web::Site& site_;
  ServerConfig config_;
  tls::Session& session_;
  sim::Rng rng_;
  /// Dedicated stream for pad-length draws — forked from rng_ only when a
  /// padding policy is active, so undefended runs never perturb rng_.
  std::optional<sim::Rng> pad_rng_;
  analysis::GroundTruth* truth_;
  std::unique_ptr<h2::Connection> conn_;
  [[nodiscard]] util::BytesView cached_body(const web::SiteObject& object);

  std::map<std::uint32_t, Handler> handlers_;  // keyed by stream id
  /// Generated-once object bodies (deterministic, so caching cannot change
  /// wire bytes). Never erased: handler views must stay valid for the
  /// connection's lifetime.
  std::map<web::ObjectId, util::Bytes> body_cache_;
  std::map<web::ObjectId, int> serve_counts_;  // duplicate detection
  std::deque<std::uint32_t> rr_order_;         // round-robin turn order
  bool pump_scheduled_ = false;
  /// The pump held a handler back on a closed send window; the next
  /// window update re-arms it.
  bool window_blocked_ = false;
  /// Shaping clock: the pacing tick the next pump may run at, and the byte
  /// budget one tick may emit (shape_rate * shape_interval).
  util::TimePoint next_shape_tick_{};
  std::int64_t shape_budget_ = 0;
  ServerStats stats_;
};

}  // namespace h2priv::server
