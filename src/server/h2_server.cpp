#include "h2priv/server/h2_server.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace h2priv::server {

namespace {

/// Fixed request-dispatch overhead added to every object's own
/// service_time before a handler starts writing.
constexpr util::Duration kHandlerStartLatency = util::microseconds(150);
/// Random spread of the dispatch overhead (thread scheduling noise); the
/// object's service_time additionally contributes service_time/6 of sigma.
constexpr util::Duration kHandlerStartSigma = util::microseconds(50);
/// Keep at most this many plaintext bytes buffered in the transport; the
/// scheduler pauses above it and resumes on writability. Must sit above
/// the transport's writable watermark or the resume callback never fires.
constexpr std::int64_t kTransportBacklogTarget = 16 * 1024;
static_assert(kTransportBacklogTarget > tcp::kWritableWatermark);

}  // namespace

const char* to_string(InterleavePolicy p) noexcept {
  switch (p) {
    case InterleavePolicy::kRoundRobin: return "round-robin";
    case InterleavePolicy::kSequential: return "sequential";
  }
  return "?";
}

H2Server::H2Server(sim::Simulator& sim, const web::Site& site, ServerConfig config,
                   tls::Session& session, sim::Rng rng, analysis::GroundTruth* truth)
    : sim_(sim),
      site_(site),
      config_(config),
      session_(session),
      rng_(std::move(rng)),
      truth_(truth) {
  conn_ = std::make_unique<h2::Connection>(
      h2::Role::kServer, config_.h2, [this](util::BytesView bytes) -> h2::WireSpan {
        const tls::WireRange range = session_.send_app(bytes);
        return h2::WireSpan{range.begin, range.end};
      });

  session_.on_established = [this] { conn_->start(); };
  session_.on_app_data = [this](util::BytesView bytes) { conn_->on_bytes(bytes); };
  session_.on_writable = [this] { schedule_pump(); };

  if (config_.defense.padding != defense::PaddingPolicy::kNone) {
    pad_rng_.emplace(rng_.fork());
    conn_->data_pad_provider = [this](std::size_t payload_len) {
      return defense::data_pad_length(config_.defense, payload_len, *pad_rng_);
    };
  }
  if (shaping()) {
    shape_budget_ = std::max<std::int64_t>(
        1, config_.defense.shape_rate.bits_per_sec *
               config_.defense.shape_interval.ns / (8 * 1'000'000'000LL));
  }

  conn_->on_request = [this](std::uint32_t stream_id, const hpack::HeaderList& headers,
                             bool /*end_stream*/) { on_request(stream_id, headers); };
  conn_->on_rst_stream = [this](std::uint32_t stream_id, h2::ErrorCode) {
    handlers_.erase(stream_id);
    rr_order_.erase(std::remove(rr_order_.begin(), rr_order_.end(), stream_id),
                    rr_order_.end());
  };
  conn_->on_window_update = [this](std::uint32_t) {
    if (!window_blocked_) return;
    window_blocked_ = false;
    schedule_pump();
  };

  if (truth_ != nullptr) {
    // Only a live handler writes HEADERS or DATA, so its entry names the
    // instance every such frame belongs to.
    conn_->on_frame_sent = [this](std::uint32_t stream_id, h2::FrameType type,
                                  h2::WireSpan span) {
      const auto it = handlers_.find(stream_id);
      if (it == handlers_.end()) return;
      if (type == h2::FrameType::kData) {
        truth_->record_data(it->second.instance, span);
      } else if (type == h2::FrameType::kHeaders) {
        truth_->record_headers(it->second.instance, span);
      }
    };
  }
}

void H2Server::on_request(std::uint32_t stream_id, const hpack::HeaderList& headers) {
  std::string path;
  for (const hpack::Header& h : headers) {
    if (h.name == ":path") path = h.value;
  }
  const web::SiteObject* object = site_.find_by_path(path);
  if (object == nullptr) {
    conn_->send_response_headers(stream_id, {{":status", "404"}}, /*end_stream=*/true);
    return;
  }

  const bool duplicate = serve_counts_[object->id]++ > 0;
  if (duplicate) ++stats_.duplicate_requests;
  spawn_handler(stream_id, *object, duplicate);
  push_mapped_resources(stream_id, path);
}

util::BytesView H2Server::cached_body(const web::SiteObject& object) {
  const auto it = body_cache_.find(object.id);
  if (it != body_cache_.end()) return it->second;
  return body_cache_.emplace(object.id, object.body()).first->second;
}

void H2Server::spawn_handler(std::uint32_t stream_id, const web::SiteObject& object,
                             bool duplicate) {
  Handler h;
  h.stream_id = stream_id;
  h.object_id = object.id;
  h.body = cached_body(object);
  if (truth_ != nullptr) {
    h.instance = truth_->register_instance(object.id, stream_id, duplicate);
  }
  handlers_.emplace(stream_id, std::move(h));

  // Thread-dispatch latency plus the object's own service time before the
  // handler's first write (Fig. 3). Dynamic pages take tens of ms here. An
  // upstream tier (fleet cache proxy) may add per-path origin delay on top.
  util::Duration mean = kHandlerStartLatency + object.service_time;
  if (config_.origin_delay) mean = mean + config_.origin_delay(object.path);
  const util::Duration sigma = kHandlerStartSigma + object.service_time / 6;
  const util::Duration latency = rng_.jittered(mean, sigma, util::microseconds(20));
  sim_.schedule(latency, [this, stream_id] { start_handler(stream_id); });
}

void H2Server::push_mapped_resources(std::uint32_t parent_stream,
                                     const std::string& path) {
  const auto it = config_.push_map.find(path);
  if (it == config_.push_map.end()) return;
  if (!conn_->peer_settings().enable_push) return;

  std::vector<std::string> paths = it->second;
  rng_.shuffle(paths);
  for (const std::string& push_path : paths) {
    const web::SiteObject* object = site_.find_by_path(push_path);
    if (object == nullptr) continue;
    if (serve_counts_[object->id] > 0) continue;  // already served or pushed
    const std::uint32_t promised = conn_->push_promise(parent_stream, {
        {":method", "GET"},
        {":scheme", "https"},
        {":authority", "www.isidewith.com"},
        {":path", push_path},
    });
    ++serve_counts_[object->id];
    spawn_handler(promised, *object, /*duplicate=*/false);
  }
}

void H2Server::start_handler(std::uint32_t stream_id) {
  const auto it = handlers_.find(stream_id);
  if (it == handlers_.end()) return;  // stream was reset while dispatching
  it->second.started = true;
  rr_order_.push_back(stream_id);
  schedule_pump();
}

void H2Server::schedule_pump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  // Shaped servers wake only on the pacing clock: whatever triggered the
  // pump (writability, a full write, a fresh handler), emission waits
  // for the next tick, so bursts coalesce and the rate cap holds.
  util::Duration delay{0};
  if (shaping() && next_shape_tick_ > sim_.now()) {
    delay = next_shape_tick_ - sim_.now();
  }
  sim_.schedule(delay, [this] {
    pump_scheduled_ = false;
    pump();
  });
}

bool H2Server::write_chunk(Handler& h, std::size_t chunk) {
  if (!h.headers_sent) {
    // Response headers ride immediately ahead of the first body bytes, as a
    // real server's first write does.
    const web::SiteObject& object = site_.object(h.object_id);
    conn_->send_response_headers(h.stream_id, {
        {":status", "200"},
        {"content-type", object.content_type},
        {"content-length", std::to_string(object.size)},
        {"server", "h2priv-sim/1.0"},
    });
    h.headers_sent = true;
  }
  const std::size_t n = std::min(chunk, h.remaining());
  const bool last = n == h.remaining();
  const std::size_t written = conn_->send_data(h.stream_id, h.body.subspan(h.offset, n),
                                               last);
  h.offset += written;
  if (written < n) return false;  // window closed: the rest waits in the body view
  // A full write re-arms the pump (a no-op while one is pending). Many of
  // these pumps write nothing, but dropping them would move the event order
  // the golden traces pin.
  schedule_pump();
  return last;
}

void H2Server::pump() {
  if (!session_.established()) return;
  // Shaped emission: one tick writes at most shape_budget_ body bytes, then
  // waits for the next tick — a constant-rate, burst-coalesced schedule.
  const bool shaped = shaping();
  std::int64_t budget = shaped ? shape_budget_ : std::numeric_limits<std::int64_t>::max();
  if (shaped) next_shape_tick_ = sim_.now() + config_.defense.shape_interval;

  while (!rr_order_.empty() && budget > 0) {
    const std::int64_t backlog =
        tcp::kSendBufferLimit - session_.transport().send_capacity();
    if (backlog >= kTransportBacklogTarget) {
      if (!shaped) return;  // resume on writable
      break;                // keep the pacing clock armed below
    }

    // Pick this chunk's handler: the front of the turn order, or — with
    // randomized prioritization — a uniform draw over the started set, so
    // the wire interleaving decouples from request arrival order.
    std::size_t pick = 0;
    if (config_.defense.randomize_priority && rr_order_.size() > 1 &&
        config_.policy != InterleavePolicy::kSequential) {
      pick = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(rr_order_.size()) - 1));
    }
    const std::uint32_t stream_id = rr_order_[pick];
    const std::size_t chunk = config_.chunk_bytes;

    Handler& h = handlers_.at(stream_id);
    // HTTP/2 flow control has this stream's window closed: rotate past it
    // (or, sequentially, wait for it) until a WINDOW_UPDATE reopens one.
    if (conn_->send_window(stream_id) <= 0) {
      window_blocked_ = true;
      if (config_.policy == InterleavePolicy::kSequential) {
        if (!shaped) return;
        break;
      }
      rr_order_.erase(rr_order_.begin() + static_cast<std::ptrdiff_t>(pick));
      rr_order_.push_back(stream_id);
      // If every handler is blocked we would spin; detect a full cycle.
      const bool any_open =
          std::any_of(rr_order_.begin(), rr_order_.end(),
                      [this](std::uint32_t id) { return conn_->send_window(id) > 0; });
      if (any_open) continue;
      if (!shaped) return;  // resume on on_window_update
      break;
    }

    budget -= static_cast<std::int64_t>(std::min(chunk, h.remaining()));
    const bool finished = write_chunk(h, chunk);
    if (finished) {
      if (truth_ != nullptr && h.instance != 0) truth_->mark_complete(h.instance);
      if (on_response_complete) on_response_complete(h.object_id, stream_id);
      rr_order_.erase(std::remove(rr_order_.begin(), rr_order_.end(), stream_id),
                      rr_order_.end());
      handlers_.erase(stream_id);
    } else if (config_.policy != InterleavePolicy::kSequential) {
      rr_order_.erase(rr_order_.begin() + static_cast<std::ptrdiff_t>(pick));
      rr_order_.push_back(stream_id);
    }
  }
  // Shaped servers with work left re-arm on the pacing clock (unshaped ones
  // resume on writability, full writes and window updates instead).
  if (shaped && !rr_order_.empty()) schedule_pump();
}

}  // namespace h2priv::server
