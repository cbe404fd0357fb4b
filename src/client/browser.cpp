#include "h2priv/client/browser.hpp"

#include <algorithm>
#include <stdexcept>

namespace h2priv::client {

namespace {

/// A response that started but stopped progressing for this long is
/// stalled -> re-request.
constexpr util::Duration kStreamTimeout = util::milliseconds(1'200);
constexpr double kStallBackoff = 1.4;
/// Reset episodes allowed per page load before giving up.
constexpr std::uint64_t kMaxResetEpisodes = 3;
/// Stall-clock stretch after a reset episode (the transport stack backs
/// off its timers after heavy loss, RFC 6298 §5.5-style).
constexpr double kResetStallMultiplier = 6.0;
/// Pause between the reset episode and the priority re-GET that follows
/// it ("the client resends GET requests if a high priority object is not
/// yet received").
constexpr util::Duration kPostResetDelay = util::milliseconds(1'300);
/// The remaining missing objects are re-requested only after this further
/// delay (the browser waits for the priority object / network recovery).
constexpr util::Duration kPostResetSecondaryDelay = util::milliseconds(1'200);
/// Spacing of those catch-up re-GETs.
constexpr util::Duration kPostResetRequestGap = util::milliseconds(30);

}  // namespace

BrowserConfig BrowserConfig::firefox_like() {
  BrowserConfig c;
  c.h2.local_settings.initial_window_size = 1 << 20;           // 1 MiB per stream
  c.h2.local_settings.max_concurrent_streams = 256;
  c.h2.connection_window_extra = 12 * (1 <<
                                       20) - 65'535;      // ~12 MiB connection window
  return c;
}

Browser::Browser(sim::Simulator& sim, const web::Site& site, web::RequestPlan plan,
                 BrowserConfig config, tls::Session& session, sim::Rng rng)
    : sim_(sim),
      site_(site),
      plan_(std::move(plan)),
      config_(config),
      session_(session),
      rng_(std::move(rng)) {
  conn_ = std::make_unique<h2::Connection>(
      h2::Role::kClient, config_.h2, [this](util::BytesView bytes) -> h2::WireSpan {
        const tls::WireRange range = session_.send_app(bytes);
        return h2::WireSpan{range.begin, range.end};
      });

  // Locate the deferred phase (first deferred item).
  deferred_start_ = plan_.items.size();
  for (std::size_t i = 0; i < plan_.items.size(); ++i) {
    if (plan_.items[i].deferred) {
      deferred_start_ = i;
      break;
    }
  }
  for (const auto& item : plan_.items) {
    progress_[item.object_id].object_id = item.object_id;
  }

  session_.on_established = [this] {
    conn_->start();
    begin_plan();
  };
  session_.on_app_data = [this](util::BytesView bytes) { conn_->on_bytes(bytes); };
  session_.on_closed = [this](tcp::CloseReason reason) {
    if (reason != tcp::CloseReason::kNormal && !stats_.page_complete) {
      mark_broken(reason == tcp::CloseReason::kBroken ? "transport retransmission limit"
                                                      : "transport reset");
    }
  };

  conn_->on_response_headers = [this](std::uint32_t stream_id, const hpack::HeaderList&) {
    const auto it = streams_.find(stream_id);
    if (it == streams_.end()) return;
    ObjectProgress& p = progress_.at(it->second.object_id);
    if (!p.complete) {
      p.response_started = true;
      arm_stall_timer(it->second.object_id);
    }
  };
  conn_->on_data = [this](std::uint32_t stream_id, util::BytesView bytes, bool end) {
    const auto it = streams_.find(stream_id);
    if (it == streams_.end()) return;  // stream we already reset or finished
    const web::ObjectId object_id = it->second.object_id;
    it->second.bytes += bytes.size();
    ObjectProgress& p = progress_.at(object_id);
    if (!p.complete) {
      p.bytes_received = std::max(p.bytes_received, it->second.bytes);
      arm_stall_timer(object_id);  // progress: push the stall horizon out
    }
    if (end) {
      streams_.erase(it);
      if (!p.complete) on_object_complete(object_id);
    }
  };
  conn_->on_rst_stream = [this](std::uint32_t stream_id, h2::ErrorCode) {
    streams_.erase(stream_id);
  };
  conn_->on_push_promise = [this](std::uint32_t, std::uint32_t promised,
                                  const hpack::HeaderList& headers) {
    // Accept the pushed resource: route its stream to the matching object so
    // its delivery satisfies the plan without a request of ours.
    for (const hpack::Header& h : headers) {
      if (h.name != ":path") continue;
      if (const web::SiteObject* object = site_.find_by_path(h.value)) {
        if (const auto it = progress_.find(object->id); it != progress_.end()) {
          streams_.emplace(promised, PendingStream{object->id, 0});
          it->second.requested = true;
          it->second.response_started = true;
        }
      }
    }
  };
}

const Browser::ObjectProgress& Browser::progress(web::ObjectId id) const {
  const auto it = progress_.find(id);
  if (it == progress_.end()) throw std::out_of_range("Browser::progress: unknown object");
  return it->second;
}

void Browser::begin_plan() {
  util::Duration at{};
  for (std::size_t i = 0; i < deferred_start_; ++i) {
    at += plan_.items[i].gap_before;
    schedule_item(i, at);
  }
}

void Browser::schedule_item(std::size_t index, util::Duration delay) {
  sim_.schedule(delay, [this, index] {
    if (stats_.broken) return;
    // Already satisfied from cache (e.g. a server push): no request needed.
    if (progress_.at(plan_.items[index].object_id).complete) return;
    issue_request(plan_.items[index].object_id, /*is_rerequest=*/false);
  });
}

void Browser::issue_request(web::ObjectId object_id, bool is_rerequest) {
  if (!session_.established()) return;
  const web::SiteObject& object = site_.object(object_id);
  const std::uint32_t stream_id = conn_->send_request({
      {":method", "GET"},
      {":scheme", "https"},
      {":authority", "www.isidewith.com"},
      {":path", object.path},
      {"user-agent", "Mozilla/5.0 (sim) Gecko/20100101 Firefox/74.0"},
      {"accept", "*/*"},
  });
  streams_.emplace(stream_id, PendingStream{object_id, 0});

  ObjectProgress& p = progress_.at(object_id);
  if (!p.requested) {
    p.requested = true;
    p.first_request_time = sim_.now();
    ++stats_.requests_sent;
  }
  if (is_rerequest) {
    ++p.rerequests;
    ++stats_.rerequests_sent;
  }
  if (!p.complete) arm_stall_timer(object_id);
}

void Browser::arm_stall_timer(web::ObjectId object_id) {
  cancel_stall_timer(object_id);
  const ObjectProgress& p = progress_.at(object_id);
  util::Duration base =
      p.response_started ? kStreamTimeout : config_.pending_timeout;
  if (!p.response_started) {
    // Unanswered requests back off per retry (stall_current_ holds the
    // stretched value once a retry fired).
    if (const auto it = stall_current_.find(object_id); it != stall_current_.end()) {
      base = it->second;
    }
  }
  const util::Duration timeout{static_cast<std::int64_t>(
      static_cast<double>(base.ns) * patience_)};
  stall_timers_[object_id] =
      sim_.schedule(timeout, [this, object_id] { on_stall(object_id); });
}

void Browser::cancel_stall_timer(web::ObjectId object_id) {
  if (const auto it = stall_timers_.find(object_id); it != stall_timers_.end()) {
    sim_.cancel(it->second);
    stall_timers_.erase(it);
  }
}

void Browser::on_stall(web::ObjectId object_id) {
  stall_timers_.erase(object_id);
  ObjectProgress& p = progress_.at(object_id);
  if (p.complete || stats_.broken) return;

  if (p.rerequests < config_.max_rerequests_per_object) {
    // The paper's "TCP fast-retransmit" analogue: fire the GET again; the
    // server will serve another copy concurrently.
    auto [it, inserted] = stall_current_.try_emplace(object_id, config_.pending_timeout);
    it->second = util::Duration{static_cast<std::int64_t>(
        static_cast<double>(it->second.ns) * kStallBackoff)};
    issue_request(object_id, /*is_rerequest=*/true);
    return;
  }
  reset_episode(object_id);
}

void Browser::reset_episode(web::ObjectId trigger_object) {
  if (stats_.reset_episodes >= kMaxResetEpisodes) {
    mark_broken("reset episodes exhausted");
    return;
  }
  ++stats_.reset_episodes;

  // RST_STREAM everything still open: the server flushes those queues.
  std::vector<std::uint32_t> open;
  open.reserve(streams_.size());
  for (const auto& [stream_id, pending] : streams_) open.push_back(stream_id);
  for (const std::uint32_t stream_id : open) {
    conn_->rst_stream(stream_id, h2::ErrorCode::kCancel);
    ++stats_.rst_streams_sent;
  }
  streams_.clear();
  for (auto& [object_id, timer] : stall_timers_) sim_.cancel(timer);
  stall_timers_.clear();

  // Back off the stall clock (the TCP stack raises its timers after loss) and
  // allow a fresh re-request budget for what is still missing.
  patience_ *= kResetStallMultiplier;
  stall_current_.clear();
  for (auto& [object_id, p] : progress_) {
    if (!p.complete) p.response_started = false;  // reset streams died with their data
  }

  std::vector<web::ObjectId> missing;
  for (const auto& [object_id, p] : progress_) {
    if (p.requested && !p.complete && object_id != trigger_object) {
      missing.push_back(object_id);
    }
  }
  // The high-priority object is re-requested first, on its own; the rest of
  // the catch-up follows after the network has had a chance to recover.
  const auto re_get = [this](web::ObjectId object_id) {
    if (stats_.broken || progress_.at(object_id).complete) return;
    progress_.at(object_id).rerequests = 0;
    issue_request(object_id, /*is_rerequest=*/true);
  };
  if (!progress_.at(trigger_object).complete) {
    sim_.schedule(kPostResetDelay, [re_get, trigger_object] { re_get(trigger_object); });
  }
  util::Duration at = kPostResetDelay + kPostResetSecondaryDelay;
  for (const web::ObjectId object_id : missing) {
    sim_.schedule(at, [re_get, object_id] { re_get(object_id); });
    at += kPostResetRequestGap;
  }
}

void Browser::on_object_complete(web::ObjectId object_id) {
  ObjectProgress& p = progress_.at(object_id);
  p.complete = true;
  p.complete_time = sim_.now();
  cancel_stall_timer(object_id);
  stall_current_.erase(object_id);

  // Script-driven phase: the emblem requests fire after the HTML completes.
  if (!deferred_triggered_ && plan_.trigger_object != 0 &&
      object_id == plan_.trigger_object) {
    deferred_triggered_ = true;
    util::Duration at = plan_.trigger_delay;
    for (std::size_t i = deferred_start_; i < plan_.items.size(); ++i) {
      at += plan_.items[i].gap_before;
      schedule_item(i, at);
    }
  }
  check_page_complete();
}

void Browser::check_page_complete() {
  for (const auto& item : plan_.items) {
    if (!progress_.at(item.object_id).complete) return;
  }
  if (stats_.page_complete) return;
  stats_.page_complete = true;
  stats_.page_complete_time = sim_.now();
  if (on_page_complete) on_page_complete();
}

void Browser::mark_broken(std::string reason) {
  if (stats_.broken) return;
  stats_.broken = true;
  for (auto& [object_id, timer] : stall_timers_) sim_.cancel(timer);
  stall_timers_.clear();
  if (on_broken) on_broken(std::move(reason));
}

}  // namespace h2priv::client
