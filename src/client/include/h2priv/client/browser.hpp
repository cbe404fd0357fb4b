// Browser model (Firefox-like HTTP/2 client).
//
// Executes a web::RequestPlan over one HTTP/2 connection and reacts to
// network trouble the way the paper's client does:
//  - *stalled response* -> re-issue the GET on a fresh stream (the paper's
//    "retransmission requests"; each one spawns another server thread and
//    intensifies multiplexing, Fig. 4),
//  - *persistent stall* (re-requests exhausted) -> reset episode: RST_STREAM
//    every open response stream (the server flushes its queues), back off
//    the stall clock, then re-GET what is still missing (Fig. 6),
//  - transport death -> the page load is marked broken.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "h2priv/h2/connection.hpp"
#include "h2priv/sim/rng.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tls/session.hpp"
#include "h2priv/web/site.hpp"

namespace h2priv::client {

struct BrowserConfig {
  h2::ConnectionConfig h2{};
  /// A request with NO response bytes at all for this long is presumed lost
  /// -> re-request (grows by backoff per retry). This is the clock the
  /// adversary's request spacing provokes into "fast retransmit" storms.
  util::Duration pending_timeout{util::milliseconds(800)};
  /// Re-requests per object before escalating to a reset episode.
  int max_rerequests_per_object = 1;

  /// Firefox-like defaults: a large connection window and stream windows so
  /// flow control does not mask the multiplexing dynamics under test.
  [[nodiscard]] static BrowserConfig firefox_like();
};

class Browser {
 public:
  Browser(sim::Simulator& sim, const web::Site& site, web::RequestPlan plan,
          BrowserConfig config, tls::Session& session, sim::Rng rng);

  struct ObjectProgress {
    web::ObjectId object_id = 0;
    bool requested = false;
    bool response_started = false;  ///< headers or bytes seen for some copy
    bool complete = false;
    int rerequests = 0;
    std::size_t bytes_received = 0;      // best stream's count
    util::TimePoint first_request_time{};
    util::TimePoint complete_time{};
  };

  struct BrowserStats {
    std::uint64_t requests_sent = 0;       // initial GETs
    std::uint64_t rerequests_sent = 0;     // the paper's "retransmission requests"
    std::uint64_t reset_episodes = 0;
    std::uint64_t rst_streams_sent = 0;
    bool page_complete = false;
    bool broken = false;
    util::TimePoint page_complete_time{};
  };

  [[nodiscard]] const BrowserStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ObjectProgress& progress(web::ObjectId id) const;
  [[nodiscard]] h2::Connection& connection() noexcept { return *conn_; }

  std::function<void()> on_page_complete;
  std::function<void(std::string reason)> on_broken;

 private:
  struct PendingStream {
    web::ObjectId object_id = 0;
    std::size_t bytes = 0;
  };

  void begin_plan();
  void schedule_item(std::size_t index, util::Duration delay);
  void issue_request(web::ObjectId object_id, bool is_rerequest);
  void arm_stall_timer(web::ObjectId object_id);
  void cancel_stall_timer(web::ObjectId object_id);
  void on_stall(web::ObjectId object_id);
  void reset_episode(web::ObjectId trigger_object);
  void on_object_complete(web::ObjectId object_id);
  void check_page_complete();
  void mark_broken(std::string reason);

  sim::Simulator& sim_;
  const web::Site& site_;
  web::RequestPlan plan_;
  BrowserConfig config_;
  tls::Session& session_;
  sim::Rng rng_;
  std::unique_ptr<h2::Connection> conn_;

  std::map<web::ObjectId, ObjectProgress> progress_;
  std::map<std::uint32_t, PendingStream> streams_;       // open response streams
  std::map<web::ObjectId, sim::EventId> stall_timers_;
  std::map<web::ObjectId, util::Duration> stall_current_;
  double patience_ = 1.0;  ///< stall-clock stretch, grows after resets
  std::size_t deferred_start_ = 0;  // index of first deferred item
  bool deferred_triggered_ = false;
  BrowserStats stats_;
};

}  // namespace h2priv::client
