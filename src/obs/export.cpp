#include "h2priv/obs/export.hpp"

#include <array>
#include <ostream>
#include <sstream>

namespace h2priv::obs {

namespace {

constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "sim.events_scheduled",
    "sim.events_executed",
    "sim.events_cancelled",
    "net.mb_seen",
    "net.mb_dropped",
    "net.mb_forwarded",
    "net.mb_held",
    "net.mb_throttled",
    "net.link_lost",
    "net.link_burst_dropped",
    "net.link_jittered",
    "tcp.segments_sent",
    "tcp.segments_received",
    "tcp.retransmits_fast",
    "tcp.retransmits_timeout",
    "tcp.retransmits_hole",
    "tcp.rto_fired",
    "tcp.rto_backoffs",
    "tls.records_sealed",
    "tls.records_opened",
    "tls.pad_bytes_sealed",
    "pool.chunks_served",
    "pool.chunks_reused",
    "pool.chunks_fresh",
    "pool.chunks_oversize",
    "h2.data_sent",
    "h2.headers_sent",
    "h2.priority_sent",
    "h2.rst_stream_sent",
    "h2.settings_sent",
    "h2.push_promise_sent",
    "h2.ping_sent",
    "h2.goaway_sent",
    "h2.window_update_sent",
    "h2.continuation_sent",
    "h2.other_sent",
    "h2.frames_received",
    "h2.rst_streams_received",
    "h2.data_bytes_sent",
    "h2.pad_bytes_sent",
    "capture.traces_written",
    "capture.bytes_written",
    "capture.packets_written",
    "capture.records_written",
    "capture.raw_bytes",
    "codec.blocks_encoded",
    "codec.blocks_stored",
    "codec.blocks_decoded",
    "codec.cache_hits",
    "codec.cache_misses",
    "corpus.shards_written",
    "corpus.manifests_merged",
    "corpus.traces_scored",
    "corpus.bytes_mapped",
    "score.classifications",
    "score.train_traces",
    "score.eval_traces",
    "score.curve_points",
    "core.runs",
    "core.pages_complete",
    "core.broken_runs",
    "core.browser_rerequests",
    "core.reset_episodes",
    "fleet.clients",
    "cache.hits",
    "cache.misses",
    "cache.stale",
    "cache.evictions",
};

constexpr std::array<const char*, kGaugeCount> kGaugeNames = {
    "sim.heap_depth_max",
    "tcp.send_buffer_bytes_max",
    "tcp.cwnd_bytes_max",
};

constexpr std::array<const char*, kHistCount> kHistNames = {
    "tcp.cwnd_bytes",
    "tcp.send_buf_occupancy",
    "tls.record_bytes",
    "h2.object_dom_milli",
    "fleet.client_dom_milli",
};

}  // namespace

std::string to_json(const Registry& r) {
  std::ostringstream os;
  write_metrics_json(os, r);
  return os.str();
}

void write_metrics_json(std::ostream& os, const Registry& r) {
  os << "{\"counters\":{";
  bool first = true;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::uint64_t v = r.get(static_cast<Counter>(i));
    if (v == 0) continue;
    os << (first ? "" : ",") << '"' << kCounterNames[i] << "\":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    const std::uint64_t v = r.gauge(static_cast<Gauge>(i));
    if (v == 0) continue;
    os << (first ? "" : ",") << '"' << kGaugeNames[i] << "\":" << v;
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (std::size_t i = 0; i < kHistCount; ++i) {
    const HistogramData& h = r.histogram(static_cast<Hist>(i));
    if (h.count == 0) continue;
    os << (first ? "" : ",") << '"' << kHistNames[i] << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"max\":" << h.max << ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      os << (first_bucket ? "" : ",") << '[' << b << ',' << h.buckets[b] << ']';
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << "}}";
}

}  // namespace h2priv::obs
