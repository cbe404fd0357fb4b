#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace obs = h2priv::obs;

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- spans -----------------------------------------------------------------

int SpanLog::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("SpanLog: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<std::int64_t> SpanLog::self_times(std::vector<std::string>& failures) const {
  const std::size_t n = spans_.size();
  std::vector<std::int64_t> self(n);
  std::vector<std::int64_t> last_child_end(n, 0);
  for (std::size_t i = 0; i < n; ++i) self[i] = spans_[i].dur();
  bool nested = true;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    const Span& parent = spans_[p];
    // Spans are stored in opening order, so siblings appear by start time.
    nested &= s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns &&
              s.start_ns >= last_child_end[p];
    last_child_end[p] = s.end_ns;
    self[p] -= s.dur();
  }
  if (!nested) failures.emplace_back("spans: a child span escapes its parent");

  // Every root's subtree self times must add back up to the root span.
  std::vector<std::int64_t> subtree(self);
  for (std::size_t i = n; i-- > 0;) {
    if (spans_[i].parent >= 0) subtree[static_cast<std::size_t>(spans_[i].parent)] += subtree[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (spans_[i].parent < 0 && subtree[i] != spans_[i].dur()) {
      failures.emplace_back("spans: self times do not sum to the root span");
      break;
    }
  }
  return self;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.dur()) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.request));
    os << buf;
  }
  os << "\n]}\n";
}

std::map<std::string, std::int64_t> self_by_name(const SpanLog& log,
                                                 std::vector<std::string>& failures) {
  const std::vector<std::int64_t> self = log.self_times(failures);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < self.size(); ++i) out[log.spans()[i].name] += self[i];
  return out;
}

std::map<std::string, SpanTotal> totals_by_name(const SpanLog& log) {
  std::map<std::string, SpanTotal> out;
  for (const Span& s : log.spans()) {
    SpanTotal& t = out[s.name];
    t.ns += s.dur();
    ++t.count;
  }
  return out;
}

// --- statistics ------------------------------------------------------------

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- metrics ---------------------------------------------------------------

void end_to_end_metrics(const Window& w, const std::vector<double>& setup_s,
                        Metrics& out) {
  out["ops_per_s"] = {ratio(static_cast<double>(w.ops), w.busy_s), "1/s"};
  out["op_ms_p50"] = {quantile(w.op_ms, 0.5), "ms"};
  out["op_ms_p90"] = {quantile(w.op_ms, 0.9), "ms"};
  out["setup_s"] = {median(setup_s), "s"};
  out["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
}

void stack_count_metrics(const obs::Registry& d, double loads, Metrics& out) {
  using C = obs::Counter;
  const auto n = [&](C c) { return static_cast<double>(d.get(c)); };
  out["sim.events_per_load"] = {ratio(n(C::kSimEventsExecuted), loads), "count"};
  out["sim.cancelled_ratio"] = {
      ratio(n(C::kSimEventsCancelled), n(C::kSimEventsScheduled)), "ratio"};
  out["sim.heap_depth_max"] = {
      static_cast<double>(d.gauge(obs::Gauge::kSimHeapDepth)), "count"};
  out["net.packets_per_load"] = {ratio(n(C::kNetMbSeen), loads), "count"};
  out["net.drop_ratio"] = {
      ratio(n(C::kNetMbDropped) + n(C::kNetLinkLost) + n(C::kNetLinkBurstDropped),
            n(C::kNetMbSeen)),
      "ratio"};
  out["tcp.segments_per_load"] = {ratio(n(C::kTcpSegmentsSent), loads), "count"};
  out["tcp.retransmit_ratio"] = {
      ratio(n(C::kTcpRetransmitsFast) + n(C::kTcpRetransmitsTimeout) +
                n(C::kTcpRetransmitsHole),
            n(C::kTcpSegmentsSent)),
      "ratio"};
  out["tls.records_per_load"] = {ratio(n(C::kTlsRecordsSealed), loads), "count"};
  out["tls.kib_per_load"] = {
      ratio(static_cast<double>(d.histogram(obs::Hist::kTlsRecordBytes).sum) / 1024.0,
            loads),
      "KiB"};
  double frames = 0;
  for (unsigned t = 0; t <= 10; ++t) frames += n(obs::h2_frame_sent_counter(t));
  out["h2.frames_per_load"] = {ratio(frames, loads), "count"};
  out["h2.rst_streams_per_load"] = {ratio(n(C::kH2RstStreamSent), loads), "count"};
  out["client.rerequests_per_load"] = {ratio(n(C::kCoreBrowserRerequests), loads),
                                       "count"};
  out["client.reset_episodes_per_load"] = {ratio(n(C::kCoreResetEpisodes), loads),
                                           "count"};
  out["pool.reuse_ratio"] = {ratio(n(C::kPoolChunksReused), n(C::kPoolChunksServed)),
                             "ratio"};
}

}  // namespace perfbench
