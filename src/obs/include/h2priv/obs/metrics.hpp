// Per-layer metrics registry: the stack's internal event streams as
// first-class observables.
//
// The attack this repo reproduces works by *inferring* stack-internal events
// (suppressed retransmissions, RST_STREAM-forced restarts, multiplexing
// collapse) from ciphertext timing. The obs registry makes the same events
// directly countable on the simulator side, so experiments and the CI perf
// gate see exactly what the adversary has to guess.
//
// Hot-path contract:
//  - A Registry is plain arrays of std::uint64_t; every instrumentation
//    point is one non-atomic increment (or a bit_width + increment for
//    histogram samples). No locks, no hashing, no branches beyond the
//    thread-local load. Being trivially destructible also spares the
//    thread_local default registry a TLS init call on every access.
//  - Each thread has a *current* registry (thread-local). Monte-Carlo
//    workers (core::parallel_for) install a private registry for the span of
//    their work and merge it into the caller's registry at join. Merging is
//    commutative (sums / maxes), so every exported number is bit-identical
//    for any --jobs count.
//  - Long-lived per-run objects (Simulator, tcp::Connection, Middlebox, ...)
//    may cache `&current()` at construction: a seeded run executes entirely
//    on one worker thread, and the scoped registry is installed before the
//    topology is built. Thread-persistent objects (the thread_local
//    util::default_pool()) must resolve current() per call instead.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace h2priv::obs {

/// Monotonic event counters, one per instrumentation point. Merge = sum.
/// Grouped by layer; the h2 per-frame-type block must stay contiguous and in
/// RFC 7540 frame-type order (see h2_frame_sent_counter).
enum class Counter : std::uint16_t {
  // sim
  kSimEventsScheduled,
  kSimEventsExecuted,
  kSimEventsCancelled,
  // net: middlebox pipeline stages
  kNetMbSeen,
  kNetMbDropped,
  kNetMbForwarded,
  kNetMbHeld,
  kNetMbThrottled,
  // net: links (background loss / gateway contention / jitter)
  kNetLinkLost,
  kNetLinkBurstDropped,
  kNetLinkJittered,
  // tcp
  kTcpSegmentsSent,
  kTcpSegmentsReceived,
  kTcpRetransmitsFast,
  kTcpRetransmitsTimeout,
  kTcpRetransmitsHole,
  kTcpRtoFired,
  kTcpRtoBackoffs,
  // tls
  kTlsRecordsSealed,
  kTlsRecordsOpened,
  kTlsPadBytesSealed,  ///< record-quantization filler (defense layer)
  // util::BufferPool (pooled-buffer hit rate of the zero-copy wire path)
  kPoolChunksServed,
  kPoolChunksReused,
  kPoolChunksFresh,
  kPoolChunksOversize,
  // h2: frames written, by type (contiguous, order == FrameType 0x0..0x9)
  kH2DataSent,
  kH2HeadersSent,
  kH2PrioritySent,
  kH2RstStreamSent,
  kH2SettingsSent,
  kH2PushPromiseSent,
  kH2PingSent,
  kH2GoAwaySent,
  kH2WindowUpdateSent,
  kH2ContinuationSent,
  kH2OtherSent,  ///< frame types beyond CONTINUATION (none today; future-proof)
  kH2FramesReceived,
  kH2RstStreamsReceived,
  kH2DataBytesSent,
  kH2PadBytesSent,  ///< DATA padding emitted (defense layer)
  // capture: .h2t trace store (compression ratio = raw_bytes / bytes_written)
  kCaptureTracesWritten,
  kCaptureBytesWritten,
  kCapturePacketsWritten,
  kCaptureRecordsWritten,
  kCaptureRawBytes,
  // codec: .h2t v2 block compression (cache hits/misses = decode locality)
  kCodecBlocksEncoded,
  kCodecBlocksStored,
  kCodecBlocksDecoded,
  kCodecCacheHits,
  kCodecCacheMisses,
  // corpus: sharded .h2t store + offline scoring pipeline
  kCorpusShardsWritten,
  kCorpusManifestsMerged,
  kCorpusTracesScored,
  kCorpusBytesMapped,
  // score: classifier decisions and evaluation coverage
  kScoreClassifications,
  kScoreTrainTraces,
  kScoreEvalTraces,
  kScoreCurvePoints,
  // core: per-run outcomes
  kCoreRuns,
  kCorePagesComplete,
  kCoreBrokenRuns,
  kCoreBrowserRerequests,
  kCoreResetEpisodes,
  // fleet: N-client scenarios through the shared gateway (src/fleet)
  kFleetClients,
  // cache: the fleet reverse-proxy tier's per-request outcomes. kCacheHits..
  // kCacheStale must stay contiguous: cache_outcome_counter() maps
  // fleet::CacheOutcome onto this block positionally.
  kCacheHits,
  kCacheMisses,
  kCacheStale,
  kCacheEvictions,

  kCount,
};
inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// High-water marks. Merge = max (commutative, so job-count invariant); only
/// the maximum is well-defined across workers, so that is all a gauge keeps.
enum class Gauge : std::uint16_t {
  kSimHeapDepth,       ///< deepest pending-event heap
  kTcpSendBufferBytes, ///< largest live send-buffer occupancy
  kTcpCwndBytes,       ///< largest congestion window reached
  kCount,
};
inline constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);

/// Log-bucket (power-of-two) histograms. Merge = element-wise sum + max.
enum class Hist : std::uint16_t {
  kTcpCwndBytes,        ///< cwnd sampled at every ACK-driven change
  kTcpSendBufOccupancy, ///< live send-buffer bytes sampled at every send()
  kTlsRecordBytes,      ///< plaintext bytes per sealed record (the wire observable)
  kH2ObjectDomMilli,    ///< per-object degree of multiplexing x1000
  kFleetClientDomMilli, ///< per-client HTML degree of multiplexing x1000
  kCount,
};
inline constexpr std::size_t kHistCount = static_cast<std::size_t>(Hist::kCount);

/// Bucket i holds values whose bit_width is i: bucket 0 = {0}, bucket 1 =
/// {1}, bucket k = [2^(k-1), 2^k). 64-bit values need buckets 0..64.
inline constexpr std::size_t kHistBuckets = 65;

[[nodiscard]] constexpr std::size_t hist_bucket(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

/// Smallest value that lands in `bucket` (0 for bucket 0).
[[nodiscard]] constexpr std::uint64_t hist_bucket_floor(std::size_t bucket) noexcept {
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  void record(std::uint64_t value) noexcept {
    ++count;
    sum += value;
    if (value > max) max = value;
    ++buckets[hist_bucket(value)];
  }

  void merge_from(const HistogramData& o) noexcept {
    count += o.count;
    sum += o.sum;
    if (o.max > max) max = o.max;
    for (std::size_t i = 0; i < kHistBuckets; ++i) buckets[i] += o.buckets[i];
  }
};

/// One layer-spanning bundle of counters, gauges and histograms.
/// Single-threaded by design; see the file comment for the
/// one-registry-per-worker contract.
class Registry {
 public:
  void add(Counter c, std::uint64_t n = 1) noexcept {
    counters_[static_cast<std::size_t>(c)] += n;
  }
  [[nodiscard]] std::uint64_t get(Counter c) const noexcept {
    return counters_[static_cast<std::size_t>(c)];
  }
  /// Overwrites a counter. Tests use this to zero the few scheduling-
  /// dependent counters (the pool reuse/fresh split) before byte-comparing
  /// exported JSON; instrumentation points never call it.
  void set(Counter c, std::uint64_t value) noexcept {
    counters_[static_cast<std::size_t>(c)] = value;
  }

  void gauge_max(Gauge g, std::uint64_t value) noexcept {
    std::uint64_t& cur = gauges_[static_cast<std::size_t>(g)];
    if (value > cur) cur = value;
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges_[static_cast<std::size_t>(g)];
  }

  void sample(Hist h, std::uint64_t value) noexcept {
    hists_[static_cast<std::size_t>(h)].record(value);
  }
  [[nodiscard]] const HistogramData& histogram(Hist h) const noexcept {
    return hists_[static_cast<std::size_t>(h)];
  }

  /// Folds another registry's counts into this one. Commutative and
  /// associative over any merge order, which is what keeps --jobs N batch
  /// totals bit-identical to the serial run.
  void merge_from(const Registry& o) noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i) counters_[i] += o.counters_[i];
    for (std::size_t i = 0; i < kGaugeCount; ++i) {
      if (o.gauges_[i] > gauges_[i]) gauges_[i] = o.gauges_[i];
    }
    for (std::size_t i = 0; i < kHistCount; ++i) hists_[i].merge_from(o.hists_[i]);
  }

  /// Zeroes every counter/gauge/histogram.
  void reset() noexcept {
    counters_.fill(0);
    gauges_.fill(0);
    hists_.fill(HistogramData{});
  }

 private:
  std::array<std::uint64_t, kCounterCount> counters_{};
  std::array<std::uint64_t, kGaugeCount> gauges_{};
  std::array<HistogramData, kHistCount> hists_{};
};

namespace detail {
// The default registry gives threads outside any scope (tests, examples,
// the bench main thread) somewhere harmless to count into.
inline thread_local Registry tl_default_registry;
inline thread_local Registry* tl_current_registry = nullptr;
}  // namespace detail

/// The calling thread's current registry (the thread default unless a
/// ScopedRegistry / set_current override is active).
[[nodiscard]] inline Registry& current() noexcept {
  return detail::tl_current_registry != nullptr ? *detail::tl_current_registry
                                                : detail::tl_default_registry;
}

/// Installs `r` as the thread-current registry (nullptr = thread default).
/// Returns the previous override for restoration.
inline Registry* set_current(Registry* r) noexcept {
  Registry* prev = detail::tl_current_registry;
  detail::tl_current_registry = r;
  return prev;
}

/// RAII override of the thread-current registry. Optionally merges its
/// contents into the previously-current registry on exit (what parallel
/// workers do at join).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(bool merge_on_exit = false)
      : merge_on_exit_(merge_on_exit), prev_(set_current(&registry_)) {}
  ~ScopedRegistry() {
    set_current(prev_);
    if (merge_on_exit_) current().merge_from(registry_);
  }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const Registry& registry() const noexcept { return registry_; }

 private:
  Registry registry_;
  bool merge_on_exit_;
  Registry* prev_;
};

// --- instrumentation shorthands (what the layers actually call) ------------

inline void count(Counter c, std::uint64_t n = 1) noexcept { current().add(c, n); }
inline void gauge_to_max(Gauge g, std::uint64_t v) noexcept { current().gauge_max(g, v); }
inline void sample(Hist h, std::uint64_t v) noexcept { current().sample(h, v); }

/// Maps an RFC 7540 frame type byte (0x0..0x9) onto the contiguous
/// kH2*Sent counter block; anything newer/unknown lands in kH2OtherSent.
[[nodiscard]] constexpr Counter h2_frame_sent_counter(unsigned frame_type) noexcept {
  constexpr auto base = static_cast<std::uint16_t>(Counter::kH2DataSent);
  return frame_type <= 9 ? static_cast<Counter>(base +
                                                frame_type) : Counter::kH2OtherSent;
}

/// Maps a cache-proxy request outcome (fleet::CacheOutcome, encoded 0 = hit,
/// 1 = miss, 2 = stale) onto the contiguous kCacheHits..kCacheStale block.
[[nodiscard]] constexpr Counter cache_outcome_counter(unsigned outcome) noexcept {
  constexpr auto base = static_cast<std::uint16_t>(Counter::kCacheHits);
  return outcome <= 2 ? static_cast<Counter>(base + outcome) : Counter::kCacheStale;
}

}  // namespace h2priv::obs
