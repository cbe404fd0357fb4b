// fleet_capture: 16-client fleets through the 4 MiB cache tier, run with
// fleet::run_fleet_corpus at 2 workers and written as merged .h2t traces.
// The live stack runs on heterogeneous 100/500/1000 Mbps paths, and the
// capture write path, the cache proxy and parallel_for are added on top.
#include <filesystem>

#include "bench.hpp"
#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/fleet/fleet.hpp"
#include "probes.hpp"
#include "verdict.hpp"

namespace perfbench {

namespace h = h2priv;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kClients = 16;
constexpr std::size_t kCacheMb = 4;
constexpr int kWorkers = 2;
/// Fleets whose per-client verdicts the oracle pins.
constexpr std::size_t kOracleFleets = 2;
constexpr std::uint64_t kWarmupOffset = 90'000;

std::uint64_t fleet_seed(const Options& o, std::size_t j) {
  return o.seed * 100'000 + static_cast<std::uint64_t>(j);
}

h::core::RunConfig fleet_config() {
  h::core::RunConfig cfg = h::core::scenario_config("table2");
  cfg.capture.scenario = "table2";
  cfg.fleet.clients = kClients;
  cfg.fleet.cache_mb = kCacheMb;
  return cfg;
}

std::uint64_t records_digest(const std::vector<h::analysis::RecordObservation>& c2s,
                             const std::vector<h::analysis::RecordObservation>& s2c) {
  std::uint64_t d = kFnvInit;
  for (const auto* records : {&c2s, &s2c}) {
    for (const h::analysis::RecordObservation& r : *records) {
      d = fnv1a(d, std::to_string(r.time.ns) + ' ' + std::to_string(static_cast<int>(r.dir)) +
                       ' ' + std::to_string(static_cast<int>(r.type)) + ' ' +
                       std::to_string(r.ciphertext_len) + ' ' +
                       std::to_string(r.stream_offset) + '\n');
    }
  }
  return d;
}

/// Scored fields of one fleet: every client's seed and verdict, in order.
std::uint64_t fleet_verdicts(const h::fleet::FleetResult& fleet) {
  std::uint64_t d = kFnvInit;
  for (const h::fleet::FleetClientResult& c : fleet.clients) {
    d = fnv1a(d, std::to_string(c.profile.seed) + ' ' + verdict_text(c.result));
  }
  return d;
}

h::capture::ObjectVerdict to_verdict(const h::core::ObjectOutcome& o) {
  h::capture::ObjectVerdict v;
  v.label = o.label;
  v.true_size = o.true_size;
  v.has_dom = o.primary_dom.has_value();
  if (o.primary_dom) v.primary_dom = *o.primary_dom;
  v.serialized_primary = o.serialized_primary;
  v.any_serialized_copy = o.any_serialized_copy;
  v.identified = o.identified;
  v.attack_success = o.attack_success;
  return v;
}

/// Write probe: one client's returned observations as a standalone trace.
std::uint64_t write_client_trace(const std::string& path, const h::core::RunConfig& cfg,
                                 const h::fleet::FleetClientResult& c) {
  h::capture::TraceMeta meta;
  meta.seed = c.profile.seed;
  meta.scenario = cfg.capture.scenario;
  meta.attack_enabled = cfg.attack_enabled;
  meta.deadline_ns = cfg.deadline.ns;
  meta.attack_horizon_ns = c.obs.attack_horizon_ns;
  meta.party_order = c.result.true_party_order;
  h::capture::TraceWriter writer(path, meta);
  for (const h::analysis::PacketObservation& p : c.obs.packets) writer.add_packet(p);
  for (const h::analysis::RecordObservation& r : c.obs.records_c2s) writer.add_record(r);
  for (const h::analysis::RecordObservation& r : c.obs.records_s2c) writer.add_record(r);
  writer.set_ground_truth(*c.result.truth);
  h::capture::TraceSummary summary;
  summary.monitor_packets = c.result.monitor_packets;
  summary.monitor_gets = c.result.monitor_gets;
  summary.html = to_verdict(c.result.html);
  for (std::size_t pos = 0; pos < summary.emblems_by_position.size(); ++pos) {
    summary.emblems_by_position[pos] = to_verdict(c.result.emblems_by_position[pos]);
  }
  summary.predicted_sequence = c.result.predicted_sequence;
  summary.sequence_positions_correct = c.result.sequence_positions_correct;
  writer.set_summary(summary);
  return writer.finish();
}

struct TimedFleet {
  std::string trace;
  std::uint64_t verdicts = 0;
  std::vector<std::uint64_t> records;  ///< per client, what run_fleet returned
};

}  // namespace

Result run_fleet_capture(const Options& opt) {
  Result res;
  const h::core::RunConfig base = fleet_config();
  const h::core::Parallelism workers{kWorkers};

  // Set-up: one untimed fleet (worker pools, page cache, output directory),
  // repeated so setup_s is a median.
  std::vector<double> setup_s;
  for (int s = 0; s < kSetupRepeats; ++s) {
    const std::int64_t t0 = now_ns();
    h::core::RunConfig cfg = base;
    cfg.seed = fleet_seed(opt, kWarmupOffset + static_cast<std::size_t>(s));
    cfg.capture.corpus_dir = opt.tmp_dir + "/warmup";
    (void)h::fleet::run_fleet_corpus(cfg, 1, workers);
    fs::remove_all(cfg.capture.corpus_dir);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Timed window. A client's latency is its share of its fleet's wall time.
  Window w;
  std::vector<TimedFleet> fleets;
  std::uint64_t trace_bytes = 0;
  h::obs::Registry window_counts;
  {
    h::obs::ScopedRegistry scoped;
    const std::int64_t deadline = deadline_after(timed_seconds(opt));
    while (w.ops == 0 || now_ns() < deadline) {
      h::core::RunConfig cfg = base;
      cfg.seed = fleet_seed(opt, fleets.size());
      cfg.capture.corpus_dir = opt.tmp_dir + "/fleet_" + std::to_string(fleets.size());
      const std::int64_t t0 = now_ns();
      const std::vector<h::fleet::FleetResult> out =
          h::fleet::run_fleet_corpus(cfg, 1, workers);
      w.record(now_ns() - t0, kClients);
      TimedFleet f;
      f.trace = cfg.capture.corpus_dir + "/" + h::capture::trace_filename(cfg.seed);
      f.verdicts = fleet_verdicts(out.front());
      for (const h::fleet::FleetClientResult& c : out.front().clients) {
        f.records.push_back(records_digest(c.obs.records_c2s, c.obs.records_s2c));
      }
      trace_bytes += fs::file_size(f.trace);
      fleets.push_back(std::move(f));
    }
    window_counts = scoped.registry();
  }
  res.attempted = w.ops;

  // Read every merged trace back: a client whose demultiplexed records
  // differ from what run_fleet returned fails its op.
  for (const TimedFleet& f : fleets) {
    const std::vector<h::capture::DemuxedConn> conns =
        h::capture::demux_fleet(h::capture::TraceFile::open(f.trace));
    for (std::size_t k = 0; k < f.records.size(); ++k) {
      const bool same = k < conns.size() &&
                        records_digest(conns[k].records_c2s, conns[k].records_s2c) == f.records[k];
      if (!same) ++res.failed;
    }
    fs::remove_all(fs::path(f.trace).parent_path());
  }

  // Traced path: plan_fleet and run_fleet under spans, then the write probe
  // and the stack probes over every client's returned observations. A
  // --trace 0 run traces one fleet only, to check verdict agreement.
  SpanLog log;
  StackCosts costs;
  std::int64_t run_cpu_ns = 0, run_wall_ns = 0, write_ns = 0;
  std::uint64_t encoded_raw = 0, traced_fleets = 0;
  const std::int64_t traced_deadline = deadline_after(timed_seconds(opt));
  for (std::size_t j = 0;; ++j) {
    if (opt.trace ? now_ns() >= traced_deadline : j >= 1) break;
    h::core::RunConfig cfg = base;
    cfg.seed = fleet_seed(opt, j);
    cfg.capture.path = opt.tmp_dir + "/traced.h2t";
    const int fleet_span = log.open("fleet", cfg.seed);
    {
      ScopedSpan s(log, "fleet.plan", cfg.seed);
      (void)h::fleet::plan_fleet(cfg);
    }
    h::fleet::FleetResult fleet;
    {
      h::obs::ScopedRegistry fleet_counts(/*merge_on_exit=*/true);
      const std::int64_t cpu0 = process_cpu_ns();
      const int run = log.open("fleet.run_fleet", cfg.seed);
      fleet = h::fleet::run_fleet(cfg, workers);
      log.close(run);
      run_cpu_ns += process_cpu_ns() - cpu0;
      run_wall_ns += log.spans()[static_cast<std::size_t>(run)].dur();
      costs.add_real_units(fleet_counts.registry());
    }
    {
      ScopedSpan probes(log, "probes", cfg.seed);
      for (std::size_t k = 0; k < fleet.clients.size(); ++k) {
        const h::fleet::FleetClientResult& c = fleet.clients[k];
        {
          h::obs::ScopedRegistry isolated;
          const int id = log.open("capture.write", c.profile.seed);
          (void)write_client_trace(opt.tmp_dir + "/probe.h2t", cfg, c);
          log.close(id);
          write_ns += log.spans()[static_cast<std::size_t>(id)].dur();
          encoded_raw += isolated.registry().get(h::obs::Counter::kCaptureRawBytes);
        }
        probe_stack(log, c.profile.seed, c.obs, *c.result.truth, c.result.events_executed,
                    costs);
      }
    }
    log.close(fleet_span);
    ++traced_fleets;

    const std::uint64_t verdicts = fleet_verdicts(fleet);
    if (j < fleets.size()) {
      if (verdicts != fleets[j].verdicts) res.failed += kClients;
    } else {
      fleets.push_back({"", verdicts, {}});  // covers the oracle fleets on a slow machine
    }
  }
  if (opt.trace) res.attempted += traced_fleets * kClients;

  for (std::size_t j = fleets.size(); j < kOracleFleets; ++j) {
    h::core::RunConfig cfg = base;
    cfg.seed = fleet_seed(opt, j);
    fleets.push_back({"", fleet_verdicts(h::fleet::run_fleet(cfg, workers)), {}});
  }
  res.oracle_digest = kFnvInit;
  for (std::size_t j = 0; j < kOracleFleets; ++j) {
    res.oracle_digest = fnv1a(res.oracle_digest, std::to_string(fleets[j].verdicts) + "\n");
  }

  std::vector<std::string> failures;
  (void)log.self_times(failures);
  for (std::string& f : failures) res.check_failures.push_back(std::move(f));

  if (!opt.trace) {
    end_to_end_metrics(w, setup_s, res.metrics);
    return res;
  }
  const double clients = static_cast<double>(w.ops);
  const double fleet_count = clients / kClients;
  const double traced_clients = static_cast<double>(traced_fleets * kClients);
  Metrics& m = res.metrics;
  stack_count_metrics(window_counts, clients, m);
  costs.report(static_cast<double>(run_cpu_ns), static_cast<double>(write_ns), m, res);
  using C = h::obs::Counter;
  const auto count = [&](C c) { return static_cast<double>(window_counts.get(c)); };
  m["capture.write_ms_per_client"] = {ratio(static_cast<double>(write_ns) / 1e6, traced_clients),
                                      "ms"};
  m["capture.encode_mib_per_s"] = {
      ratio(static_cast<double>(encoded_raw) / (1024.0 * 1024.0),
            static_cast<double>(write_ns) / 1e9),
      "MiB/s"};
  m["capture.write_share"] = {
      100.0 * ratio(static_cast<double>(write_ns), static_cast<double>(run_cpu_ns)), "%"};
  m["capture.compression_ratio"] = {
      ratio(count(C::kCaptureRawBytes), count(C::kCaptureBytesWritten)), "ratio"};
  m["capture.trace_kib_per_client"] = {ratio(static_cast<double>(trace_bytes) / 1024.0, clients),
                                       "KiB"};
  m["codec.stored_raw_ratio"] = {
      ratio(count(C::kCodecBlocksStored), count(C::kCodecBlocksStored) + count(C::kCodecBlocksEncoded)),
      "ratio"};
  const std::map<std::string, SpanTotal> t = totals_by_name(log);
  m["fleet.plan_ms"] = {
      ratio(static_cast<double>(t.at("fleet.plan").ns) / 1e6,
            static_cast<double>(t.at("fleet.plan").count)),
      "ms"};
  m["cache.hit_ratio"] = {
      ratio(count(C::kCacheHits) + count(C::kCacheStale),
            count(C::kCacheHits) + count(C::kCacheStale) + count(C::kCacheMisses)),
      "ratio"};
  m["cache.evictions_per_fleet"] = {ratio(count(C::kCacheEvictions), fleet_count), "count"};
  const double untraced_ms = ratio(w.busy_s * 1e3, clients);
  const double traced_ms = ratio(static_cast<double>(run_wall_ns) / 1e6, traced_clients);
  m["trace.overhead_pct"] = {100.0 * (ratio(traced_ms, untraced_ms) - 1.0), "%"};
  res.notes.emplace_back("traced_fleets", static_cast<double>(traced_fleets));
  if (!opt.spans_out.empty()) log.write_chrome_trace(opt.spans_out);
  return res;
}

}  // namespace perfbench
