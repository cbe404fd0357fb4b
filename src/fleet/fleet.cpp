#include "h2priv/fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/record.hpp"
#include "h2priv/capture/trace_writer.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/web/isidewith.hpp"

namespace h2priv::fleet {

namespace {

/// Client page loads start uniformly spread over this window, so the shared
/// cache sees realistic interleaving instead of a thundering herd.
constexpr util::Duration kStartSpread = util::milliseconds(500);
/// Extra origin latency a cache miss pays at the proxy (a stale revalidation
/// pays half).
constexpr util::Duration kMissPenalty = util::milliseconds(12);

/// One modeled request arrival at the cache tier (admission pre-pass).
struct Arrival {
  std::int64_t when_ns = 0;
  int client = 0;
  const web::SiteObject* obj = nullptr;
};

/// Models client `client`'s request arrival times at the proxy from its
/// (deterministically re-derived) page-load plan: main-phase requests at
/// start_offset + cumulative gaps; the deferred phase is approximated as
/// starting trigger_delay after the trigger *request* (the pre-pass needs an
/// admission order, not exact completion times — the approximation is itself
/// deterministic, which is all the determinism model requires).
void append_arrivals(const web::IsideWithSite& site, const core::RunConfig& config,
                     const ClientProfile& p, int client, std::vector<Arrival>& out) {
  sim::Rng client_root(p.seed);
  sim::Rng plan_rng = client_root.fork();  // run_once's first fork — same plan
  const web::IsideWithPlan plan = web::build_isidewith_plan(site, plan_rng, config.tuning);

  std::int64_t t = p.start_offset.ns;
  std::int64_t trigger_t = t;
  for (const web::RequestPlan::Item& item : plan.plan.items) {
    if (item.deferred) continue;
    t += item.gap_before.ns;
    out.push_back({t, client, &site.site.object(item.object_id)});
    if (item.object_id == plan.plan.trigger_object) trigger_t = t;
  }
  std::int64_t dt = trigger_t + plan.plan.trigger_delay.ns;
  for (const web::RequestPlan::Item& item : plan.plan.items) {
    if (!item.deferred) continue;
    dt += item.gap_before.ns;
    out.push_back({dt, client, &site.site.object(item.object_id)});
  }
}

struct CachePrepass {
  /// Per-client pure path -> extra-origin-delay map (the origin_delay hook).
  std::vector<std::map<std::string, util::Duration>> delays;
  /// Per-client {hits, misses, stale}.
  std::vector<std::array<std::uint64_t, 3>> counts;
  CacheProxyStats stats;
};

/// The serial admission pre-pass: every cross-client cache decision happens
/// here, in global (time, client) order, on one CacheProxy.
CachePrepass run_prepass(const core::RunConfig& config,
                         const std::vector<ClientProfile>& profiles,
                         const web::IsideWithSite& site) {
  const int n = static_cast<int>(profiles.size());
  CachePrepass pp;
  pp.delays.resize(static_cast<std::size_t>(n));
  pp.counts.assign(static_cast<std::size_t>(n), {});

  std::vector<Arrival> arrivals;
  for (int i = 0; i < n; ++i) {
    append_arrivals(site, config, profiles[static_cast<std::size_t>(i)], i, arrivals);
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
                     return a.client < b.client;
                   });

  CacheProxy proxy(config.fleet.cache_mb * 1024 * 1024);
  for (const Arrival& a : arrivals) {
    const CacheOutcome o =
        proxy.request(util::TimePoint{a.when_ns}, a.obj->path, a.obj->size);
    const auto c = static_cast<std::size_t>(a.client);
    ++pp.counts[c][static_cast<std::size_t>(o)];
    util::Duration extra{};
    if (o == CacheOutcome::kMiss) extra = kMissPenalty;
    if (o == CacheOutcome::kStale) extra = kMissPenalty / 2;
    // First outcome per (client, path) wins: browser re-GETs after resets
    // must see the same delay every time (origin_delay purity rule).
    pp.delays[c].emplace(a.obj->path, extra);
  }
  pp.stats = proxy.stats();
  return pp;
}

/// Serial merge of every client's observation streams into one fleet trace:
/// begin_fleet first (provenance + per-client truth/verdict blobs), then
/// k-way merges ordered by (client-local time + start offset, client index)
/// — a pure function of the per-client results, so the bytes are identical
/// for any job count. The fleet's workers code the trace's blocks.
void write_fleet_trace(const core::RunConfig& config, const FleetResult& fleet,
                       core::Parallelism parallelism) {
  capture::TraceWriter writer(capture::capture_path(config),
                              capture::capture_meta(config));

  std::vector<capture::FleetConn> conns;
  conns.reserve(fleet.clients.size());
  for (const FleetClientResult& c : fleet.clients) {
    capture::FleetConn fc;
    fc.client_seed = c.profile.seed;
    fc.start_offset_ns = c.profile.start_offset.ns;
    fc.attack_horizon_ns = c.obs.attack_horizon_ns;
    fc.party_order = c.result.true_party_order;
    fc.client_hop_delay_ns = c.profile.client_hop_delay.ns;
    fc.server_hop_delay_ns = c.profile.server_hop_delay.ns;
    fc.link_rate_bps = c.profile.link_rate.bits_per_sec;
    fc.cache_hits = c.cache_hits;
    fc.cache_misses = c.cache_misses;
    fc.cache_stale = c.cache_stale;
    fc.truth = *c.result.truth;
    fc.summary = capture::summary_of(c.result);
    conns.push_back(std::move(fc));
  }
  writer.begin_fleet(conns);

  const int n = static_cast<int>(fleet.clients.size());
  const auto offset_ns = [&](int i) {
    return fleet.clients[static_cast<std::size_t>(i)].profile.start_offset.ns;
  };
  const auto merge = [&](auto column, auto emit) {
    std::vector<std::size_t> idx(static_cast<std::size_t>(n), 0);
    for (;;) {
      int best = -1;
      std::int64_t best_t = 0;
      for (int i = 0; i < n; ++i) {
        const auto& items = column(fleet.clients[static_cast<std::size_t>(i)]);
        const std::size_t k = idx[static_cast<std::size_t>(i)];
        if (k >= items.size()) continue;
        const std::int64_t t = items[k].time.ns + offset_ns(i);
        if (best < 0 || t < best_t) {
          best = i;
          best_t = t;
        }
      }
      if (best < 0) break;
      const auto& items = column(fleet.clients[static_cast<std::size_t>(best)]);
      auto obs = items[idx[static_cast<std::size_t>(best)]++];
      obs.time.ns += offset_ns(best);
      emit(obs, static_cast<std::uint32_t>(best));
    }
  };
  merge([](const FleetClientResult& c) -> const auto& { return c.obs.packets; },
        [&](const analysis::PacketObservation& p, std::uint32_t id) {
          writer.add_packet(p, id);
        });
  merge([](const FleetClientResult& c) -> const auto& { return c.obs.records_c2s; },
        [&](const analysis::RecordObservation& r, std::uint32_t id) {
          writer.add_record(r, id);
        });
  merge([](const FleetClientResult& c) -> const auto& { return c.obs.records_s2c; },
        [&](const analysis::RecordObservation& r, std::uint32_t id) {
          writer.add_record(r, id);
        });
  writer.finish(parallelism);
}

}  // namespace

std::uint64_t FleetResult::cache_requests() const noexcept {
  std::uint64_t total = 0;
  for (const FleetClientResult& c : clients) {
    total += c.cache_hits + c.cache_misses + c.cache_stale;
  }
  return total;
}

double FleetResult::cache_hit_rate() const noexcept {
  std::uint64_t served = 0;
  for (const FleetClientResult& c : clients) served += c.cache_hits + c.cache_stale;
  const std::uint64_t total = cache_requests();
  return total == 0 ? 0.0 : static_cast<double>(served) / static_cast<double>(total);
}

std::vector<ClientProfile> plan_fleet(const core::RunConfig& config) {
  if (!config.fleet.enabled()) {
    throw std::invalid_argument("plan_fleet: fleet.clients must be > 0");
  }
  // A dedicated seed stream, offset from the raw run seed so fleet draws
  // never alias a lone run_once(config.seed)'s own Rng chain.
  sim::Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 0xf1ee7);
  static constexpr std::int64_t kRatesMbps[] = {100, 500, 1000};

  std::vector<ClientProfile> out;
  out.reserve(static_cast<std::size_t>(config.fleet.clients));
  for (int i = 0; i < config.fleet.clients; ++i) {
    ClientProfile p;
    p.seed = rng.next();
    p.start_offset = rng.uniform_duration({}, kStartSpread);
    p.client_hop_delay =
        rng.uniform_duration(util::milliseconds(1), util::milliseconds(5));
    p.server_hop_delay =
        rng.uniform_duration(util::milliseconds(10), util::milliseconds(40));
    p.link_rate = util::megabits_per_second(kRatesMbps[rng.uniform_int(0, 2)]);
    p.background_loss = 0.0001 + rng.uniform() * 0.0009;
    out.push_back(p);
  }
  return out;
}

FleetResult run_fleet(const core::RunConfig& config, core::Parallelism parallelism) {
  if (!config.fleet.enabled()) {
    throw std::invalid_argument("run_fleet: fleet.clients must be > 0");
  }
  const int n = config.fleet.clients;
  const std::vector<ClientProfile> profiles = plan_fleet(config);
  const web::IsideWithSite site =
      web::build_isidewith_site(config.pad_sensitive_objects);
  const bool cache_on = config.fleet.cache_mb > 0;

  obs::Registry& reg = obs::current();
  FleetResult fleet;
  fleet.clients.resize(static_cast<std::size_t>(n));

  // Serial pre-pass: the only place clients couple.
  std::vector<std::shared_ptr<const std::map<std::string, util::Duration>>> delays(
      static_cast<std::size_t>(n));
  if (cache_on) {
    CachePrepass pp = run_prepass(config, profiles, site);
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      fleet.clients[k].cache_hits = pp.counts[k][0];
      fleet.clients[k].cache_misses = pp.counts[k][1];
      fleet.clients[k].cache_stale = pp.counts[k][2];
      delays[k] = std::make_shared<const std::map<std::string, util::Duration>>(
          std::move(pp.delays[k]));
    }
    fleet.cache_evictions = pp.stats.evictions;
    reg.add(obs::Counter::kCacheHits, pp.stats.hits);
    reg.add(obs::Counter::kCacheMisses, pp.stats.misses);
    reg.add(obs::Counter::kCacheStale, pp.stats.stale);
    reg.add(obs::Counter::kCacheEvictions, pp.stats.evictions);
  }

  // Parallel page loads: each client is a self-contained run_once whose only
  // fleet input is its pure path->delay map.
  core::parallel_for(n, parallelism, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    core::RunConfig cfg = config;
    cfg.fleet = core::FleetConfig{};
    cfg.capture = core::CaptureOptions{};
    cfg.packet_tap = nullptr;
    cfg.observations_out = &fleet.clients[k].obs;
    cfg.seed = profiles[k].seed;
    cfg.path.client_hop_delay = profiles[k].client_hop_delay;
    cfg.path.server_hop_delay = profiles[k].server_hop_delay;
    cfg.path.link_rate = profiles[k].link_rate;
    cfg.path.background_loss = profiles[k].background_loss;
    if (cache_on) {
      const std::shared_ptr<const std::map<std::string, util::Duration>> d = delays[k];
      cfg.server.origin_delay = [d](const std::string& path) {
        const auto it = d->find(path);
        return it == d->end() ? util::Duration{} : it->second;
      };
    }
    fleet.clients[k].profile = profiles[k];
    fleet.clients[k].result = core::run_once(cfg);
  });

  // Serial join: fleet-level metrics in client order, then the merged trace.
  reg.add(obs::Counter::kFleetClients, static_cast<std::uint64_t>(n));
  for (const FleetClientResult& c : fleet.clients) {
    if (c.result.html.primary_dom.has_value()) {
      reg.sample(obs::Hist::kFleetClientDomMilli,
                 static_cast<std::uint64_t>(
                     std::llround(*c.result.html.primary_dom * 1000.0)));
    }
  }
  if (config.capture.enabled()) write_fleet_trace(config, fleet, parallelism);
  return fleet;
}

std::vector<FleetResult> run_fleet_corpus(const core::RunConfig& config, int runs,
                                          core::Parallelism parallelism) {
  if (config.capture.corpus_dir.empty()) {
    throw std::invalid_argument("run_fleet_corpus: capture.corpus_dir required");
  }
  std::filesystem::create_directories(config.capture.corpus_dir);

  std::vector<FleetResult> out;
  capture::Manifest manifest;
  manifest.scenario = config.capture.scenario;
  manifest.base_seed = config.seed;
  for (int r = 0; r < runs; ++r) {
    core::RunConfig cfg = config;
    cfg.seed = config.seed + static_cast<std::uint64_t>(r);
    cfg.capture.path.clear();
    out.push_back(run_fleet(cfg, parallelism));
    manifest.entries.push_back(capture::manifest_entry(
        config.capture.corpus_dir, capture::trace_filename(cfg.seed), cfg.seed));
  }
  capture::write_manifest(manifest, config.capture.corpus_dir + "/manifest.txt");
  return out;
}

}  // namespace h2priv::fleet
