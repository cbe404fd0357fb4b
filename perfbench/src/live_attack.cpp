// live_attack: seeded table2 page loads (attack armed, capture off), one
// core::run_once after another on one thread — the paper's Section V attack
// end to end. The live stack does all the work; capture and corpus do none.
#include <cstdio>

#include "bench.hpp"
#include "h2priv/core/scenario.hpp"
#include "probes.hpp"
#include "verdict.hpp"

namespace perfbench {

namespace h = h2priv;

namespace {

constexpr int kSetupRepeats = 5;
/// Loads whose verdicts the oracle pins (the first ones of every run).
constexpr std::size_t kOracleLoads = 16;
/// Loads a --trace 0 run re-issues through the traced path to check that
/// tracing leaves verdicts alone.
constexpr std::size_t kAgreementLoads = 2;
/// Warm-up loads use seeds past any timed load.
constexpr std::uint64_t kWarmupOffset = 90'000;

std::uint64_t load_seed(const Options& o, std::size_t i) {
  return o.seed * 100'000 + static_cast<std::uint64_t>(i);
}

}  // namespace

Result run_live_attack(const Options& opt) {
  Result res;
  h::core::RunConfig cfg;

  // Set-up: the config and one untimed load that warms the thread-local
  // BufferPool, repeated so setup_s is a median.
  std::vector<double> setup_s;
  for (int s = 0; s < kSetupRepeats; ++s) {
    const std::int64_t t0 = now_ns();
    cfg = h::core::scenario_config("table2");
    cfg.seed = load_seed(opt, kWarmupOffset + static_cast<std::size_t>(s));
    (void)h::core::run_once(cfg);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Timed window, counters taken as deltas of a registry installed over it.
  Window w;
  std::vector<std::uint64_t> digests;
  h::obs::Registry window_counts;
  {
    h::obs::ScopedRegistry scoped;
    const std::int64_t deadline = deadline_after(timed_seconds(opt));
    while (w.ops == 0 || now_ns() < deadline) {
      cfg.seed = load_seed(opt, digests.size());
      const std::int64_t t0 = now_ns();
      const h::core::RunResult r = h::core::run_once(cfg);
      w.record(now_ns() - t0);
      digests.push_back(fnv1a(kFnvInit, verdict_text(r)));
    }
    window_counts = scoped.registry();
  }
  res.attempted = w.ops;

  // Traced path: each load again with observations_out set, then the layer
  // probes over that load's units. A --trace 0 run does a couple of loads
  // only, to check that the timed and traced paths agree on verdicts.
  SpanLog log;
  StackCosts costs;
  std::int64_t traced_load_ns = 0;
  std::uint64_t traced_ops = 0;
  const std::int64_t traced_deadline = deadline_after(timed_seconds(opt));
  for (std::size_t i = 0;; ++i) {
    if (opt.trace ? now_ns() >= traced_deadline : i >= kAgreementLoads) break;
    cfg.seed = load_seed(opt, i);
    h::core::RunObservations observations;
    cfg.observations_out = &observations;
    const int load = log.open("load", cfg.seed);
    h::core::RunResult r;
    {
      h::obs::ScopedRegistry load_counts(/*merge_on_exit=*/true);
      const int run = log.open("core.run_once", cfg.seed);
      r = h::core::run_once(cfg);
      log.close(run);
      traced_load_ns += log.spans()[static_cast<std::size_t>(run)].dur();
      costs.add_real_units(load_counts.registry());
    }
    cfg.observations_out = nullptr;
    probe_stack(log, cfg.seed, observations, *r.truth, r.events_executed, costs);
    log.close(load);
    ++traced_ops;

    const std::uint64_t digest = fnv1a(kFnvInit, verdict_text(r));
    if (i < digests.size()) {
      if (digest != digests[i]) ++res.failed;
    } else {
      digests.push_back(digest);  // covers the oracle loads on a slow machine
    }
  }
  if (opt.trace) res.attempted += traced_ops;

  // Loads the oracle pins but neither pass reached.
  for (std::size_t i = digests.size(); i < kOracleLoads; ++i) {
    cfg.seed = load_seed(opt, i);
    digests.push_back(fnv1a(kFnvInit, verdict_text(h::core::run_once(cfg))));
  }
  res.oracle_digest = kFnvInit;
  for (std::size_t i = 0; i < kOracleLoads; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx\n", static_cast<unsigned long long>(digests[i]));
    res.oracle_digest = fnv1a(res.oracle_digest, buf);
  }

  std::vector<std::string> failures;
  (void)log.self_times(failures);
  for (std::string& f : failures) res.check_failures.push_back(std::move(f));

  if (!opt.trace) {
    end_to_end_metrics(w, setup_s, res.metrics);
    return res;
  }
  stack_count_metrics(window_counts, static_cast<double>(w.ops), res.metrics);
  costs.report(static_cast<double>(traced_load_ns), 0.0, res.metrics, res);
  const double untraced_ms = ratio(w.busy_s * 1e3, static_cast<double>(w.ops));
  const double traced_ms =
      ratio(static_cast<double>(traced_load_ns) / 1e6, static_cast<double>(traced_ops));
  res.metrics["trace.overhead_pct"] = {100.0 * (ratio(traced_ms, untraced_ms) - 1.0), "%"};
  res.notes.emplace_back("traced_loads", static_cast<double>(traced_ops));
  if (!opt.spans_out.empty()) log.write_chrome_trace(opt.spans_out);
  return res;
}

}  // namespace perfbench
