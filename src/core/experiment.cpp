#include "h2priv/core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/sim/simulator.hpp"

namespace h2priv::core {

std::string html_label() { return "results-html"; }

std::string party_label(int party) { return "party-" + std::to_string(party + 1); }

analysis::SizeCatalog isidewith_catalog() {
  analysis::SizeCatalog catalog;
  catalog.add(html_label(), web::kResultsHtmlSize);
  for (int p = 0; p < web::kPartyCount; ++p) {
    catalog.add(party_label(p), web::kEmblemSizes[static_cast<std::size_t>(p)]);
  }
  return catalog;
}

void score_run(const web::IsideWithSite& site,
               const std::array<int, web::kPartyCount>& party_order,
               const analysis::GroundTruth& truth, const ObjectPredictor& predictor,
               util::TimePoint horizon, RunResult& result) {
  const std::vector<Identification> found = predictor.identify_after(horizon);
  const analysis::MultiplexingIndex dom(truth);
  const auto score_object = [&](web::ObjectId id, std::string label) {
    ObjectOutcome o;
    o.object_id = id;
    o.true_size = site.site.object(id).size;
    o.primary_dom = dom.object_dom(id);
    if (o.primary_dom.has_value()) {
      // The paper's per-object observable: DoM == 0 means fully serialized.
      obs::sample(obs::Hist::kH2ObjectDomMilli,
                  static_cast<std::uint64_t>(std::llround(*o.primary_dom * 1000.0)));
    }
    o.serialized_primary = o.primary_dom.has_value() && *o.primary_dom == 0.0;
    o.any_serialized_copy = dom.any_serialized_instance(id);
    o.identified = std::any_of(found.begin(), found.end(),
                               [&](const Identification& f) { return f.label == label; });
    o.attack_success = o.any_serialized_copy && o.identified;
    o.label = std::move(label);
    return o;
  };

  result.html = score_object(site.results_html, html_label());
  std::vector<std::string> party_labels;
  for (int p = 0; p < web::kPartyCount; ++p) party_labels.push_back(party_label(p));
  for (std::size_t pos = 0; pos < party_order.size(); ++pos) {
    const auto party = static_cast<std::size_t>(party_order[pos]);
    result.emblems_by_position[pos] =
        score_object(site.emblems[party], party_labels[party]);
  }

  // Sequence recovery: last occurrence per party, ordered by time.
  std::vector<Identification> last;
  for (const Identification& f : found) {
    if (std::find(party_labels.begin(), party_labels.end(), f.label) ==
        party_labels.end()) {
      continue;
    }
    const auto seen = std::find_if(last.begin(), last.end(),
                                   [&](const Identification& e) {
      return e.label == f.label;
    });
    if (seen == last.end()) {
      last.push_back(f);
    } else {
      *seen = f;
    }
  }
  std::sort(last.begin(), last.end(),
            [](const Identification& a, const Identification& b) {
    return a.when < b.when;
  });
  result.predicted_sequence.clear();
  for (Identification& f : last) result.predicted_sequence.push_back(std::move(f.label));

  result.sequence_positions_correct = 0;
  for (std::size_t pos = 0; pos < party_order.size(); ++pos) {
    const bool position_ok =
        pos < result.predicted_sequence.size() &&
        result.predicted_sequence[pos] ==
            party_labels[static_cast<std::size_t>(party_order[pos])];
    ObjectOutcome& outcome = result.emblems_by_position[pos];
    outcome.attack_success = outcome.any_serialized_copy && position_ok;
    result.sequence_positions_correct += position_ok ? 1 : 0;
  }
}

RunResult run_once(const RunConfig& config) {
  if (config.capture.enabled()) {
    throw std::invalid_argument(
        "run_once writes no trace: record one with capture::record_run");
  }
  obs::Registry& reg = obs::current();
  if (config.obs_trace_capacity > 0) {
    reg.trace().set_capacity(config.obs_trace_capacity);
  }
  sim::Simulator sim;
  sim::Rng root(config.seed);
  sim::Rng plan_rng = root.fork();
  sim::Rng link_rng = root.fork();
  sim::Rng server_rng = root.fork();
  sim::Rng browser_rng = root.fork();
  sim::Rng adversary_rng = root.fork();

  const web::IsideWithSite site = web::build_isidewith_site(config.pad_sensitive_objects);
  web::IsideWithPlan plan = web::build_isidewith_plan(site, plan_rng, config.tuning);

  // --- transport endpoints --------------------------------------------------
  Topology topology(sim, config.path, link_rng, config.seed * 0x9e3779b97f4a7c15ull + 17);
  tls::Session& client_tls = topology.client_tls();
  tls::Session& server_tls = topology.server_tls();

  // --- application endpoints ------------------------------------------------
  // Record quantization (src/defense): the server seals bucket-padded
  // application records; the client must strip the authenticated filler.
  const defense::DefenseConfig& defense_cfg = config.server.defense;
  if (defense_cfg.record_bucket > 0) {
    server_tls.set_send_record_bucket(defense_cfg.record_bucket);
    client_tls.set_recv_record_unpad(true);
  }

  auto truth = std::make_shared<analysis::GroundTruth>();
  server::ServerConfig server_cfg = config.server;
  if (config.push_emblems) {
    std::vector<std::string> emblem_paths;
    for (const web::ObjectId id : site.emblems) {
      emblem_paths.push_back(site.site.object(id).path);
    }
    server_cfg.push_map[site.site.object(site.results_html).path] =
        std::move(emblem_paths);
  }
  server::H2Server server(sim, site.site, server_cfg, server_tls, server_rng.fork(),
                          truth.get());
  client::Browser browser(sim, site.site, plan.plan, config.browser, client_tls,
                          browser_rng.fork());

  net::Middlebox& middlebox = topology.middlebox();
  if (config.packet_tap) {
    middlebox.add_tap([&config](net::Direction d, const net::Packet& p, util::TimePoint) {
      config.packet_tap(d, p);
    });
  }

  // --- adversary --------------------------------------------------------------
  TrafficMonitor monitor(middlebox);
  RunObservations* const out = config.observations_out;
  if (out != nullptr) {
    out->packets.clear();
    monitor.on_packet_observed = [out](const analysis::PacketObservation& obs) {
      out->packets.push_back(obs);
    };
  }
  NetworkController controller(sim, middlebox, adversary_rng.fork());
  Attack attack(sim, monitor, controller, config.attack);
  if (config.attack_enabled) attack.arm();
  if (config.manual_spacing) controller.set_request_spacing(*config.manual_spacing);
  if (config.manual_bandwidth) controller.set_bandwidth(*config.manual_bandwidth);

  // --- go ---------------------------------------------------------------------
  topology.start();
  const std::size_t events_executed =
      sim.run_until(util::TimePoint{} + config.deadline);

  // --- score ------------------------------------------------------------------
  RunResult result;
  result.events_executed = events_executed;
  result.page_complete = browser.stats().page_complete;
  result.broken = browser.stats().broken;
  result.page_load_seconds =
      result.page_complete ? browser.stats().page_complete_time.seconds() : 0.0;
  result.browser_rerequests = browser.stats().rerequests_sent;
  result.reset_episodes = browser.stats().reset_episodes;
  result.rst_streams_sent = browser.stats().rst_streams_sent;
  result.tcp_retransmits = topology.client_tcp().stats().total_retransmits() +
                           topology.server_tcp().stats().total_retransmits();
  result.duplicate_server_responses = server.stats().duplicate_requests;
  result.truth = truth;
  result.monitor_packets = monitor.packets_seen();
  result.egress_burst_drops = topology.link_stats(Hop::kGatewayToClient).burst_dropped;
  result.monitor_gets = monitor.get_count();
  result.true_party_order = plan.party_order;

  const ObjectPredictor predictor(monitor.records(net::Direction::kServerToClient),
                                  isidewith_catalog());
  const util::TimePoint horizon =
      config.attack_enabled && attack.timeline().drops_ended
          ? *attack.timeline().drops_ended
          : util::TimePoint{};
  score_run(site, plan.party_order, *truth, predictor, horizon, result);
  result.attack_horizon_seconds = horizon.seconds();
  result.debug_bursts = predictor.bursts_after(horizon);

  if (out != nullptr) {
    out->records_c2s = monitor.records(net::Direction::kClientToServer);
    out->records_s2c = monitor.records(net::Direction::kServerToClient);
    out->attack_horizon_ns = horizon.ns;
  }

  reg.add(obs::Counter::kCoreRuns);
  if (result.page_complete) reg.add(obs::Counter::kCorePagesComplete);
  if (result.broken) reg.add(obs::Counter::kCoreBrokenRuns);
  reg.add(obs::Counter::kCoreBrowserRerequests, result.browser_rerequests);
  reg.add(obs::Counter::kCoreResetEpisodes, result.reset_episodes);
  reg.trace().push(sim.now().ns, obs::TraceLayer::kCore, obs::TraceEvent::kRunScored,
                   config.seed, events_executed);

  return result;
}

std::vector<RunResult> run_many(const RunConfig& config, int n) {
  return run_many(config, n, Parallelism::from_env());
}

}  // namespace h2priv::core
