// End-to-end walkthrough of the Section V attack on the isidewith model —
// one narrated run showing what the adversary saw at each phase and what it
// inferred, against the ground truth.
//
//   $ ./examples/isidewith_attack [seed]
#include <cstdio>
#include <cstdlib>

#include "h2priv/core/experiment.hpp"

using namespace h2priv;

int main(int argc, char** argv) {
  core::RunConfig cfg;
  cfg.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;
  cfg.attack_enabled = true;

  std::printf("h2priv — active HTTP/2 multiplexing-serialization attack (DSN'20)\n");
  std::printf("target model: www.isidewith.com '2020 Presidential Quiz' results page\n");
  std::printf("seed %llu\n\n", static_cast<unsigned long long>(cfg.seed));

  std::printf("adversary pipeline:\n");
  std::printf("  phase 1: space client GETs %lld ms apart; count them on the wire\n",
              static_cast<long long>(cfg.attack.phase1_spacing.ns / 1'000'000));
  std::printf("  phase 2: at GET #%d (the results HTML) throttle to %lld Mbps and drop\n"
              "           %.0f%% of server->client application packets until the client\n"
              "           resets its streams (or %lld s elapse)\n",
              cfg.attack.target_get_index,
              static_cast<long long>(cfg.attack.phase2_bandwidth.bits_per_sec /
                                     1'000'000),
              100.0 * cfg.attack.drop_fraction,
              static_cast<long long>(cfg.attack.drop_duration.ns / 1'000'000'000));
  std::printf("  phase 3: widen the spacing to %lld ms; read object sizes off the\n"
              "           serialized record stream\n\n",
              static_cast<long long>(core::kPhase3Spacing.ns / 1'000'000));

  const core::RunResult r = core::run_once(cfg);

  std::printf("--- what happened on the victim's connection ---------------------------"
              "\n");
  std::printf("page %s in %.1f s%s; %llu GETs observed; %llu re-GETs provoked;\n"
              "%llu reset episode(s) with %llu RST_STREAM frames\n\n",
              r.page_complete ? "completed" : "DID NOT complete", r.page_load_seconds,
              r.broken ? " (connection broken)" : "",
              static_cast<unsigned long long>(r.monitor_gets),
              static_cast<unsigned long long>(r.browser_rerequests),
              static_cast<unsigned long long>(r.reset_episodes),
              static_cast<unsigned long long>(r.rst_streams_sent));

  std::printf("--- what the adversary recovered (phase 3 starts at t=%.2f s) ----------"
              "\n",
              r.attack_horizon_seconds);
  std::printf("results HTML (9,500 B): DoM %.2f -> serialized copy %s, identified %s\n",
              r.html.primary_dom.value_or(0.0), r.html.any_serialized_copy ? "yes" : "no",
              r.html.identified ? "yes" : "no");

  std::printf("\n  %-5s | %-10s | %-10s | %-6s | %-10s | %s\n", "pos", "truth",
              "predicted", "DoM", "size", "verdict");
  std::printf("  ------+------------+------------+--------+------------+---------\n");
  for (int pos = 0; pos < web::kPartyCount; ++pos) {
    const auto& o = r.emblems_by_position[static_cast<std::size_t>(pos)];
    const char* predicted =
        pos < static_cast<int>(r.predicted_sequence.size())
            ? r.predicted_sequence[static_cast<std::size_t>(pos)].c_str()
            : "(none)";
    std::printf("  %-5d | %-10s | %-10s | %-6.2f | %-10zu | %s\n", pos + 1,
                o.label.c_str(), predicted, o.primary_dom.value_or(0.0), o.true_size,
                o.attack_success ? "BROKEN" : "private");
  }
  std::printf("\nsurvey ranking recovered: %d/8 positions\n",
              r.sequence_positions_correct);
  std::printf("%s\n", r.html.attack_success && r.sequence_positions_correct == 8
                          ? ">>> complete privacy break: the adversary knows the user's "
                            "political ranking."
                          : ">>> partial break; re-run with other seeds to see the ~85-90"
                            "% "
                            "success band.");
  return 0;
}
