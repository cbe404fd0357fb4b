// Runs one page load (optionally attacked) and captures the adversary's
// observations plus the simulator's ground truth as a compact .h2t trace —
// inspect, replay, or export it with tools/h2priv_trace.
//
//   $ ./examples/trace_dump <prefix> [seed] [attack]
//   -> <prefix>.h2t
//
// For pandas/gnuplot-style analysis, export CSVs from the stored trace:
//   $ h2priv_trace inspect <prefix>.h2t --packets-csv   (or --records-csv)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "h2priv/core/experiment.hpp"

using namespace h2priv;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <prefix> [seed] [attack]\n", argv[0]);
    return 2;
  }
  core::RunConfig cfg;
  cfg.seed = 1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "attack") == 0) {
      cfg.attack_enabled = true;
    } else {
      cfg.seed = std::strtoull(argv[i], nullptr, 10);
    }
  }
  const std::string prefix = argv[1];
  cfg.capture.path = prefix + ".h2t";
  cfg.capture.scenario = cfg.attack_enabled ? "table2" : "baseline";

  const core::RunResult r = core::run_once(cfg);
  std::printf("run complete: page=%s attack=%s packets=%llu gets=%d\n",
              r.page_complete ? "ok" : "incomplete",
              cfg.attack_enabled ? "on" : "off",
              static_cast<unsigned long long>(r.monitor_packets), r.monitor_gets);
  std::printf("wrote %s.h2t\n", prefix.c_str());
  return 0;
}
