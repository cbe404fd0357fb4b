// perfbench: the h2priv benchmark binary. Runs one workload for a timed
// window and prints one PERFBENCH_RESULT JSON line; perfbench/run.py builds
// it, checks the verdict oracle and prints the contract's result line.
//
//   perfbench --workload live_attack|offline_score|fleet_capture --seed N
//             --seconds S --trace 0|1 --tmp DIR [--spans-out FILE]
//             [--inject-decode]
//
// The network is simulated: no real link or disk rate is measured.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--tmp") {
      o.tmp_dir = value();
    } else if (arg == "--spans-out") {
      o.spans_out = value();
    } else if (arg == "--inject-decode") {
      o.inject_decode = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.tmp_dir.empty()) usage("--tmp is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

void print_result(const Options& o, const perfbench::Result& r) {
  std::printf("PERFBENCH_RESULT {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"attempted\":%llu,\"failed\":%llu,\"oracle_digest\":\"%016llx\",\"checks\":[",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.oracle_digest));
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", r.check_failures[i].c_str());
  }
  std::printf("],\"metrics\":{");
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",", name.c_str(),
                m.value, m.unit.c_str());
    first = false;
  }
  std::printf("},\"notes\":{");
  first = true;
  for (const auto& [name, value] : r.notes) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  namespace fs = std::filesystem;
  int status = 0;
  try {
    fs::create_directories(o.tmp_dir);
    perfbench::Result r;
    if (o.workload == "live_attack") {
      r = perfbench::run_live_attack(o);
    } else if (o.workload == "offline_score") {
      r = perfbench::run_offline_score(o);
    } else if (o.workload == "fleet_capture") {
      r = perfbench::run_fleet_capture(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
    std::printf("perfbench: %s seed %llu, simulated network (no real link or disk rate "
                "is measured)\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed));
    for (const auto& [name, value] : r.notes) std::printf("  %-34s %.6g\n", name.c_str(), value);
    print_result(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(o.tmp_dir, ec);
  return status;
}
