#include "h2priv/core/parallel_runner.hpp"

namespace h2priv::core {

std::vector<RunResult> run_many(const RunConfig& config, int n,
                                Parallelism parallelism) {
  std::vector<RunResult> out(static_cast<std::size_t>(n < 0 ? 0 : n));
  const std::uint64_t base = config.seed;
  parallel_for(n, parallelism, [&](int i) {
    RunConfig cfg = config;  // each worker run owns its config copy
    cfg.seed = base + static_cast<std::uint64_t>(i);
    out[static_cast<std::size_t>(i)] = run_once(cfg);
  });

  return out;
}

}  // namespace h2priv::core
