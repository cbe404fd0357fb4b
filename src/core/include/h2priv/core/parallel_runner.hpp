// Parallel Monte-Carlo batch execution.
//
// Every table/figure in the reproduction is a batch of fully independent
// seeded page loads, so the batch layer is embarrassingly parallel: a fixed
// thread pool work-steals seed indices off one atomic counter and each
// worker runs the ordinary serial run_once() with its own Simulator and
// Rng(seed). Results land in a pre-sized vector at their seed offset, so the
// output — order and every bit of every RunResult — is identical to the
// serial loop regardless of the job count (covered by the determinism
// regression test).
#pragma once

#include <functional>
#include <vector>

#include "h2priv/core/experiment.hpp"

namespace h2priv::core {

struct Parallelism {
  /// Worker threads for batch runs: 0 = one per hardware thread, 1 = the
  /// plain serial loop (no threads spawned), n = exactly n workers.
  int jobs = 1;
};

/// Resolves a Parallelism request against the machine and the batch size:
/// expands jobs=0 to hardware_concurrency() and never returns more workers
/// than there are items (or fewer than 1).
[[nodiscard]] int effective_jobs(Parallelism parallelism, int items) noexcept;

/// Runs `body(i)` for every i in [0, n) across the requested number of
/// worker threads (the calling thread is one of them). Indices are handed
/// out through an atomic counter, so uneven per-seed run times self-balance.
/// The first exception thrown by any body is rethrown on the caller after
/// all workers drain.
void parallel_for(int n, Parallelism parallelism,
                  const std::function<void(int)>& body);

/// Runs seeds {config.seed .. config.seed+n-1} across `parallelism.jobs`
/// workers; bit-identical to the serial run_many for every job count.
[[nodiscard]] std::vector<RunResult> run_many(const RunConfig& config, int n,
                                              Parallelism parallelism);

}  // namespace h2priv::core
