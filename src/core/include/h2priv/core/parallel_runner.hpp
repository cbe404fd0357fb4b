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

#include <vector>

#include "h2priv/core/experiment.hpp"
#include "h2priv/util/parallel.hpp"

namespace h2priv::core {

// The loop itself lives in util, so layers below core (the .h2t writer) can
// run on it too; core's callers keep naming it here.
using util::effective_jobs;
using util::parallel_for;
using util::Parallelism;

/// Runs seeds {config.seed .. config.seed+n-1} across `parallelism.jobs`
/// workers; bit-identical to the serial run_many for every job count.
[[nodiscard]] std::vector<RunResult> run_many(const RunConfig& config, int n,
                                              Parallelism parallelism);

}  // namespace h2priv::core
