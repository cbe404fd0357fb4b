// Fork-join loops over independent items.
//
// Every batch in the reproduction (Monte-Carlo seeds, corpus traces, fleet
// clients, the coded blocks of one .h2t) is a set of items that share no
// state, so one primitive serves them all: a fixed set of workers takes item
// indices off one atomic counter and each item writes only its own slot of a
// pre-sized output. The output is therefore identical at any worker count;
// per-worker metrics fold into the caller's registry at the join.
#pragma once

#include <functional>

namespace h2priv::util {

struct Parallelism {
  /// Worker threads: 0 = one per hardware thread, 1 = the plain serial loop
  /// (no threads spawned), n = exactly n workers.
  int jobs = 1;
};

/// Resolves a Parallelism request against the machine and the batch size:
/// expands jobs=0 to hardware_concurrency() and never returns more workers
/// than there are items (or fewer than 1).
[[nodiscard]] int effective_jobs(Parallelism parallelism, int items) noexcept;

/// Runs `body(i)` for every i in [0, n) across the requested number of
/// worker threads (the calling thread is one of them). Indices are handed
/// out through an atomic counter, so uneven per-item run times self-balance.
/// The first exception thrown by any body is rethrown on the caller after
/// all workers drain.
void parallel_for(int n, Parallelism parallelism,
                  const std::function<void(int)>& body);

}  // namespace h2priv::util
