#include "h2priv/util/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "h2priv/obs/metrics.hpp"

namespace h2priv::util {

int effective_jobs(Parallelism parallelism, int items) noexcept {
  int jobs = parallelism.jobs;
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs <= 0) jobs = 1;  // hardware_concurrency() may report 0
  if (jobs > items) jobs = items;
  return jobs < 1 ? 1 : jobs;
}

void parallel_for(int n, Parallelism parallelism,
                  const std::function<void(int)>& body) {
  if (n <= 0) return;
  const int jobs = effective_jobs(parallelism, n);
  if (jobs == 1) {
    // Serial path counts straight into the caller's registry — identical
    // totals to the threaded path below, just without the detour.
    for (int i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  // Metrics: every worker counts into a private registry and folds it into
  // the caller's registry at join. Counter merges are sums (and gauge
  // merges maxes), so the batch totals are bit-identical for any job count
  // and any work-stealing interleaving.
  obs::Registry& parent_registry = obs::current();
  std::mutex merge_mutex;

  const auto worker = [&] {
    obs::ScopedRegistry scoped;
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) break;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
    const std::lock_guard<std::mutex> lock(merge_mutex);
    parent_registry.merge_from(scoped.registry());
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs - 1));
  for (int t = 0; t < jobs - 1; ++t) pool.emplace_back(worker);
  worker();  // the calling thread pulls its weight too
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace h2priv::util
