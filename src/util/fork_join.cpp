#include "util/fork_join.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#ifdef _OPENMP
#include <omp.h>
#define WAVESZ_OMP(directive) _Pragma(#directive)
#else
#include <thread>
#define WAVESZ_OMP(directive)
#endif

namespace wavesz::util {
namespace {

/// First-failure latch of one team: an exception must not escape an OpenMP
/// region (that terminates the process), so the first item to throw keeps
/// its exception for the caller and the items after it are skipped.
class FirstFailure {
 public:
  template <typename Item>
  void run(const Item& item) {
    if (failed_.load(std::memory_order_relaxed)) return;
    try {
      item();
    } catch (...) {
      if (!failed_.exchange(true)) error_ = std::current_exception();
    }
  }

  /// Call on the spawning thread after the team has joined: the join
  /// publishes the winner's error_.
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

/// The most workers a team can use: the CPUs OpenMP may run this process
/// on, or 1 without OpenMP, where every team runs on the caller.
int max_team() {
#ifdef _OPENMP
  return std::max(1, omp_get_num_procs());
#else
  return 1;
#endif
}

}  // namespace

int resolve_thread_budget(int budget) {
  if (budget > 0) return budget;
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
#endif
}

int team_size(int budget, std::size_t items, std::size_t min_per_worker) {
  const std::size_t floor = std::max<std::size_t>(1, min_per_worker);
  const std::size_t cap = std::max<std::size_t>(1, items / floor);
  return static_cast<int>(std::min<std::size_t>(
      {static_cast<std::size_t>(resolve_thread_budget(budget)), cap,
       static_cast<std::size_t>(max_team())}));
}

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& body) {
  const int nt = team_size(threads, n);
  if (nt <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  FirstFailure failure;
  WAVESZ_OMP(omp parallel for num_threads(nt) schedule(dynamic))
  for (std::size_t i = 0; i < n; ++i) {
    failure.run([&] { body(i); });
  }
  failure.rethrow();
}

void parallel_batches(
    std::size_t batches,
    const std::function<std::size_t(std::size_t)>& batch_size, int threads,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const int nt = resolve_thread_budget(threads);
  if (nt <= 1) {
    for (std::size_t b = 0; b < batches; ++b) {
      for (std::size_t i = 0, n = batch_size(b); i < n; ++i) body(b, i);
    }
    return;
  }
  FirstFailure failure;
  // Every worker walks every batch: the implicit barrier closing each
  // worksharing loop is the batch boundary, and a worker that left early
  // after a failure would leave the others waiting at the next barrier.
  WAVESZ_OMP(omp parallel num_threads(nt))
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t n = batch_size(b);
    WAVESZ_OMP(omp for schedule(dynamic))
    for (std::size_t i = 0; i < n; ++i) {
      failure.run([&] { body(b, i); });
    }
  }
  failure.rethrow();
}

}  // namespace wavesz::util
