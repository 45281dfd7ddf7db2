// Fork-join parallelism for the whole library: one thread-budget rule, one
// worker-count rule and one failure containment, in front of OpenMP teams.
//
// Every fan-out in src/ (the value-range scan, the H* histogram and
// index-chunk decode, the tiled wavefront PQD and reconstruct, chunked
// DEFLATE, the batch inflate and the stream-archive chunk decode) goes
// through parallel_for or parallel_batches; fork_join.cpp is the only file
// that speaks OpenMP (tools/wavesz_lint.py's omp-containment rule).
// team_size() never hands out more workers than the CPUs the process may
// run on (omp_get_num_procs()): more than that only wait out each other's
// time slices. A build without OpenMP sizes every team at 1 and runs its
// items in order on the caller. Layouts that depend on a budget (chunked DEFLATE, v2 sections)
// read the requested budget, never a team size, so every output is the
// same on every host and in both builds.
#pragma once

#include <cstddef>
#include <functional>

namespace wavesz::util {

/// Resolve a thread budget to a thread count: 0 or negative = all threads
/// (the OpenMP default team size, or the hardware thread count in a build
/// without OpenMP), n = n.
int resolve_thread_budget(int budget);

/// Workers for `items` units of work: the resolved budget, capped by the
/// item count, by `min_per_worker` items per worker (0 or 1 = no floor)
/// and by the CPUs the process may run on (1 without OpenMP). Always at
/// least 1.
int team_size(int budget, std::size_t items, std::size_t min_per_worker = 1);

/// Run body(i) once for every i in [0, n) on team_size(threads, n) workers,
/// items handed out dynamically. One worker runs them in order on the
/// caller. The first exception an item throws is rethrown on the caller
/// once the team has joined; items that start after it are skipped.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& body);

/// Run `batches` batches in order inside one team of
/// resolve_thread_budget(threads) workers: batch b holds batch_size(b)
/// items, body(b, i) runs once for each, and every item of batch b has
/// finished before any item of batch b + 1 starts (a team barrier). After
/// an item throws, no further item runs, every worker still leaves through
/// the remaining barriers, and the first exception is rethrown on the
/// caller once the team has joined. `batch_size` must give every worker
/// the same answer.
void parallel_batches(
    std::size_t batches,
    const std::function<std::size_t(std::size_t)>& batch_size, int threads,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace wavesz::util
