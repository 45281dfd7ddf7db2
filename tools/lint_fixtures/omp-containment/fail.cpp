// Fixture: must produce [omp-containment] findings — a hand-written OpenMP
// region, its header and a team-size query outside util/fork_join.cpp.
#include <omp.h>

#include <cstddef>

void scale(float* v, std::size_t n) {
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) v[i] *= 2.0f;
}

int team() { return omp_get_max_threads(); }
