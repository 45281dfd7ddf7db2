// Fixture: must be clean — fan-outs go through the fork-join helper, which
// owns the OpenMP team; a name that merely starts with omp_ (the Figure 8
// scaling model) is not OpenMP.
#include <cstddef>

#include "fpga/model.hpp"
#include "util/fork_join.hpp"

void scale(float* v, std::size_t n, int threads) {
  wavesz::util::parallel_for(n, threads, [&](std::size_t i) { v[i] *= 2.0f; });
}

double modeled(double mbps) { return wavesz::fpga::omp_scaled_mbps(mbps, 8); }
