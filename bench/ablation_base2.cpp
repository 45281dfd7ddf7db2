// Ablation: the base-2 co-optimization (§3.3). Three effects:
//   1. ratio — tightening the bound to a power of two compresses slightly
//      harder (smaller eb) at equal correctness;
//   2. CPU kernel speed — LinearQuantizer at the base-10 bound and at its
//      base-2 tightening: both multiply by a precomputed reciprocal, which
//      is exact only at the power of two, so the two run at one speed;
//   3. FPGA datapath — Delta shrinks 152 -> 117 cycles and the DSP
//      divider/multiplier disappear (throughput effect is geometry
//      dependent: it only shows when Lambda < Delta).
#include <vector>

#include "common.hpp"
#include "fpga/model.hpp"
#include "fpga/resources.hpp"
#include "sz/quantizer.hpp"
#include "util/float_bits.hpp"

int main(int argc, char** argv) {
  using namespace wavesz;
  const auto opts = bench::Options::parse(argc, argv);
  bench::print_header("Ablation — base-10 vs base-2 quantization",
                      "paper §3.3 (Table 3 motivation, Table 6 DSP column)");
  bench::print_scale_note(opts);

  // 1. Ratio effect on the CESM persona.
  std::printf("\n[1] compression ratio, waveSZ G*:\n");
  std::printf("%-12s %12s %12s\n", "dataset", "base-10", "base-2");
  for (auto p : data::all_personas()) {
    double sum10 = 0, sum2 = 0;
    std::size_t n = 0;
    for (const auto& f : data::fields(p, opts.scale_for(p))) {
      const auto grid = f.materialize();
      const double raw = static_cast<double>(grid.size() * sizeof(float));
      auto cfg = wave::default_config();
      cfg.base = sz::EbBase::Ten;
      sum10 += raw / static_cast<double>(
                         wave::compress(grid, f.dims, cfg).bytes.size());
      cfg.base = sz::EbBase::Two;
      sum2 += raw / static_cast<double>(
                        wave::compress(grid, f.dims, cfg).bytes.size());
      ++n;
    }
    std::printf("%-12s %12.1f %12.1f\n",
                std::string(data::persona_name(p)).c_str(),
                sum10 / static_cast<double>(n), sum2 / static_cast<double>(n));
  }

  // 2. CPU kernel speed: quantize a long stream at both bounds.
  const std::size_t n = 4'000'000;
  std::vector<float> preds(n), origs(n);
  for (std::size_t i = 0; i < n; ++i) {
    preds[i] = static_cast<float>(i % 97) * 0.125f;
    origs[i] = preds[i] + static_cast<float>((i * 31) % 13) * 0.01f;
  }
  const int e = pow2_tighten_exp(1e-3);
  const sz::LinearQuantizer q10(1e-3, 16);
  const sz::LinearQuantizer q2(std::ldexp(1.0, e), 16);
  std::uint64_t acc = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < n; ++i) {
    acc += q10.quantize(preds[i], origs[i]).code;
  }
  const double t10 = sw.seconds();
  sw.reset();
  for (std::size_t i = 0; i < n; ++i) {
    acc += q2.quantize(preds[i], origs[i]).code;
  }
  const double t2 = sw.seconds();
  std::printf("\n[2] CPU quantizer kernel (%zu points, checksum %llu):\n"
              "    base-10 bound 1e-3   %8.1f Mpts/s\n"
              "    base-2 bound 2^%-4d  %8.1f Mpts/s  (%.2fx)\n"
              "    Both multiply by a precomputed reciprocal; the base-2 win "
              "is the FPGA\n    datapath below, not CPU speed.\n",
              n, static_cast<unsigned long long>(acc),
              static_cast<double>(n) / 1e6 / t10, e,
              static_cast<double>(n) / 1e6 / t2, t10 / t2);

  // 3. FPGA datapath effect.
  std::printf("\n[3] FPGA datapath (model):\n");
  std::printf("    Delta: base-10 %d cycles -> base-2 %d cycles\n",
              fpga::pqd_depth_base10(), fpga::pqd_depth_base2());
  const auto lane10 = fpga::wave_pqd_lane_base10();
  const auto lane2 = fpga::wave_pqd_lane_base2();
  std::printf("    per-lane DSP48E: %d -> %d; LUT: %d -> %d\n",
              lane10.dsp48e, lane2.dsp48e, lane10.lut, lane2.lut);
  for (auto p : data::all_personas()) {
    const Dims native = data::persona_dims(p, 1);
    const auto t10 =
        fpga::wave_throughput(native, fpga::kWaveSzLanes, sz::EbBase::Ten);
    const auto t2 =
        fpga::wave_throughput(native, fpga::kWaveSzLanes, sz::EbBase::Two);
    std::printf("    %-12s %7.0f -> %7.0f MB/s (%.2fx)\n",
                std::string(data::persona_name(p)).c_str(),
                t10.effective_mbps, t2.effective_mbps,
                t2.effective_mbps / t10.effective_mbps);
  }
  std::printf("\nshape check: Hurricane (Lambda=99 < Delta) gains the most "
              "from the shorter\ndatapath; CESM/NYX bodies already run at "
              "pII=1 either way.\n");
  return 0;
}
