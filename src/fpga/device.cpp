#include "fpga/device.hpp"

#include <algorithm>

#include "core/wavesz.hpp"
#include "util/bytes.hpp"
#include "util/decode_guard.hpp"
#include "util/error.hpp"

namespace wavesz::fpga {
namespace {

constexpr std::uint32_t kDeviceMagic = 0x44535a57u;  // "WZSD"

struct Partition {
  std::size_t first_column;
  std::size_t column_count;
};

/// Column partition of the flattened view, matching model.cpp's
/// widest_chunk() so the co-sim and the analytic model agree by design.
std::vector<Partition> partition_columns(std::size_t d1, int lanes) {
  const auto n = static_cast<std::size_t>(std::max(1, lanes));
  const std::size_t chunk = (d1 + n - 1) / n;
  std::vector<Partition> parts;
  for (std::size_t c = 0; c < d1; c += chunk) {
    parts.push_back({c, std::min(chunk, d1 - c)});
  }
  return parts;
}

/// Gather a column range of a row-major d0 x d1 grid into its own buffer.
std::vector<float> gather_columns(std::span<const float> data,
                                  std::size_t d0, std::size_t d1,
                                  const Partition& p) {
  std::vector<float> out(d0 * p.column_count);
  for (std::size_t r = 0; r < d0; ++r) {
    const float* src = data.data() + r * d1 + p.first_column;
    std::copy(src, src + p.column_count,
              out.data() + r * p.column_count);
  }
  return out;
}

}  // namespace

CoSimResult compress_on_device(std::span<const float> data, const Dims& dims,
                               const sz::Config& cfg, int lanes,
                               const ModelConfig& model) {
  WAVESZ_REQUIRE(lanes >= 1, "need at least one lane");
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  const Dims flat = dims.flatten2d();
  WAVESZ_REQUIRE(flat.rank == 2, "device path needs a 2D+ dataset");
  const std::size_t d0 = flat[0];
  const std::size_t d1 = flat[1];

  ScheduleConfig sc;
  sc.pii = 1;
  sc.depth = (cfg.base == sz::EbBase::Two) ? pqd_depth_base2(model.ops)
                                           : pqd_depth_base10(model.ops);
  sc.dep_latency = sc.depth;

  CoSimResult out;
  ByteWriter w;
  w.u32(kDeviceMagic);
  w.u8(static_cast<std::uint8_t>(dims.rank));
  for (int i = 0; i < 3; ++i) w.u64(dims.extent[static_cast<std::size_t>(i)]);
  const auto parts = partition_columns(d1, lanes);
  w.u32(static_cast<std::uint32_t>(parts.size()));

  std::vector<std::vector<std::uint8_t>> blobs;
  std::uint64_t worst_makespan = 0;
  std::size_t compressed_total = 0;
  for (const auto& p : parts) {
    const auto chunk = gather_columns(data, d0, d1, p);
    const Dims cdims = Dims::d2(d0, p.column_count);
    const auto compressed = wave::compress(chunk, cdims, cfg);

    LaneRun lane;
    lane.first_column = p.first_column;
    lane.column_count = p.column_count;
    lane.schedule = simulate_wavefront(d0, p.column_count, sc);
    lane.compressed_bytes = compressed.bytes.size();
    worst_makespan = std::max(worst_makespan, lane.schedule.makespan);
    compressed_total += compressed.bytes.size();
    out.lanes.push_back(lane);
    blobs.push_back(compressed.bytes);
  }
  for (const auto& b : blobs) w.u64(b.size());
  for (const auto& b : blobs) w.bytes(b);
  out.archive = w.take();

  out.modeled_seconds =
      static_cast<double>(worst_makespan) / (model.clock.freq_mhz * 1e6);
  const double bytes = static_cast<double>(data.size()) * sizeof(float);
  out.modeled_raw_mbps = bytes / 1e6 / out.modeled_seconds;
  out.modeled_effective_mbps =
      out.modeled_raw_mbps * model.interface_efficiency;
  out.ratio = bytes / static_cast<double>(compressed_total);
  return out;
}

std::vector<float> device_decompress(std::span<const std::uint8_t> archive,
                                     Dims* dims_out) {
  ByteReader r(archive);
  WAVESZ_REQUIRE(r.u32() == kDeviceMagic, "not a device co-sim archive");
  const int rank = r.u8();
  WAVESZ_REQUIRE(rank >= 2 && rank <= 3, "invalid rank");
  std::array<std::size_t, 3> ext{};
  for (auto& e : ext) {
    e = static_cast<std::size_t>(r.u64());
    WAVESZ_REQUIRE(e > 0, "zero extent");
  }
  const Dims dims{ext, rank};
  // Reject forged extents before flatten2d() multiplies them or the output
  // allocation is sized from them.
  const std::size_t total_points = guarded_count(dims, sizeof(float));
  const Dims flat = dims.flatten2d();
  const std::size_t d0 = flat[0];
  const std::size_t d1 = flat[1];
  const std::uint32_t count = r.u32();
  WAVESZ_REQUIRE(count >= 1 && count <= d1, "implausible lane count");

  std::vector<std::uint64_t> sizes(count);
  for (auto& s : sizes) s = r.u64();

  std::vector<float> out(total_points);
  std::size_t col = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto view = r.bytes(sizes[i]);
    Dims cdims;
    const auto chunk =
        wave::decompress({view.begin(), view.end()}, {}, &cdims);
    WAVESZ_REQUIRE(cdims.rank == 2 && cdims[0] == d0,
                   "lane chunk geometry mismatch");
    const std::size_t width = cdims[1];
    WAVESZ_REQUIRE(col + width <= d1, "lane chunks exceed the grid");
    for (std::size_t row = 0; row < d0; ++row) {
      std::copy(chunk.data() + row * width, chunk.data() + (row + 1) * width,
                out.data() + row * d1 + col);
    }
    col += width;
  }
  WAVESZ_REQUIRE(col == d1, "lane chunks do not cover the grid");
  if (dims_out != nullptr) *dims_out = dims;
  return out;
}

}  // namespace wavesz::fpga
