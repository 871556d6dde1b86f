#include "core/region_family.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <new>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/lane_sampler.h"

namespace sfa::core {

Status RequireFinitePoints(const std::vector<geo::Point>& points,
                           const char* what) {
  for (size_t i = 0; i < points.size(); ++i) {
    if (!std::isfinite(points[i].x) || !std::isfinite(points[i].y)) {
      return Status::InvalidArgument(
          StrFormat("%s %zu has a non-finite coordinate (%g, %g)", what, i,
                    points[i].x, points[i].y));
    }
  }
  return Status::OK();
}

Status RequireCountablePoints(uint64_t num_points) {
  if (num_points > kMaxFamilyPoints) {
    return Status::InvalidArgument(StrFormat(
        "%llu points exceed the %llu a family can count in uint32 rows",
        static_cast<unsigned long long>(num_points),
        static_cast<unsigned long long>(kMaxFamilyPoints)));
  }
  return Status::OK();
}

namespace {

/// Counts `num_planes` planes, WorldTile(n, regions, 1) of them per
/// CountPlanes call, so the block stays within an engine tile's budget, or
/// at most 8 through one CountPlaneBytes call: pack(first, count, masks)
/// fills the mask words (or bytes) of planes [first, first + count), and
/// plane p's counts are widened into out + p * stride. The masks and rows
/// live in the calling thread's pooled block (BatchBlock).
template <typename Pack>
void CountWidened(const RegionFamily& family, size_t num_planes, Pack pack,
                  uint64_t* out) {
  const size_t n = family.num_points();
  const size_t stride = family.num_regions();
  if (num_planes <= RegionFamily::kBytePlanes) {
    const size_t rows_size = num_planes * stride;
    const BatchBlock block(rows_size * sizeof(uint32_t) + n);
    uint32_t* rows = new (block.data()) uint32_t[rows_size];
    uint8_t* bytes =
        new (block.data() + rows_size * sizeof(uint32_t)) uint8_t[n];
    pack(0, num_planes, bytes);
    family.CountPlaneBytes(bytes, num_planes, rows, stride);
    std::copy(rows, rows + rows_size, out);
    return;
  }
  const size_t per_call = WorldTile(n, stride, 1);
  const size_t rows_size = std::min(per_call, num_planes) * stride;
  const BatchBlock block(n * sizeof(uint64_t) + rows_size * sizeof(uint32_t));
  uint64_t* masks = new (block.data()) uint64_t[n];
  uint32_t* rows =
      new (block.data() + n * sizeof(uint64_t)) uint32_t[rows_size];
  for (size_t first = 0; first < num_planes; first += per_call) {
    const size_t count = std::min(per_call, num_planes - first);
    pack(first, count, masks);
    family.CountPlanes(masks, count, rows, stride);
    std::copy(rows, rows + count * stride, out + first * stride);
  }
}

/// Sets bit q of masks[i] to plane(q)(i), a uint8_t 0 or 1, for q < count
/// and clears the bits above, one vectorizable pass per plane; Mask is
/// uint64_t, or uint8_t for at most 8 planes.
template <typename Mask, typename Plane>
void PackPlanes(size_t n, size_t count, Plane plane, Mask* masks) {
  const auto first = plane(0);
  for (size_t i = 0; i < n; ++i) masks[i] = first(i);
  for (size_t q = 1; q < count; ++q) {
    const auto bit = plane(q);
    for (size_t i = 0; i < n; ++i) {
      masks[i] |= static_cast<Mask>(static_cast<Mask>(bit(i)) << q);
    }
  }
}

/// PackClassPlanes into Mask words or bytes.
template <typename Mask>
void PackClassPlanesInto(const uint8_t* const* class_worlds,
                         size_t first_plane, size_t num_planes,
                         uint32_t counted, size_t n, Mask* masks) {
  SFA_CHECK(num_planes >= 1 && num_planes <= 8 * sizeof(Mask));
  PackPlanes(
      n, num_planes,
      [&](size_t q) {
        const size_t plane = first_plane + q;
        const size_t klass = plane % counted;
        const uint8_t* codes = class_worlds[plane / counted];
        // No byte code names class 256+: such a plane is all 0. Byte-wide
        // compares keep the pass at 16 or 32 points per vector.
        const auto code = static_cast<uint8_t>(klass);
        const uint8_t live = klass <= 0xFF ? 1 : 0;
        return [codes, code, live](size_t i) -> uint8_t {
          return static_cast<uint8_t>((codes[i] == code) & live);
        };
      },
      masks);
}

/// kSpread16[m] carries bit b of the nibble m into 16-bit lane b.
constexpr std::array<uint64_t, 16> MakeSpread16() {
  std::array<uint64_t, 16> table{};
  for (uint32_t m = 0; m < 16; ++m) {
    for (uint32_t b = 0; b < 4; ++b) {
      table[m] |= static_cast<uint64_t>((m >> b) & 1u) << (16 * b);
    }
  }
  return table;
}
constexpr std::array<uint64_t, 16> kSpread16 = MakeSpread16();

/// Points a 16-bit lane can absorb before it must be flushed.
constexpr size_t kLane16Capacity = 0xFFFF;

/// CountCellPlanes on Mask words, or bytes for at most 8 planes.
template <typename Mask>
void CountCellPlanesOf(const uint32_t* cell_of_point, size_t n,
                       size_t num_cells, const Mask* masks, size_t num_planes,
                       uint32_t* out, size_t out_stride) {
  SFA_CHECK(num_planes >= 1 && num_planes <= 8 * sizeof(Mask));
  // Two words of 16-bit lanes per cell (a byte group's planes 0–3, 4–7),
  // plus one dump cell for points outside every cell.
  static thread_local std::vector<uint64_t> lanes;
  lanes.assign(2 * (num_cells + 1), 0);
  uint64_t* cell_lanes = lanes.data();
  for (size_t p = 0; p < num_planes; ++p) {
    std::fill(out + p * out_stride, out + p * out_stride + num_cells, 0u);
  }
  for (size_t group = 0; group * 8 < num_planes; ++group) {
    const size_t shift = 8 * group;
    const size_t planes = std::min<size_t>(8, num_planes - shift);
    uint32_t* group_out = out + shift * out_stride;
    for (size_t chunk = 0; chunk < n; chunk += kLane16Capacity) {
      const size_t chunk_end = std::min(n, chunk + kLane16Capacity);
      for (size_t i = chunk; i < chunk_end; ++i) {
        const size_t cell = std::min<size_t>(cell_of_point[i], num_cells);
        const auto byte = static_cast<uint32_t>((masks[i] >> shift) & 0xFF);
        cell_lanes[2 * cell] += kSpread16[byte & 0xF];
        cell_lanes[2 * cell + 1] += kSpread16[byte >> 4];
      }
      // A chunk of at most kLane16Capacity points cannot overflow a lane.
      for (size_t cell = 0; cell < num_cells; ++cell) {
        for (size_t b = 0; b < planes; ++b) {
          group_out[b * out_stride + cell] += static_cast<uint32_t>(
              (cell_lanes[2 * cell + b / 4] >> (16 * (b % 4))) & 0xFFFF);
        }
        cell_lanes[2 * cell] = 0;
        cell_lanes[2 * cell + 1] = 0;
      }
    }
  }
}

}  // namespace

void RegionFamily::CountPlanes(const uint64_t* masks, size_t num_planes,
                               uint32_t* out, size_t out_stride) const {
  SFA_CHECK((masks != nullptr || num_points() == 0) && out != nullptr);
  SFA_CHECK(num_planes >= 1 && num_planes <= kMaxPlanes);
  SFA_CHECK(out_stride >= num_regions());
  // Reference path: each plane unpacked into labels and counted through the
  // scalar interface.
  const size_t n = num_points();
  std::vector<uint8_t> bytes(n);
  Labels labels;
  std::vector<uint64_t> scratch;
  for (size_t p = 0; p < num_planes; ++p) {
    for (size_t i = 0; i < n; ++i) bytes[i] = (masks[i] >> p) & 1u;
    labels.AssignBytes(bytes.data(), n);
    CountPositives(labels, &scratch);
    // Counts are at most N <= kMaxFamilyPoints.
    std::copy(scratch.begin(), scratch.end(), out + p * out_stride);
  }
}

void RegionFamily::CountPlaneBytes(const uint8_t* bytes, size_t num_planes,
                                   uint32_t* out, size_t out_stride) const {
  SFA_CHECK(bytes != nullptr || num_points() == 0);
  SFA_CHECK(num_planes >= 1 && num_planes <= kBytePlanes);
  const std::vector<uint64_t> masks(bytes, bytes + num_points());
  CountPlanes(masks.data(), num_planes, out, out_stride);
}

void RegionFamily::CountPositivesBatch(const Labels* const* batch,
                                       size_t num_worlds, uint64_t* out) const {
  SFA_CHECK(batch != nullptr && out != nullptr);
  const size_t n = num_points();
  for (size_t w = 0; w < num_worlds; ++w) {
    SFA_CHECK_MSG(batch[w]->size() == n,
                  "labels " << batch[w]->size() << " != points " << n);
  }
  CountWidened(
      *this, num_worlds,
      [batch, n](size_t first, size_t count, auto* masks) {
        PackPlanes(
            n, count,
            [batch, first](size_t q) {
              const uint8_t* labels = batch[first + q]->bytes().data();
              return [labels](size_t i) -> uint8_t { return labels[i] & 1u; };
            },
            masks);
      },
      out);
}

void RegionFamily::CountClassesBatch(const uint8_t* const* class_worlds,
                                     size_t num_worlds, uint32_t num_classes,
                                     uint64_t* out) const {
  SFA_CHECK(class_worlds != nullptr && out != nullptr);
  SFA_CHECK_MSG(num_classes >= 2, "CountClassesBatch needs at least 2 classes");
  const uint32_t counted = num_classes - 1;
  const size_t n = num_points();
  // Plane p is (world p / counted, class p % counted): the output rows of
  // ClassCountRowOffset are exactly p * stride.
  CountWidened(
      *this, num_worlds * counted,
      [class_worlds, counted, n](size_t first, size_t count, auto* masks) {
        internal::PackClassPlanes(class_worlds, first, count, counted, n,
                                  masks);
      },
      out);
}

namespace internal {

void CountCellPlanes(const uint32_t* cell_of_point, size_t n, size_t num_cells,
                     const uint64_t* masks, size_t num_planes, uint32_t* out,
                     size_t out_stride) {
  CountCellPlanesOf(cell_of_point, n, num_cells, masks, num_planes, out,
                    out_stride);
}

void CountCellPlanes(const uint32_t* cell_of_point, size_t n, size_t num_cells,
                     const uint8_t* masks, size_t num_planes, uint32_t* out,
                     size_t out_stride) {
  CountCellPlanesOf(cell_of_point, n, num_cells, masks, num_planes, out,
                    out_stride);
}

void PackClassPlanes(const uint8_t* const* class_worlds, size_t first_plane,
                     size_t num_planes, uint32_t counted, size_t n,
                     uint64_t* masks) {
  PackClassPlanesInto(class_worlds, first_plane, num_planes, counted, n,
                      masks);
}

void PackClassPlanes(const uint8_t* const* class_worlds, size_t first_plane,
                     size_t num_planes, uint32_t counted, size_t n,
                     uint8_t* masks) {
  PackClassPlanesInto(class_worlds, first_plane, num_planes, counted, n,
                      masks);
}

}  // namespace internal

void RegionFamily::CountPositivesFromCells(const uint32_t* cell_positives,
                                           uint32_t* out) const {
  const CellDecomposition* cells = cell_decomposition();
  SFA_CHECK_MSG(cells != nullptr && cells->cells_are_regions,
                "CountPositivesFromCells called on a family whose regions "
                "are not its cells and that does not override it");
  std::copy(cell_positives, cell_positives + num_regions(), out);
}

}  // namespace sfa::core
