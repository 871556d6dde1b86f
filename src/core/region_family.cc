#include "core/region_family.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"

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

namespace {

/// Thread-local mask bytes of the packing adapters (one per point), live
/// only within one counting call on the owning thread.
uint8_t* LocalPlaneMasks(size_t num_points) {
  static thread_local std::vector<uint8_t> masks;
  masks.resize(num_points);
  return masks.data();
}

constexpr uint64_t kByteOnes = 0x0101010101010101ULL;
constexpr uint64_t kByteLow7 = 0x7F7F7F7F7F7F7F7FULL;
constexpr uint64_t kByteHigh = 0x8080808080808080ULL;

/// Byte j of the result is p[j] for j < count and 0 above it.
inline uint64_t LoadBytes(const uint8_t* p, size_t count) {
  uint64_t word = 0;
  std::memcpy(&word, p, count);
  return word;
}

/// Packs `num_planes` planes into bit b of masks[i], 8 points per word:
/// plane_bytes(b, i, count) returns a word whose byte j is 1 when point i + j
/// lies in plane b and 0 otherwise (bytes at j >= count are don't-care).
/// Every step is lane-local, so the byte order of the word never matters.
template <typename PlaneBytes>
void PackPlanes(size_t n, size_t num_planes, PlaneBytes plane_bytes,
                uint8_t* masks) {
  const auto pack = [&](size_t i, size_t count) {
    uint64_t word = 0;
    for (size_t b = 0; b < num_planes; ++b) {
      word |= plane_bytes(b, i, count) << b;
    }
    std::memcpy(masks + i, &word, count);
  };
  const size_t full = n - n % 8;
  for (size_t i = 0; i < full; i += 8) pack(i, 8);
  if (full < n) pack(full, n - full);
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

}  // namespace

void RegionFamily::CountPlanes(const uint8_t* masks, size_t num_planes,
                               uint64_t* out, size_t out_stride) const {
  SFA_CHECK((masks != nullptr || num_points() == 0) && out != nullptr);
  SFA_CHECK(num_planes >= 1 && num_planes <= kMaxPlanes);
  SFA_CHECK(out_stride >= num_regions());
  // Reference path: each plane unpacked into labels and counted through the
  // scalar interface.
  const size_t n = num_points();
  std::vector<uint8_t> bytes(n);
  Labels labels;
  std::vector<uint64_t> scratch;
  for (size_t b = 0; b < num_planes; ++b) {
    for (size_t i = 0; i < n; ++i) bytes[i] = (masks[i] >> b) & 1u;
    labels.AssignBytes(bytes.data(), n);
    CountPositives(labels, &scratch);
    std::copy(scratch.begin(), scratch.end(), out + b * out_stride);
  }
}

void RegionFamily::CountPositivesBatch(const Labels* const* batch,
                                       size_t num_worlds, uint64_t* out) const {
  SFA_CHECK(batch != nullptr && out != nullptr);
  const size_t n = num_points();
  const size_t stride = num_regions();
  for (size_t b = 0; b < num_worlds; ++b) {
    SFA_CHECK_MSG(batch[b]->size() == n,
                  "labels " << batch[b]->size() << " != points " << n);
  }
  uint8_t* masks = LocalPlaneMasks(n);
  for (size_t g = 0; g < num_worlds; g += kMaxPlanes) {
    const size_t planes = std::min(kMaxPlanes, num_worlds - g);
    const uint8_t* labels[kMaxPlanes];
    for (size_t b = 0; b < planes; ++b) {
      labels[b] = batch[g + b]->bytes().data();
    }
    PackPlanes(
        n, planes,
        [&labels](size_t b, size_t i, size_t count) {
          return LoadBytes(labels[b] + i, count);
        },
        masks);
    CountPlanes(masks, planes, out + g * stride, stride);
  }
}

void RegionFamily::CountClassesBatch(const uint8_t* const* class_worlds,
                                     size_t num_worlds, uint32_t num_classes,
                                     uint64_t* out) const {
  SFA_CHECK(class_worlds != nullptr && out != nullptr);
  SFA_CHECK_MSG(num_classes >= 2, "CountClassesBatch needs at least 2 classes");
  const uint32_t counted = num_classes - 1;
  const size_t n = num_points();
  const size_t stride = num_regions();
  // Plane p is (world p / counted, class p % counted): the output rows of
  // ClassCountRowOffset are exactly p * stride, so groups of consecutive
  // planes land in consecutive rows.
  const size_t num_planes = num_worlds * counted;
  uint8_t* masks = LocalPlaneMasks(n);
  for (size_t g = 0; g < num_planes; g += kMaxPlanes) {
    const size_t planes = std::min(kMaxPlanes, num_planes - g);
    const uint8_t* codes[kMaxPlanes];
    uint64_t pattern[kMaxPlanes];
    uint64_t keep[kMaxPlanes];
    for (size_t b = 0; b < planes; ++b) {
      const size_t klass = (g + b) % counted;
      codes[b] = class_worlds[(g + b) / counted];
      pattern[b] = kByteOnes * (klass & 0xFF);
      keep[b] = klass <= 0xFF ? ~0ULL : 0;  // no byte code names class 256+
    }
    PackPlanes(
        n, planes,
        [&](size_t b, size_t i, size_t count) {
          // Bytes equal to the class become 0; the high bit of `nonzero`
          // is then set exactly in the other bytes (no carry crosses lanes).
          const uint64_t diff = LoadBytes(codes[b] + i, count) ^ pattern[b];
          const uint64_t nonzero = ((diff & kByteLow7) + kByteLow7) | diff;
          return ((~nonzero & kByteHigh) >> 7) & keep[b];
        },
        masks);
    CountPlanes(masks, planes, out + g * stride, stride);
  }
}

namespace internal {

void CountCellPlanes(const uint32_t* cell_of_point, size_t n, size_t num_cells,
                     const uint8_t* masks, size_t num_planes, uint64_t* out,
                     size_t out_stride) {
  SFA_CHECK(num_planes >= 1 && num_planes <= RegionFamily::kMaxPlanes);
  // Two words of 16-bit lanes per cell (planes 0–3, 4–7), plus one dump
  // cell for points outside every cell.
  static thread_local std::vector<uint64_t> lanes;
  lanes.assign(2 * (num_cells + 1), 0);
  for (size_t b = 0; b < num_planes; ++b) {
    std::fill(out + b * out_stride, out + b * out_stride + num_cells, 0ULL);
  }
  uint64_t* cell_lanes = lanes.data();
  for (size_t chunk = 0; chunk < n; chunk += kLane16Capacity) {
    const size_t chunk_end = std::min(n, chunk + kLane16Capacity);
    for (size_t i = chunk; i < chunk_end; ++i) {
      const size_t cell = std::min<size_t>(cell_of_point[i], num_cells);
      cell_lanes[2 * cell] += kSpread16[masks[i] & 0xF];
      cell_lanes[2 * cell + 1] += kSpread16[masks[i] >> 4];
    }
    // A chunk of at most kLane16Capacity points cannot overflow a lane.
    for (size_t cell = 0; cell < num_cells; ++cell) {
      for (size_t b = 0; b < num_planes; ++b) {
        out[b * out_stride + cell] +=
            (cell_lanes[2 * cell + b / 4] >> (16 * (b % 4))) & 0xFFFF;
      }
      cell_lanes[2 * cell] = 0;
      cell_lanes[2 * cell + 1] = 0;
    }
  }
}

}  // namespace internal

void RegionFamily::CountPositivesFromCells(const uint32_t* /*cell_positives*/,
                                           uint64_t* /*out*/) const {
  SFA_CHECK_MSG(false,
                "CountPositivesFromCells called on a family without a cell "
                "decomposition");
}

}  // namespace sfa::core
