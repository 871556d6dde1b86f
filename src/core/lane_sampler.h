// Null-world lane sampler: draws up to 8 null worlds at once, each from its
// own generator — i.i.d. point-level and permutation worlds straight into
// packed mask words, and closed-form Bernoulli cell worlds into per-world
// cell rows.
//
// Every null world w already draws from its own generator (Rng::Split(w) of
// the simulation seed), so 8 worlds can step side by side in 8 SIMD lanes and
// produce exactly the streams they produce one at a time. Each point has one
// 64-bit mask word, bit p = plane p's label, which is the plane format of
// RegionFamily::CountPlanes; a call fills one byte of every word, so the 8
// calls for worlds 8g … 8g+7 (byte g) fill a 64-world word, and the
// simulations count the worlds without label arrays, class-code arrays or a
// packing pass:
//
//   Bernoulli   point i of world w is positive when (Next() >> 11) <
//               Rng::BernoulliThreshold(ρ), exactly as
//               Labels::ResampleBernoulli draws it: the class-0 plane of a
//               2-class draw on that one threshold;
//   K classes   the class is the number of thresholds m_c with
//               (Next() >> 11) >= m_c, exactly as
//               core::internal::CategoricalDraw draws it, and each counted
//               class c < K−1 gets its own byte of the mask words, so one
//               word holds every (world, class) plane of a K-class tile;
//   cells       every live cell of a CellSamplerBank, in cell order, takes
//               one NextDouble() per world, scaled by its alias table's
//               size and truncated to a column, then the column's
//               keep-or-alias select, exactly as CellSamplerBank::Draw;
//   permutation step i of every world's partial Fisher–Yates shuffle draws
//               NextUint64(n − i) as the high half of a 64×32-bit product,
//               exactly as DrawPermutationPositives (core/labels.h); a lane
//               whose low half falls below n − i finishes NextUint64's
//               rejection loop on a scalar copy of its generator. The lanes
//               draw a block of steps' offsets, then each world runs its
//               swaps of that block on its own ids and ORs its bit into the
//               mask bytes of the ids it draws.
//
// Three arms, picked by spatial::ActiveSamplerKernel() (CPUID, clamped by
// SFA_SIMD_POPCOUNT / ForcePopcountKernel):
//
//   scalar   one world at a time; the portable reference;
//   AVX2     two groups of 4 64-bit lanes, rotates as shift pairs;
//   AVX-512  8 lanes, one-instruction rotates, unsigned compares straight
//            into the mask byte, gathers and scatters (AVX-512F).
//
// Every arm produces the same mask bits or cell counts, per-world totals and
// final generator states (tests/test_lane_sampler.cc pins them against the
// scalar samplers).
#ifndef SFA_CORE_LANE_SAMPLER_H_
#define SFA_CORE_LANE_SAMPLER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"

namespace sfa::core {

/// Worlds one sampler call draws at most: one per bit of a mask byte.
inline constexpr size_t kLaneWorlds = 8;

/// Bytes of a mask word: 8-world groups one word holds.
inline constexpr size_t kMaskBytes = 8;

/// Draws `num_worlds` (1..kLaneWorlds) Bernoulli(rho) label worlds over `n`
/// points, world w from rngs[w], into byte `byte` (< kMaskBytes) of the n
/// mask words at `masks`: bit 8·byte + w of masks[i] is world w's label of
/// point i, and the byte's bits at and above num_worlds are 0 (the other
/// bytes are untouched). positives[w] gets world w's positive count, and
/// rngs[w] ends where Labels::ResampleBernoulli(n, rho, &rngs[w]) leaves it:
/// ρ <= 0 and ρ >= 1 draw nothing, and a NaN ρ draws once per point and
/// labels every point 0.
void SampleBernoulliLanes(double rho, size_t n, size_t num_worlds, Rng* rngs,
                          uint64_t* masks, size_t byte, uint64_t* positives);

/// Draws `num_worlds` (1..kLaneWorlds) K-class worlds over `n` points on the
/// non-decreasing thresholds m_0..m_{K−2} of internal::CategoricalDraw
/// (1 <= K−1 <= 255), world w from rngs[w]. Class c < K−1 fills mask byte
/// b = byte + c, which is byte b % 8 of the n words at masks + (b / 8)·n:
/// its bit w says point i of world w has class c (bits at and above
/// num_worlds are 0), so the plane of (world w, class c) is 8·b + w of those
/// words. Adds world w's count of class k to totals[w·K + k] and advances
/// rngs[w] by n steps, as CategoricalDraw::Draw does.
void SampleCategoricalLanes(const std::vector<uint64_t>& thresholds, size_t n,
                            size_t num_worlds, Rng* rngs, uint64_t* masks,
                            size_t byte, uint64_t* totals);

/// Draws `num_worlds` (1..kLaneWorlds) permutation worlds of `positives`
/// positives among `n` < 2³² points, world w from rngs[w], exactly as
/// DrawPermutationPositives(n, positives, &rngs[w], ...) draws them, into
/// byte `byte` (< kMaskBytes) of the n mask words at `masks`: bit
/// 8·byte + w of masks[i] is set when point i is one of world w's positives
/// (the byte's bits at and above num_worlds are 0), and rngs[w] ends where
/// that draw leaves it. `ids` is the shuffle buffer, kLaneWorlds·n entries
/// (world w's ids at ids + w·n on the SIMD tiers) whose contents do not
/// survive the call.
void SamplePermutationLanes(size_t n, uint64_t positives, size_t num_worlds,
                            Rng* rngs, uint32_t* ids, uint64_t* masks,
                            size_t byte);

/// A hold on the calling thread's pooled block of at least `bytes` bytes,
/// aligned for uint64_t: the storage both statistics carve a batch's mask
/// words, count rows, cell rows and shuffle ids from, and the packing
/// adapters (RegionFamily::CountPositivesBatch, CountClassesBatch) their mask
/// words and rows, so that a thread keeps one block, the largest any of them
/// asked for. A hold taken while another is live on the same thread (say, a
/// custom family's CountPlanes calling an adapter inside an engine batch)
/// gets a block of its own, freed when it ends, so no hold ever sees another
/// one's storage. Callers start their arrays' lifetimes in it with placement
/// new, which does no work for these trivial types; the contents do not
/// survive the hold.
class BatchBlock {
 public:
  explicit BatchBlock(size_t bytes);
  ~BatchBlock();
  BatchBlock(const BatchBlock&) = delete;
  BatchBlock& operator=(const BatchBlock&) = delete;

  std::byte* data() const { return data_; }

 private:
  std::unique_ptr<std::byte[]> own_;  // a nested hold's block
  std::byte* data_ = nullptr;
};

/// Bytes of one thread's pooled block a tile may fill, mask words and count
/// rows together.
inline constexpr size_t kTileBlockBytes = size_t{320} << 10;

/// Worlds per tile of the batched engine's point worlds: the most (a
/// multiple of kLaneWorlds, at most kLaneWorlds·kMaskBytes = 64) whose mask
/// words, one 64-bit word per point per 64 of the tile's `counted`·worlds
/// planes, and uint32 count rows, `counted` classes × num_regions per world,
/// fit in kTileBlockBytes; kLaneWorlds when none does. At N = 8,192 points
/// the mask words take 64 KiB of it: 100-center kNN counts 64 worlds per
/// walk, 2,000 squares 32, K = 3 squares 16 and the 5,000-cell grid 8.
size_t WorldTile(size_t num_points, size_t num_regions, uint32_t counted);

/// The alias tables of a closed-form Bernoulli cell world, as
/// CellSamplerBank builds and owns them: one column arena holding every table
/// back to back, the tables, and the cells that draw.
struct CellLaneTables {
  /// Column i of a table keeps outcome first + i with probability
  /// `threshold`, else yields first + `alias`.
  struct Column {
    double threshold;
    uint64_t alias;
  };
  /// columns[offset, offset + size) hold the table's columns. A table is
  /// always narrower than 2³¹ columns (CellSamplerBank checks it), so the
  /// SIMD arms truncate column indices through int32.
  struct Table {
    uint32_t offset = 0;
    uint32_t size = 0;
    double size_d = 0.0;
    uint64_t first = 0;
  };
  struct LiveCell {
    uint32_t cell;
    uint32_t table;
  };

  std::vector<Column> columns;      // every table, back to back
  std::vector<Table> tables;        // one per distinct non-degenerate count
  std::vector<LiveCell> live;       // the cells that draw, in cell order
  std::vector<uint32_t> constants;  // per cell: its point mass, 0 if live
  uint64_t constant_total = 0;  // the point masses, outside points included
  std::optional<Table> outside;  // set when the outside points draw

  size_t num_cells() const { return constants.size(); }

  /// One draw of `table`: the arithmetic of stats::FixedBinomialSampler::Draw.
  uint64_t Draw(const Table& table, Rng* rng) const {
    const double x = rng->NextDouble() * table.size_d;
    // x < 2^32, so the signed conversion truncates exactly as size_t would,
    // without the unsigned conversion's range branch.
    uint64_t i = static_cast<uint64_t>(static_cast<int64_t>(x));
    if (i >= table.size) i = table.size - 1;  // u ~ 1 edge
    const Column& column = columns[table.offset + i];
    // Keep-or-alias as a mask select: the coin is a fair guess for the
    // branch predictor, so a branch would mispredict about half the time.
    const bool kept = (x - static_cast<double>(i)) < column.threshold;
    const uint64_t keep = 0 - static_cast<uint64_t>(kept);
    return table.first + (column.alias ^ ((i ^ column.alias) & keep));
  }

  /// One world: writes every cell's positives to `row` (num_cells() entries)
  /// and returns the world's total, drawing the live cells in cell order and
  /// then the outside points.
  uint64_t DrawWorld(Rng* rng, uint32_t* row) const {
    std::copy(constants.begin(), constants.end(), row);
    // A local generator keeps its state in registers across the stores.
    Rng local = *rng;
    uint64_t total = constant_total;
    for (const LiveCell& c : live) {
      const auto p = static_cast<uint32_t>(Draw(tables[c.table], &local));
      row[c.cell] = p;
      total += p;
    }
    if (outside) total += Draw(*outside, &local);
    *rng = local;
    return total;
  }
};

/// Draws `num_worlds` (1..kLaneWorlds) closed-form Bernoulli cell worlds,
/// world w from rngs[w], exactly as tables.DrawWorld(&rngs[w], row w) would:
/// row w of `cell_positives` (the num_cells() entries from w·num_cells())
/// gets world w's per-cell positives, totals[w] its total positive count,
/// points outside every cell included, and rngs[w] ends where DrawWorld
/// leaves it.
void SampleCellLanes(const CellLaneTables& tables, size_t num_worlds,
                     Rng* rngs, uint32_t* cell_positives, uint64_t* totals);

}  // namespace sfa::core

#endif  // SFA_CORE_LANE_SAMPLER_H_
