// Closed-form Bernoulli null worlds over a cell decomposition.
//
// A partition family's p(R) is a function of per-cell positive counts, and
// under the Bernoulli null cell c holds Binomial(n_c, ρ) positives
// independently of every other cell. (n_c, ρ) never change across the
// simulated worlds, so each distinct n_c gets one alias table
// (stats::FixedBinomialSampler) built once, and a world costs one uniform and
// two loads per non-empty cell.
#ifndef SFA_CORE_CELL_SAMPLER_BANK_H_
#define SFA_CORE_CELL_SAMPLER_BANK_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/region_family.h"

namespace sfa::core {

class CellSamplerBank {
 public:
  CellSamplerBank(const CellDecomposition& decomposition, double rho);

  size_t num_cells() const { return constants_.size(); }

  /// Draws one world: writes every cell's positives to `cell_positives`
  /// (num_cells() entries) and returns the world's total positive count,
  /// points outside every cell included. Consumes exactly the stream of
  /// drawing stats::FixedBinomialSampler(n_c, ρ) for each cell in order, then
  /// one for the outside points: a cell whose count is a point mass (n_c = 0,
  /// or ρ ∉ (0, 1)) gets its constant and consumes no draw.
  uint64_t Draw(Rng* rng, uint32_t* cell_positives) const;

 private:
  /// One alias table in the arena; the draw arithmetic of
  /// stats::FixedBinomialSampler::Draw over arena_[offset, offset + size).
  struct Table {
    uint32_t offset = 0;
    uint32_t size = 0;
    double size_d = 0.0;
    uint64_t first = 0;
  };
  struct Column {
    double threshold;
    uint64_t alias;
  };
  struct LiveCell {
    uint32_t cell;
    uint32_t table;
  };

  uint64_t DrawTable(const Table& table, Rng* rng) const {
    const double x = rng->NextDouble() * table.size_d;
    // x < 2^32, so the signed conversion truncates exactly as size_t would,
    // without the unsigned conversion's range branch.
    uint64_t i = static_cast<uint64_t>(static_cast<int64_t>(x));
    if (i >= table.size) i = table.size - 1;  // u ~ 1 edge
    const Column& column = arena_[table.offset + i];
    // Keep-or-alias as a mask select: the coin is a fair guess for the
    // branch predictor, so a branch would mispredict about half the time.
    const bool kept = (x - static_cast<double>(i)) < column.threshold;
    const uint64_t keep = 0 - static_cast<uint64_t>(kept);
    return table.first + (column.alias ^ ((i ^ column.alias) & keep));
  }

  std::vector<Column> arena_;     // every table's columns, back to back
  std::vector<Table> tables_;     // one per distinct non-degenerate count
  std::vector<LiveCell> live_;    // cells that draw, in cell order
  std::vector<uint32_t> constants_;  // per cell: its point mass, 0 if live
  uint64_t constant_total_ = 0;   // sum of the point masses, outside included
  bool outside_live_ = false;
  Table outside_;
};

}  // namespace sfa::core

#endif  // SFA_CORE_CELL_SAMPLER_BANK_H_
