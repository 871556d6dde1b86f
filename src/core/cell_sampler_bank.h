// Closed-form Bernoulli null worlds over a cell decomposition.
//
// A partition family's p(R) is a function of per-cell positive counts, and
// under the Bernoulli null cell c holds Binomial(n_c, ρ) positives
// independently of every other cell. (n_c, ρ) never change across the
// simulated worlds, so each distinct n_c gets one alias table
// (stats::FixedBinomialSampler) built once, and a world costs one uniform and
// two loads per non-empty cell. DrawLanes draws up to 8 such worlds side by
// side in SIMD lanes (core/lane_sampler.h), with the same results.
#ifndef SFA_CORE_CELL_SAMPLER_BANK_H_
#define SFA_CORE_CELL_SAMPLER_BANK_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/lane_sampler.h"
#include "core/region_family.h"

namespace sfa::core {

class CellSamplerBank {
 public:
  CellSamplerBank(const CellDecomposition& decomposition, double rho);

  size_t num_cells() const { return tables_.num_cells(); }

  /// Draws one world: writes every cell's positives to `cell_positives`
  /// (num_cells() entries) and returns the world's total positive count,
  /// points outside every cell included. Consumes exactly the stream of
  /// drawing stats::FixedBinomialSampler(n_c, ρ) for each cell in order, then
  /// one for the outside points: a cell whose count is a point mass (n_c = 0,
  /// or ρ ∉ (0, 1)) gets its constant and consumes no draw.
  uint64_t Draw(Rng* rng, uint32_t* cell_positives) const {
    return tables_.DrawWorld(rng, cell_positives);
  }

  /// Draws `num_worlds` (1..kLaneWorlds) worlds, world w from rngs[w], as
  /// `num_worlds` calls of Draw would: row w of `cell_positives` (the
  /// num_cells() entries from w·num_cells()) is world w's cells, totals[w]
  /// its total, and rngs[w] ends where Draw leaves it.
  void DrawLanes(size_t num_worlds, Rng* rngs, uint32_t* cell_positives,
                 uint64_t* totals) const {
    SampleCellLanes(tables_, num_worlds, rngs, cell_positives, totals);
  }

 private:
  CellLaneTables tables_;
};

}  // namespace sfa::core

#endif  // SFA_CORE_CELL_SAMPLER_BANK_H_
