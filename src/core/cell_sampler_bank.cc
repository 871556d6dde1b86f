#include "core/cell_sampler_bank.h"

#include <algorithm>
#include <unordered_map>

#include "common/macros.h"
#include "stats/distributions.h"

namespace sfa::core {

CellSamplerBank::CellSamplerBank(const CellDecomposition& decomposition,
                                 double rho) {
  // Samplers are deterministic in (n, ρ), so cells sharing a count share a
  // table. Each count maps to its table index, or to -1 and its constant for
  // a point mass (a sampler without alias columns draws nothing).
  struct Resolved {
    int64_t table = -1;
    uint64_t constant = 0;
  };
  std::unordered_map<uint64_t, Resolved> resolved;
  auto resolve = [&](uint64_t n) -> Resolved {
    auto [it, inserted] = resolved.try_emplace(n);
    if (!inserted) return it->second;
    const stats::FixedBinomialSampler sampler(n, rho);
    it->second.constant = sampler.first();
    const std::vector<double>& thresholds = sampler.thresholds();
    if (thresholds.empty()) return it->second;
    const std::vector<uint32_t>& aliases = sampler.aliases();
    Table table;
    table.offset = static_cast<uint32_t>(arena_.size());
    table.size = static_cast<uint32_t>(thresholds.size());
    table.size_d = static_cast<double>(thresholds.size());
    table.first = sampler.first();
    for (size_t i = 0; i < thresholds.size(); ++i) {
      arena_.push_back({thresholds[i], aliases[i]});
    }
    it->second.table = static_cast<int64_t>(tables_.size());
    tables_.push_back(table);
    return it->second;
  };

  constants_.assign(decomposition.cell_counts.size(), 0);
  for (size_t c = 0; c < decomposition.cell_counts.size(); ++c) {
    const Resolved r = resolve(decomposition.cell_counts[c]);
    if (r.table < 0) {
      constants_[c] = static_cast<uint32_t>(r.constant);
      constant_total_ += r.constant;
    } else {
      live_.push_back(
          {static_cast<uint32_t>(c), static_cast<uint32_t>(r.table)});
    }
  }
  if (decomposition.num_outside > 0) {
    const Resolved r = resolve(decomposition.num_outside);
    if (r.table < 0) {
      constant_total_ += r.constant;
    } else {
      outside_live_ = true;
      outside_ = tables_[r.table];
    }
  }
}

uint64_t CellSamplerBank::Draw(Rng* rng, uint32_t* cell_positives) const {
  SFA_DCHECK(rng != nullptr);
  std::copy(constants_.begin(), constants_.end(), cell_positives);
  // A local generator keeps its state in registers across the stores.
  Rng local = *rng;
  uint64_t total_p = constant_total_;
  for (const LiveCell& live : live_) {
    const auto p =
        static_cast<uint32_t>(DrawTable(tables_[live.table], &local));
    cell_positives[live.cell] = p;
    total_p += p;
  }
  if (outside_live_) total_p += DrawTable(outside_, &local);
  *rng = local;
  return total_p;
}

}  // namespace sfa::core
