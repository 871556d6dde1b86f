#include "core/cell_sampler_bank.h"

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
  CellLaneTables& t = tables_;
  std::unordered_map<uint64_t, Resolved> resolved;
  auto resolve = [&](uint64_t n) -> Resolved {
    auto [it, inserted] = resolved.try_emplace(n);
    if (!inserted) return it->second;
    const stats::FixedBinomialSampler sampler(n, rho);
    it->second.constant = sampler.first();
    const std::vector<double>& thresholds = sampler.thresholds();
    if (thresholds.empty()) return it->second;
    // The sampler keeps only the outcomes whose pmf does not underflow: a few
    // million at most for n < 2^32, so the lane arms' int32 column indices
    // never overflow.
    SFA_CHECK(thresholds.size() < (size_t{1} << 31));
    const std::vector<uint32_t>& aliases = sampler.aliases();
    CellLaneTables::Table table;
    table.offset = static_cast<uint32_t>(t.columns.size());
    table.size = static_cast<uint32_t>(thresholds.size());
    table.size_d = static_cast<double>(thresholds.size());
    table.first = sampler.first();
    for (size_t i = 0; i < thresholds.size(); ++i) {
      t.columns.push_back({thresholds[i], aliases[i]});
    }
    it->second.table = static_cast<int64_t>(t.tables.size());
    t.tables.push_back(table);
    return it->second;
  };

  t.constants.assign(decomposition.cell_counts.size(), 0);
  for (size_t c = 0; c < decomposition.cell_counts.size(); ++c) {
    const Resolved r = resolve(decomposition.cell_counts[c]);
    if (r.table < 0) {
      t.constants[c] = static_cast<uint32_t>(r.constant);
      t.constant_total += r.constant;
    } else {
      t.live.push_back(
          {static_cast<uint32_t>(c), static_cast<uint32_t>(r.table)});
    }
  }
  if (decomposition.num_outside > 0) {
    const Resolved r = resolve(decomposition.num_outside);
    if (r.table < 0) {
      t.constant_total += r.constant;
    } else {
      t.outside = t.tables[r.table];
    }
  }
}

}  // namespace sfa::core
