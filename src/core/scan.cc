#include "core/scan.h"

#include "common/macros.h"

namespace sfa::core {

namespace {

stats::ScanCounts MakeCounts(const RegionFamily& family, size_t region,
                             uint64_t positives, uint64_t total_n,
                             uint64_t total_p) {
  stats::ScanCounts c;
  c.n = family.PointCount(region);
  c.p = positives;
  c.total_n = total_n;
  c.total_p = total_p;
  return c;
}

}  // namespace

ScanResult ScanAllRegions(const RegionFamily& family, const Labels& labels,
                          stats::ScanDirection direction,
                          const stats::LogLikelihoodTable& table) {
  SFA_DCHECK(table.max_count() == labels.size());
  ScanResult result;
  result.total_n = labels.size();
  result.total_p = labels.positive_count();
  family.CountPositives(labels, &result.positives);
  result.llr.resize(family.num_regions());
  for (size_t r = 0; r < family.num_regions(); ++r) {
    const stats::ScanCounts counts =
        MakeCounts(family, r, result.positives[r], result.total_n, result.total_p);
    const double llr = stats::BernoulliLogLikelihoodRatio(counts, direction, table);
    result.llr[r] = llr;
    if (llr > result.max_llr) {
      result.max_llr = llr;
      result.argmax = r;
    }
  }
  return result;
}

ScanResult ScanAllRegions(const RegionFamily& family, const Labels& labels,
                          stats::ScanDirection direction) {
  // The shared k·log k table: identical arithmetic to the Monte Carlo
  // engine, so observed-vs-null ties are exact (see header contract).
  const stats::LogLikelihoodTable table(labels.size());
  return ScanAllRegions(family, labels, direction, table);
}

}  // namespace sfa::core
