#include "core/scan.h"

#include <vector>

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
  SFA_CHECK_MSG(labels.size() == family.num_points(),
                "labels " << labels.size() << " != points "
                          << family.num_points());
  ScanResult result;
  result.total_n = labels.size();
  result.total_p = labels.positive_count();
  // The labels' 0/1 bytes are one byte plane; its uint32 row widens into
  // the result.
  const size_t num_regions = family.num_regions();
  std::vector<uint32_t> row(num_regions);
  family.CountPlaneBytes(labels.bytes().data(), 1, row.data(), num_regions);
  result.positives.assign(row.begin(), row.end());
  result.llr.resize(num_regions);
  for (size_t r = 0; r < num_regions; ++r) {
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
