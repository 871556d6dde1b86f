// One pass of the scan statistic over a region family: per-region Λ(R) and
// the maximum statistic τ = max_R Λ(R) (paper §3).
//
// Arithmetic contract: ScanAllRegions evaluates Λ through the same
// k·log k table (stats::LogLikelihoodTable) the Monte Carlo world engine
// uses, so an observed world and a simulated null world with identical
// counts produce bit-identical statistics. Exact ties between the observed
// max and the null maxima therefore count toward #{null >= observed}, the
// conservative side of the rank p-value.
#ifndef SFA_CORE_SCAN_H_
#define SFA_CORE_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/labels.h"
#include "core/region_family.h"
#include "stats/bernoulli_scan.h"

namespace sfa::core {

/// Full per-region scan output (used for the observed world). Bernoulli
/// scans fill `positives`; multinomial scans fill `class_counts` instead and
/// leave the binary fields (`positives`, `total_p`) empty/zero.
struct ScanResult {
  std::vector<double> llr;          ///< Λ(R) per region
  std::vector<uint64_t> positives;  ///< p(R) per region (Bernoulli)
  double max_llr = 0.0;             ///< τ
  size_t argmax = 0;                ///< R*
  uint64_t total_n = 0;             ///< N
  uint64_t total_p = 0;             ///< P (Bernoulli)
  /// Per-region per-class counts, region-major [num_regions x num_classes]
  /// (multinomial; empty for Bernoulli).
  std::vector<uint64_t> class_counts;
  uint32_t num_classes = 0;  ///< columns of class_counts (0 for Bernoulli)
};

/// Evaluates Λ for every region of `family` under `labels`, through the
/// shared log-table (see the arithmetic contract above). The table overload
/// reuses a caller-held table (table.max_count() must equal labels.size());
/// the other builds one per call.
ScanResult ScanAllRegions(const RegionFamily& family, const Labels& labels,
                          stats::ScanDirection direction,
                          const stats::LogLikelihoodTable& table);
ScanResult ScanAllRegions(const RegionFamily& family, const Labels& labels,
                          stats::ScanDirection direction);

}  // namespace sfa::core

#endif  // SFA_CORE_SCAN_H_
