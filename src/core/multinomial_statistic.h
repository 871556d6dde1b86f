// The multinomial (K-class) scan statistic behind the pluggable
// ScanStatistic interface — the multi-class generalization the paper's
// Bernoulli test derives from (Jung, Kulldorff & Richard 2010; paper §2.3).
// Where the binary audit asks whether the rate of one outcome is independent
// of location, this audits whether the full outcome DISTRIBUTION (a
// classifier's predicted class mix, a recommender's category mix) is.
//
// Because it implements ScanStatistic, a multinomial audit inherits the
// entire performance and serving stack: any RegionFamily (not just grids),
// the batched Monte Carlo engine with closed-form per-cell multinomial
// sampling, CalibrationCache/CalibrationStore sharing, and the streaming
// Submit() path.
//
//   statistic      Λ(R) = Σ_k [c_k log(c_k/n) + d_k log(d_k/m)
//                              − C_k log(C_k/N)],
//                  with c/d/C the inside/outside/total class counts and
//                  0·log 0 := 0 — evaluated through the shared k·log k table
//                  (Σ_k t[c_k] − t[n] form) so observed-vs-null ties are
//                  exact, mirroring the Bernoulli arithmetic contract;
//   null worlds    classes redrawn i.i.d. from the global empirical
//                  distribution q (NullModel::kBernoulli — closed-form
//                  chained-binomial Multinomial(n_c, q) per cell for
//                  cell-decomposable families, per-point Categorical draws
//                  on integer thresholds, internal::CategoricalDraw's,
//                  otherwise, 8 worlds per lane-sampler call,
//                  core/lane_sampler.h) or permuted exactly (kPermutation);
//   counting       per-class region counts reuse the family's binary
//                  counting path: the lane sampler writes one mask byte
//                  per (8-world group, counted class) (the last class is
//                  derived from n(R)), so one 64-bit mask word holds every
//                  (world, class) plane of a tile of WorldTile(N,
//                  regions, K−1) worlds, and one RegionFamily::CountPlanes walk
//                  counts them all into uint32 rows; permutation worlds
//                  pack their class codes into planes
//                  (internal::PackClassPlanes) and the observed scan
//                  counts through CountClassesBatch;
//   identity       "multinomial K=<K> C=<c0,c1,...>" — the class totals are
//                  part of the calibration identity, so a multinomial
//                  calibration can never collide with a Bernoulli one.
//
// At K = 2 (class 1 as "positive") Λ(R) equals the two-sided Bernoulli Λ bit
// for bit in every region whose inside and outside rates differ: both sum
// the same three table differences, t[c0]+t[c1]−t[n] inside, the same
// outside and Σ_k t[C_k]−t[N], in the same order up to commuting the two
// addends of each sum, which IEEE addition does exactly. Regions whose rates
// tie (p·m = (P−p)·n) differ: the Bernoulli statistic gates them to exactly
// 0 on that integer comparison before any arithmetic, while this statistic
// has no gate and returns the table sum's residue, up to ~1e-12 at N ≤ 4096
// (MultinomialStatistic.TwoClassCaseTracksBernoulliTau).
#ifndef SFA_CORE_MULTINOMIAL_STATISTIC_H_
#define SFA_CORE_MULTINOMIAL_STATISTIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/scan_statistic.h"

namespace sfa::core {

class MultinomialScanStatistic : public ScanStatistic {
 public:
  /// Statistic for a view whose class-k outcome appears class_totals[k]
  /// times; K = class_totals.size() >= 2, N = Σ class_totals.
  explicit MultinomialScanStatistic(std::vector<uint64_t> class_totals);

  /// Builds from the raw outcome stream: counts per-class totals and
  /// validates every value lies in [0, num_classes).
  static Result<std::unique_ptr<MultinomialScanStatistic>> FromOutcomes(
      const uint8_t* outcomes, size_t n, uint32_t num_classes);

  StatisticKind kind() const override { return StatisticKind::kMultinomial; }
  std::string Name() const override;
  std::string Fingerprint() const override;
  uint64_t total_n() const override { return total_n_; }
  uint32_t num_classes() const {
    return static_cast<uint32_t>(class_totals_.size());
  }
  const std::vector<uint64_t>& class_totals() const { return class_totals_; }

  Status ValidateOutcomes(const uint8_t* outcomes, size_t n) const override;
  Status ValidateForFamily(const RegionFamily& family) const override;
  ScanResult ScanObserved(const RegionFamily& family, const uint8_t* outcomes,
                          size_t n, AuditScratch* scratch) const override;
  std::unique_ptr<StatisticSimulation> MakeSimulation(
      const RegionFamily& family,
      const MonteCarloOptions& options) const override;
  void FillFinding(const RegionFamily& family, const ScanResult& observed,
                   size_t region, RegionFinding* finding) const override;
  std::vector<double> ClassDistribution() const override {
    return class_distribution_;
  }

 private:
  std::vector<uint64_t> class_totals_;
  std::vector<double> class_distribution_;  ///< q_k = C_k / N
  uint64_t total_n_ = 0;
};

namespace internal {

/// The per-point Categorical(q) draw of the multinomial label worlds under
/// NullModel::kBernoulli, on integer thresholds.
///
/// The draw is defined as: u = NextDouble() · Σq, and the class is the number
/// of cumulative weights prefix[c] = q_0 + … + q_c (c < K−1, summed in
/// order) with u >= prefix[c]. NextDouble() is x·2⁻⁵³ for x = Next() >> 11,
/// an exact product, and rounding is monotone, so u >= prefix[c] holds
/// exactly when x >= m_c, the smallest m with fl(m·2⁻⁵³·Σq) >= prefix[c]
/// (2⁵³, never reached, when there is none). The m_c are found by binary
/// search at construction; a point then costs one generator step and K−1
/// integer compares, with the same classes, totals and generator state as
/// the floating-point form (tests/testing_util.h keeps it as the oracle).
class CategoricalDraw {
 public:
  /// `q` holds K in [2, 256] non-negative class weights.
  explicit CategoricalDraw(const std::vector<double>& q);

  /// Draws `n` classes into `classes`, adds each class's count to
  /// totals[k] (K entries) and advances *rng by n steps.
  void Draw(Rng* rng, uint8_t* classes, uint64_t n, uint64_t* totals) const;

  /// m_c for c < K−1, non-decreasing.
  const std::vector<uint64_t>& thresholds() const { return thresholds_; }

 private:
  std::vector<uint64_t> thresholds_;
};

}  // namespace internal

}  // namespace sfa::core

#endif  // SFA_CORE_MULTINOMIAL_STATISTIC_H_
