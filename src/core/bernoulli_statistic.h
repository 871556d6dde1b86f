// The Bernoulli (binary-outcome) scan statistic behind the pluggable
// ScanStatistic interface — the paper's spatial-fairness likelihood-ratio
// test (§3), and the one entry point for scanning, calibrating and keying a
// binary audit:
//
//   observed scan    per-region Λ through the shared k·log k table
//                    (core/scan.h's ScanAllRegions — the exact-tie contract);
//   null worlds      closed-form per-cell Binomial(n_c, ρ) draws for
//                    cell-decomposable families, 8 worlds per
//                    CellSamplerBank::DrawLanes call, whose cell rows go to
//                    the max as they are when the regions are the cells;
//                    otherwise tiles of up to 64 i.i.d. worlds, 8 per
//                    lane-sampler call (core/lane_sampler.h), written as
//                    mask words and counted by one RegionFamily::CountPlanes
//                    call per tile, or permutation worlds shuffled straight
//                    into those words (SamplePermutationLanes). A tile is
//                    WorldTile(N, regions, 1) worlds, so its mask words and
//                    uint32 count rows stay within 320 KiB;
//                    per-world RNG substreams Rng::Split(w) from
//                    options.seed (core/mc_engine.h's cost levers); each
//                    world's max Λ comes from the
//                    size-grouped internal::LlrMaxPlan below, which
//                    evaluates Λ only at the ends of each n(R) group, 8 at
//                    a time on the SIMD tiers, and is bit-identical to
//                    evaluating every region;
//   identity         "bernoulli dir=<direction> P=<positives>" — the view's
//                    positive count and the scan direction are part of the
//                    calibration identity; N and the family live in the
//                    calibration key proper.
//
// The golden-figure, determinism, and stat calibration suites pin this
// path's exact outputs.
#ifndef SFA_CORE_BERNOULLI_STATISTIC_H_
#define SFA_CORE_BERNOULLI_STATISTIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scan_statistic.h"
#include "stats/bernoulli_scan.h"

namespace sfa::core {

class BernoulliScanStatistic : public ScanStatistic {
 public:
  /// Statistic for a view with `total_n` individuals of which `total_p` are
  /// positive; the Bernoulli null rate is ρ = P/N.
  BernoulliScanStatistic(stats::ScanDirection direction, uint64_t total_n,
                         uint64_t total_p);

  StatisticKind kind() const override { return StatisticKind::kBernoulli; }
  std::string Name() const override;
  std::string Fingerprint() const override;
  uint64_t total_n() const override { return total_n_; }
  uint64_t total_p() const { return total_p_; }
  double rho() const { return rho_; }
  stats::ScanDirection direction() const { return direction_; }

  Status ValidateOutcomes(const uint8_t* outcomes, size_t n) const override;
  Status ValidateForFamily(const RegionFamily& family) const override;
  ScanResult ScanObserved(const RegionFamily& family, const uint8_t* outcomes,
                          size_t n, AuditScratch* scratch) const override;
  std::unique_ptr<StatisticSimulation> MakeSimulation(
      const RegionFamily& family,
      const MonteCarloOptions& options) const override;
  void FillFinding(const RegionFamily& family, const ScanResult& observed,
                   size_t region, RegionFinding* finding) const override;

 private:
  stats::ScanDirection direction_;
  uint64_t total_n_ = 0;
  uint64_t total_p_ = 0;
  double rho_ = 0.0;
};

namespace internal {

/// The max Λ over a family's regions in one Bernoulli null world — the
/// engine's only LLR max — computed from the regions' sizes n(R) grouped
/// once at construction.
///
/// Fix N, P and n. Then Λ(p) = t(p) + t(n−p) + t(P−p) + t(N−n−P+p) + const,
/// t(x) = x·log x, is convex in p with minimum 0 at p* = nP/N. So among the
/// regions of one size, the two-sided max sits at the group's smallest or
/// largest count, the kHigh max (regions with p > p*) at the largest and the
/// kLow max (p < p*) at the smallest. A group of 3 or more regions is
/// therefore reduced per world to (min p, max p), read in group-contiguous
/// order, and Λ is evaluated at those ends only (once when they coincide).
/// Groups of 1 or 2 have no more members than ends and are evaluated region
/// by region, as are all regions when N > kMaxGroupedPoints. Counts are
/// uint32 rows: a family holds N <= kMaxFamilyPoints < 2³² points.
///
/// The result is bit-identical to evaluating every region with the table
/// arithmetic of stats::BernoulliLogLikelihoodRatio (same gating, same
/// operation order), not just close to it:
///
///   gap    Λ'' = 1/p + 1/(n−p) + 1/(P−p) + 1/(N−n−P+p)
///              ≥ 4/n + 4/(N−n) ≥ 16/N          (harmonic mean, per pair)
///          so an interior count lo < p < hi has Λ(p) ≤ max(Λ(lo), Λ(hi))
///          − (8/N)·(p−lo)(hi−p) ≤ max − 8/N, and on the one-sided side
///          p* < p < hi, Λ(hi) − Λ(p) ≥ Λ(hi) − Λ(hi−1) > 8/N as Λ' ≥
///          (16/N)(x − p*) there (and symmetrically for lo under kLow);
///   error  with std::log within 1 ulp, each table entry t[k] = fl(k·log k)
///          is within 3.01u·T of k·log k (u = 2⁻⁵³, T = N·log N ≥ every
///          |t[k]|, N ≥ 2). One Λ reads 9 entries (the null term included)
///          and rounds 8 sums whose magnitudes total ≤ 14T, so it is off by
///          E ≤ 27.1uT + 14uT < 48u·N·log N;
///   bound  an interior count can tie or beat an evaluated end only if
///          8/N ≤ 2E, i.e. N²·log N ≥ 2⁵³/12 ≈ 7.5e14, that is N ≳ 6.9
///          million. kMaxGroupedPoints = 2²² keeps a margin of 2.8 (2²²
///          gives N²·log N ≈ 2.7e14). Regions whose count equals p* are
///          gated out in both forms and the max starts at 0, so a gated
///          end never hides a larger interior value either.
///
/// Max runs one of three arms, picked by spatial::ActiveSamplerKernel() like
/// the lane sampler (core/lane_sampler.h): scalar, AVX2 (two groups of 4
/// lanes) and AVX-512F (8 lanes). The vector arms reduce the size groups
/// with 32-bit index gathers widened to 64 bits and 64-bit min/max (signed
/// on AVX2, exact as counts are at most N < 2³²), groups of up to
/// kMaxLaneGroup regions 8 at a time (one per lane) and larger ones one at
/// a time, then evaluate the ends and the direct regions 8 at a time. Each
/// lane gives the scalar arm's bits:
///
///   gate   p·n_out and p_out·n come from mul_epu32, the exact 64-bit
///          product of two 32-bit values, as the scalar arm's uint64_t
///          products are exact: every factor is at most N < 2³², and each
///          product is at most n(N−n) ≤ N²/4 < 2⁶² (so AVX2's signed
///          compares are exact too);
///   order  each lane computes ((t[p]+t[n−p])−t[n]) + ((t[p′]+t[n′−p′])−t[n′])
///          − null from gathered table entries, the scalar operation order,
///          with no fused multiply-add (there are no products to fuse);
///   fold   acc = max_pd(llr, acc) on the gated lanes. max_pd returns its
///          first operand only when it is strictly greater, so each lane
///          folds as `llr > max ? llr : max` does from +0.0, and the final
///          fold over the 8 lane maxima is that scalar fold again. A max is
///          a max in any order; the only equal values with different bits
///          are ±0, and −0.0 never replaces the starting +0.0 in either.
///
/// The plan holds no mutable state: the vector arms buffer pending ends on
/// the stack, so one plan serves every worker thread.
class LlrMaxPlan {
 public:
  static constexpr uint64_t kMaxGroupedPoints = uint64_t{1} << 22;

  /// Plans the max for a family of `total_n` <= kMaxFamilyPoints points
  /// whose region r holds region_n[r] of them. Regions with n(R) = 0 or N
  /// never contribute and are dropped.
  LlrMaxPlan(const std::vector<uint64_t>& region_n, uint64_t total_n);

  /// max(0, max_R Λ(R)) for one world: `positives[r]` is p(R) and
  /// `total_p` the world's P. `table` must cover total_n.
  double Max(const uint32_t* positives, uint64_t total_p,
             stats::ScanDirection direction,
             const stats::LogLikelihoodTable& table) const;

  /// Size groups reduced to their ends (0 when N > kMaxGroupedPoints).
  size_t num_groups() const { return groups_.size(); }

 private:
  struct Group {
    uint64_t n;
    size_t begin;  // the group's entries in grouped_
    size_t end;
  };

  friend struct LlrMaxArms;  // the scalar and vector arms of Max

  /// Groups of at most kMaxLaneGroup regions are also laid out for the
  /// vector arms 8 to a batch, one group per lane, so that a batch reduces
  /// with one gather per step and no horizontal min/max.
  static constexpr size_t kBatchLanes = 8;
  static constexpr size_t kMaxLaneGroup = 16;

  uint64_t total_n_;
  std::vector<uint32_t> grouped_;  // region ids, group-contiguous
  // Batched groups first, by size, then the rest in ascending n order.
  std::vector<Group> groups_;
  size_t num_batched_groups_ = 0;
  // Batch b's step k holds one region id per lane; a lane past its group's
  // size repeats the group's last id, and lanes past the last group repeat
  // lane 0, so every lane reduces to a real group's (min p, max p).
  std::vector<uint32_t> batch_ids_;    // steps × kBatchLanes per batch
  std::vector<uint32_t> batch_steps_;  // per batch: its largest group's size
  std::vector<uint64_t> batch_n_;      // per batch: each lane's n(R)
  // The regions evaluated one by one, in ascending region order.
  std::vector<uint64_t> direct_n_;
  std::vector<uint32_t> direct_regions_;
};

}  // namespace internal

}  // namespace sfa::core

#endif  // SFA_CORE_BERNOULLI_STATISTIC_H_
