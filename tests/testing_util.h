// Shared seeded-RNG fixtures and assertions for the audit test suites.
//
// The dataset generators here were promoted from ad-hoc copies in
// test_audit_pipeline.cc, test_pvalue_calibration.cc, and
// test_golden_figures.cc. Their RNG draw ORDER is part of the test contract:
// several suites pin exact statistical outputs (golden figures) or seeded
// statistical bounds (p-value calibration) produced by these exact streams,
// so any change to the draw sequence must be loud and deliberate — treat
// these helpers like the golden constants themselves.
#ifndef SFA_TESTS_TESTING_UTIL_H_
#define SFA_TESTS_TESTING_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/audit.h"
#include "core/knn_circle_family.h"
#include "core/partitioning_family.h"
#include "data/dataset.h"
#include "core/region_family.h"
#include "core/square_family.h"
#include "geo/partitioning.h"
#include "geo/rect.h"
#include "spatial/kdtree.h"
#include "stats/distributions.h"

namespace sfa::core::testing {

/// A synthetic "city" on the [0,10)² plane: uniform locations, prediction
/// rate `planted_rate` inside the fixed zone [6,9]² and `base_rate` outside,
/// plus a Bernoulli(0.5) ground-truth bit (so equal-opportunity views can be
/// built). Draw order per individual: location x, location y, prediction,
/// ground truth. `planted_rate == base_rate` yields a spatially fair city.
inline data::OutcomeDataset MakePlantedCity(uint64_t seed, size_t n,
                                            double planted_rate,
                                            double base_rate = 0.55,
                                            std::string name = "city") {
  Rng rng(seed);
  data::OutcomeDataset ds(std::move(name));
  const geo::Rect zone(6.0, 6.0, 9.0, 9.0);
  for (size_t i = 0; i < n; ++i) {
    const geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const double rate = zone.Contains(loc) ? planted_rate : base_rate;
    ds.Add(loc, rng.Bernoulli(rate) ? 1 : 0, rng.Bernoulli(0.5) ? 1 : 0);
  }
  return ds;
}

/// A spatially fair dataset on a `width`×`height` plane: the Bernoulli(rho)
/// label ignores the location by construction. Draw order per individual:
/// location x, location y, label. No ground-truth bit (prediction only).
inline data::OutcomeDataset MakeFairDataset(uint64_t seed, size_t n,
                                            double rho, double width = 3.0,
                                            double height = 2.0,
                                            std::string name = "fair") {
  Rng rng(seed);
  data::OutcomeDataset ds(std::move(name));
  for (size_t i = 0; i < n; ++i) {
    ds.Add({rng.Uniform(0, width), rng.Uniform(0, height)},
           rng.Bernoulli(rho) ? 1 : 0);
  }
  return ds;
}

/// The paper Fig. 1 family construction at test scale: `count` random
/// rectangular partitionings with `min_splits`..`max_splits` per axis, drawn
/// from a dedicated seeded stream over the dataset's (expanded) bounding
/// box. Golden pins depend on this exact stream.
inline Result<std::unique_ptr<PartitioningCollectionFamily>>
MakeSeededPartitioningFamily(const data::OutcomeDataset& ds, uint64_t seed,
                             uint32_t count = 20, uint32_t min_splits = 4,
                             uint32_t max_splits = 12) {
  Rng rng(seed);
  auto parts = geo::MakeRandomResolutionPartitionings(
      ds.BoundingBox().Expanded(1e-6), count, min_splits, max_splits, &rng);
  SFA_RETURN_NOT_OK(parts.status());
  return PartitioningCollectionFamily::Create(ds.locations(), *parts);
}

/// Asserts that two AuditResults carry the same statistical payload,
/// bit-for-bit — the pipeline determinism contract. The per-field EXPECTs
/// exist for readable failure diffs; the authoritative (complete) field
/// list is core::ResultsBitIdentical, asserted at the end so this helper
/// can never silently lag behind a grown AuditResult.
inline void ExpectIdenticalResult(const AuditResult& a, const AuditResult& b,
                                  const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_TRUE(ResultsBitIdentical(a, b));
  EXPECT_EQ(a.spatially_fair, b.spatially_fair);
  EXPECT_EQ(a.p_value, b.p_value);
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.best_region, b.best_region);
  EXPECT_EQ(a.critical_value, b.critical_value);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.total_n, b.total_n);
  EXPECT_EQ(a.total_p, b.total_p);
  EXPECT_EQ(a.overall_rate, b.overall_rate);
  EXPECT_EQ(a.observed.llr, b.observed.llr);
  EXPECT_EQ(a.observed.positives, b.observed.positives);
  EXPECT_EQ(a.null_distribution.MaximaVector(), b.null_distribution.MaximaVector());
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].region_index, b.findings[i].region_index);
    EXPECT_EQ(a.findings[i].llr, b.findings[i].llr);
    EXPECT_EQ(a.findings[i].log_sul, b.findings[i].log_sul);
    EXPECT_EQ(a.findings[i].n, b.findings[i].n);
    EXPECT_EQ(a.findings[i].p, b.findings[i].p);
  }
}

/// Reference multinomial scan LLR (Jung, Kulldorff & Richard 2010), evaluated
/// directly through std::log:
///
///   Λ(R) = Σ_k [ c_k log(c_k/n) + d_k log(d_k/m) − C_k log(C_k/N) ]
///
/// with c_k/d_k/C_k the inside/outside/total counts of class k (`inside[k]`,
/// `total[k] - inside[k]`, `total[k]`), n/m/N the inside/outside/total sizes
/// and 0·log 0 := 0. Returns 0 for degenerate regions (empty or everything).
/// The oracle for MultinomialScanStatistic's table arithmetic, which agrees
/// to reassociation ulps.
inline double MultinomialLogLikelihoodRatio(
    const std::vector<uint64_t>& inside, const std::vector<uint64_t>& total) {
  SFA_CHECK_MSG(!inside.empty(), "need at least one class");
  SFA_CHECK_MSG(inside.size() == total.size(),
                "inside has " << inside.size() << " classes, total "
                              << total.size());
  // k log(k/m) with the 0 log 0 convention.
  const auto x_log_x_over_m = [](uint64_t k, uint64_t m) {
    if (k == 0) return 0.0;
    return static_cast<double>(k) *
           std::log(static_cast<double>(k) / static_cast<double>(m));
  };
  uint64_t n = 0, big_n = 0;
  for (size_t k = 0; k < inside.size(); ++k) {
    SFA_CHECK(inside[k] <= total[k]);
    n += inside[k];
    big_n += total[k];
  }
  const uint64_t m = big_n - n;
  if (n == 0 || m == 0) return 0.0;  // degenerate: alternative collapses
  double llr = 0.0;
  for (size_t k = 0; k < inside.size(); ++k) {
    const uint64_t c = inside[k];
    llr += x_log_x_over_m(c, n) + x_log_x_over_m(total[k] - c, m) -
           x_log_x_over_m(total[k], big_n);
  }
  // Nested hypotheses: mathematically >= 0; clamp floating-point residue.
  return llr < 0.0 ? 0.0 : llr;
}

/// Reference Bernoulli null world: one rng->Bernoulli(rho) per point, the
/// per-point loop Labels::ResampleBernoulli must match draw for draw.
inline std::vector<uint8_t> ReferenceBernoulliBytes(size_t n, double rho,
                                                    Rng* rng) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) bytes[i] = rng->Bernoulli(rho) ? 1 : 0;
  return bytes;
}

/// Reference sparse view: the ascending ids of the set bytes.
inline std::vector<uint32_t> ReferencePositiveIndices(
    const std::vector<uint8_t>& bytes) {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i]) ids.push_back(static_cast<uint32_t>(i));
  }
  return ids;
}

/// Reference closed-form cell world: one stats::FixedBinomialSampler per
/// cell, drawn in cell order, then one for the points outside every cell —
/// the per-sampler loop CellSamplerBank must match draw for draw.
class ReferenceCellSamplers {
 public:
  ReferenceCellSamplers(const CellDecomposition& decomposition, double rho) {
    for (uint32_t n_c : decomposition.cell_counts) {
      cells_.emplace_back(n_c, rho);
    }
    if (decomposition.num_outside > 0) {
      outside_ = stats::FixedBinomialSampler(decomposition.num_outside, rho);
    }
  }

  /// Writes each cell's positives; returns the world's total positives.
  uint64_t Draw(Rng* rng, uint32_t* cell_positives) const {
    uint64_t total_p = 0;
    for (size_t c = 0; c < cells_.size(); ++c) {
      const auto p = static_cast<uint32_t>(cells_[c].Draw(rng));
      cell_positives[c] = p;
      total_p += p;
    }
    return total_p + outside_.Draw(rng);
  }

 private:
  std::vector<stats::FixedBinomialSampler> cells_;
  stats::FixedBinomialSampler outside_;
};

/// Reference counter for the overlapping families: one explicit member-id
/// list per region, built straight from the geometry, counted by summing
/// label bytes. It keeps the RegionFamily base-class batch and K-class
/// oracles, so it shares no counting code with the annulus gather.
class MemberListFamily : public RegionFamily {
 public:
  /// Region r of `family` holds the points family.Describe(r).rect contains.
  static std::unique_ptr<MemberListFamily> Squares(
      const std::vector<geo::Point>& points, const SquareScanFamily& family) {
    auto ref = std::unique_ptr<MemberListFamily>(new MemberListFamily(points));
    for (size_t r = 0; r < family.num_regions(); ++r) {
      const RegionDescriptor desc = family.Describe(r);
      std::vector<uint32_t> members;
      for (size_t i = 0; i < points.size(); ++i) {
        if (desc.rect.Contains(points[i])) {
          members.push_back(static_cast<uint32_t>(i));
        }
      }
      ref->Add(desc, std::move(members));
    }
    return ref;
  }

  /// Region (center c, rung l) holds the first k_l ids of one
  /// KdTree::KNearest(c, largest k) query, with the ladder k_l = ceil(f * N)
  /// of `options.population_fractions`, clamped to [1, N], sorted, deduped.
  static std::unique_ptr<MemberListFamily> KnnCircles(
      const std::vector<geo::Point>& points, const KnnCircleOptions& options) {
    auto ref = std::unique_ptr<MemberListFamily>(new MemberListFamily(points));
    std::vector<size_t> ladder;
    const auto n = static_cast<double>(points.size());
    for (double f : options.population_fractions) {
      ladder.push_back(std::clamp<size_t>(static_cast<size_t>(std::ceil(f * n)),
                                          1, points.size()));
    }
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
    const spatial::KdTree tree(points);
    for (size_t c = 0; c < options.centers.size(); ++c) {
      const geo::Point& center = options.centers[c];
      const std::vector<uint32_t> nearest =
          tree.KNearest(center, ladder.back());
      for (const size_t k : ladder) {
        RegionDescriptor desc;
        desc.rect = geo::Rect::CenteredSquare(
            center, 2.0 * center.DistanceTo(points[nearest[k - 1]]));
        desc.label = "reference knn(center " + std::to_string(c) + ", k=" +
                     std::to_string(k) + ")";
        desc.group = static_cast<uint32_t>(c);
        ref->Add(std::move(desc),
                 std::vector<uint32_t>(nearest.begin(), nearest.begin() + k));
      }
    }
    return ref;
  }

  size_t num_regions() const override { return members_.size(); }
  size_t num_points() const override { return num_points_; }
  RegionDescriptor Describe(size_t r) const override { return descriptors_[r]; }
  uint64_t PointCount(size_t r) const override { return members_[r].size(); }
  void CountPositives(const Labels& labels,
                      std::vector<uint64_t>* out) const override {
    SFA_CHECK(labels.size() == num_points_);
    const std::vector<uint8_t>& bytes = labels.bytes();
    out->assign(members_.size(), 0);
    for (size_t r = 0; r < members_.size(); ++r) {
      for (const uint32_t id : members_[r]) (*out)[r] += bytes[id];
    }
  }
  std::string Name() const override {
    return std::to_string(members_.size()) + " member-list reference regions";
  }

 private:
  explicit MemberListFamily(const std::vector<geo::Point>& points)
      : num_points_(points.size()) {}

  void Add(RegionDescriptor desc, std::vector<uint32_t> members) {
    descriptors_.push_back(std::move(desc));
    members_.push_back(std::move(members));
  }

  size_t num_points_;
  std::vector<RegionDescriptor> descriptors_;
  std::vector<std::vector<uint32_t>> members_;
};

}  // namespace sfa::core::testing

#endif  // SFA_TESTS_TESTING_UTIL_H_
