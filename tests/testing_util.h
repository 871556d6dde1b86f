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
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/audit.h"
#include "core/bernoulli_statistic.h"
#include "core/cell_sampler_bank.h"
#include "core/knn_circle_family.h"
#include "core/multinomial_statistic.h"
#include "core/partitioning_family.h"
#include "data/dataset.h"
#include "core/region_family.h"
#include "core/scan_statistic.h"
#include "core/significance.h"
#include "core/square_family.h"
#include "geo/partitioning.h"
#include "geo/rect.h"
#include "spatial/kdtree.h"
#include "spatial/simd_popcount.h"
#include "stats/distributions.h"

namespace sfa::core::testing {

/// The SIMD tiers, for suites that force each in turn; a tier the CPU lacks
/// clamps down to the best one it has.
inline constexpr spatial::PopcountKernel kTiers[] = {
    spatial::PopcountKernel::kScalar, spatial::PopcountKernel::kAvx2,
    spatial::PopcountKernel::kAvx512};

/// Forces a tier (ForcePopcountKernel) for the scope and restores the
/// previous one.
class ScopedTier {
 public:
  explicit ScopedTier(spatial::PopcountKernel tier)
      : previous_(spatial::ForcePopcountKernel(tier)) {}
  ~ScopedTier() { spatial::ForcePopcountKernel(previous_); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  spatial::PopcountKernel previous_;
};

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

/// Reference per-point Categorical(q) draw of the multinomial label worlds:
/// u = NextDouble() · Σq compared against the in-order cumulative weights,
/// the class being the number of them u reaches, and one ++ per point on
/// its total — the floating-point loop core::internal::CategoricalDraw must
/// match draw for draw.
inline void ReferenceCategoricalDraw(const std::vector<double>& q, Rng* rng,
                                     uint8_t* classes, uint64_t n,
                                     uint64_t* totals) {
  std::vector<double> prefix(q.size());
  double acc = 0.0;
  for (size_t k = 0; k < q.size(); ++k) prefix[k] = acc += q[k];
  const double total = prefix.back();
  for (uint64_t i = 0; i < n; ++i) {
    const double u = rng->NextDouble() * total;
    uint32_t k = 0;
    for (size_t c = 0; c + 1 < q.size(); ++c) k += u >= prefix[c] ? 1u : 0u;
    classes[i] = static_cast<uint8_t>(k);
    ++totals[k];
  }
}

/// Mask words of up to RegionFamily::kMaxPlanes planes over `n` points: bit
/// p of word i is set when planes[p][i] is nonzero.
inline std::vector<uint64_t> PackPlaneWords(
    const std::vector<const uint8_t*>& planes, size_t n) {
  SFA_CHECK(planes.size() <= RegionFamily::kMaxPlanes);
  std::vector<uint64_t> masks(n, 0);
  for (size_t p = 0; p < planes.size(); ++p) {
    for (size_t i = 0; i < n; ++i) {
      masks[i] |= static_cast<uint64_t>(planes[p][i] != 0 ? 1u : 0u) << p;
    }
  }
  return masks;
}

/// Counts 0/1 byte planes over `n` points, RegionFamily::kMaxPlanes per
/// count_planes(masks, num_planes, out, out_stride) call (a family's or an
/// annulus index's CountPlanes). Row p (num_regions counts, widened) is
/// plane p's.
template <typename CountPlanesFn>
std::vector<uint64_t> CountByPlanes(CountPlanesFn count_planes,
                                    const std::vector<const uint8_t*>& planes,
                                    size_t n, size_t num_regions) {
  constexpr size_t kPerCall = RegionFamily::kMaxPlanes;
  std::vector<uint32_t> rows(planes.size() * num_regions, ~0u);
  for (size_t g = 0; g < planes.size(); g += kPerCall) {
    const size_t count = std::min(kPerCall, planes.size() - g);
    const std::vector<uint64_t> masks = PackPlaneWords(
        std::vector<const uint8_t*>(planes.begin() + g,
                                    planes.begin() + g + count),
        n);
    count_planes(masks.data(), count, rows.data() + g * num_regions,
                 num_regions);
  }
  return std::vector<uint64_t>(rows.begin(), rows.end());
}

/// The K−1 indicator oracle of multi-class counting: for every world and
/// class c < K−1, the indicator labels of class c counted through the scalar
/// CountPositives, into the ClassCountRowOffset rows of `out`. Codes at or
/// above `num_classes` count in no class.
inline void ReferenceClassCounts(const RegionFamily& family,
                                 const uint8_t* const* class_worlds,
                                 size_t num_worlds, uint32_t num_classes,
                                 uint64_t* out) {
  SFA_CHECK(num_classes >= 2);
  const uint32_t counted = num_classes - 1;
  const size_t n = family.num_points();
  const size_t stride = family.num_regions();
  std::vector<uint8_t> indicator(n);
  Labels labels;
  std::vector<uint64_t> scratch;
  for (size_t w = 0; w < num_worlds; ++w) {
    for (uint32_t k = 0; k < counted; ++k) {
      for (size_t i = 0; i < n; ++i) {
        indicator[i] = class_worlds[w][i] == k ? 1 : 0;
      }
      labels.AssignBytes(indicator.data(), n);
      family.CountPositives(labels, &scratch);
      std::copy(scratch.begin(), scratch.end(),
                out + ClassCountRowOffset(w, k, counted, stride));
    }
  }
}

/// The byte mutants of `seed` a parser of untrusted bytes must survive:
/// every truncation, every single-byte deletion, and at every position each
/// substitution from "(),;:=.-09e", 0x00 and 0xFF that changes the byte.
inline std::vector<std::string> ByteMutants(const std::string& seed) {
  static constexpr char kSubstitutes[] = {'(', ')', ',', ';', ':',
                                          '=', '.', '-', '0', '9',
                                          'e', '\0', '\xff'};
  std::vector<std::string> mutants;
  for (size_t i = 0; i < seed.size(); ++i) {
    mutants.push_back(seed.substr(0, i));
    mutants.push_back(seed.substr(0, i) + seed.substr(i + 1));
    for (const char c : kSubstitutes) {
      if (seed[i] == c) continue;
      std::string mutant = seed;
      mutant[i] = c;
      mutants.push_back(std::move(mutant));
    }
  }
  return mutants;
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
/// label bytes. It keeps the RegionFamily base-class CountPlanes, which
/// unpacks each plane into CountPositives, so it shares no counting code
/// with the annulus gather.
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

/// The null-world oracle of the Monte Carlo engine: options.num_worlds
/// maxima of Λ over `family`, in world order, for a Bernoulli or multinomial
/// `statistic`. World w draws from Rng(options.seed).Split(w) with the
/// scalar samplers the engine's lane paths must match draw for draw:
/// closed-form cells (CellSamplerBank::Draw, or chained Rng::Binomial per
/// cell and then the outside points for K classes) when
/// options.closed_form_cells, the null is Bernoulli and the family has a
/// cell decomposition; otherwise Labels::SampleBernoulli/SamplePermutation,
/// or internal::CategoricalDraw::Draw and the shuffled class codes. It
/// counts through CountPositivesFromCells, CountPositives or
/// ReferenceClassCounts and evaluates every region's Λ: through
/// stats::BernoulliLogLikelihoodRatio for Bernoulli, in RegionLlrFromTable's
/// operation order for K classes. No size groups, no region skip list, no
/// lanes, no batches.
inline std::vector<double> ReferenceNullMaxima(
    const ScanStatistic& statistic, const RegionFamily& family,
    const MonteCarloOptions& options) {
  const uint64_t total_n = family.num_points();
  const size_t num_regions = family.num_regions();
  const stats::LogLikelihoodTable table(total_n);
  const CellDecomposition* cells =
      options.closed_form_cells && options.null_model == NullModel::kBernoulli
          ? family.cell_decomposition()
          : nullptr;
  const Rng root(options.seed);
  std::vector<double> maxima(options.num_worlds, 0.0);

  if (const auto* bernoulli =
          dynamic_cast<const BernoulliScanStatistic*>(&statistic)) {
    std::optional<CellSamplerBank> bank;
    if (cells != nullptr) bank.emplace(*cells, bernoulli->rho());
    for (size_t w = 0; w < maxima.size(); ++w) {
      Rng rng = root.Split(w);
      std::vector<uint64_t> positives;
      uint64_t total_p = 0;
      if (bank.has_value()) {
        std::vector<uint32_t> cell_positives(cells->cell_counts.size());
        total_p = bank->Draw(&rng, cell_positives.data());
        std::vector<uint32_t> rows(num_regions);
        family.CountPositivesFromCells(cell_positives.data(), rows.data());
        positives.assign(rows.begin(), rows.end());
      } else {
        const Labels labels =
            options.null_model == NullModel::kBernoulli
                ? Labels::SampleBernoulli(total_n, bernoulli->rho(), &rng)
                : Labels::SamplePermutation(total_n, bernoulli->total_p(),
                                            &rng);
        family.CountPositives(labels, &positives);
        total_p = labels.positive_count();
      }
      for (size_t r = 0; r < num_regions; ++r) {
        stats::ScanCounts counts;
        counts.n = family.PointCount(r);
        counts.p = positives[r];
        counts.total_n = total_n;
        counts.total_p = total_p;
        maxima[w] = std::max(maxima[w], stats::BernoulliLogLikelihoodRatio(
                                            counts, bernoulli->direction(),
                                            table));
      }
    }
    return maxima;
  }

  const auto* multinomial =
      dynamic_cast<const MultinomialScanStatistic*>(&statistic);
  SFA_CHECK_MSG(multinomial != nullptr, "no oracle for " << statistic.Name());
  const uint32_t num_classes = multinomial->num_classes();
  const uint32_t counted = num_classes - 1;
  const std::vector<double> q = multinomial->ClassDistribution();
  const internal::CategoricalDraw categorical(q);
  for (size_t w = 0; w < maxima.size(); ++w) {
    Rng rng = root.Split(w);
    std::vector<uint64_t> totals(num_classes, 0);
    std::vector<uint64_t> counts(counted * num_regions);
    if (cells != nullptr) {
      // Multinomial(n_c, q) per cell, then one for the outside points, which
      // shift the totals only, by chained binomials: class k gets
      // Binomial(remaining, q_k / rest).
      const size_t num_cells = cells->cell_counts.size();
      std::vector<uint32_t> cell_class(counted * num_cells);
      const auto draw_cell = [&](uint64_t remaining, size_t c) {
        double rest = 1.0;
        for (uint32_t k = 0; k < counted; ++k) {
          const double p = rest > 0.0 ? std::min(1.0, q[k] / rest) : 1.0;
          const uint64_t draw = remaining > 0 ? rng.Binomial(remaining, p) : 0;
          totals[k] += draw;
          if (c < num_cells) {
            cell_class[k * num_cells + c] = static_cast<uint32_t>(draw);
          }
          remaining -= draw;
          rest -= q[k];
        }
        totals[counted] += remaining;
      };
      for (size_t c = 0; c < num_cells; ++c) draw_cell(cells->cell_counts[c], c);
      if (cells->num_outside > 0) draw_cell(cells->num_outside, num_cells);
      std::vector<uint32_t> rows(num_regions);
      for (uint32_t k = 0; k < counted; ++k) {
        family.CountPositivesFromCells(cell_class.data() + k * num_cells,
                                       rows.data());
        std::copy(rows.begin(), rows.end(), counts.begin() + k * num_regions);
      }
    } else {
      std::vector<uint8_t> classes(total_n);
      if (options.null_model == NullModel::kBernoulli) {
        categorical.Draw(&rng, classes.data(), total_n, totals.data());
      } else {
        totals = multinomial->class_totals();
        size_t at = 0;
        for (uint32_t k = 0; k < num_classes; ++k) {
          std::fill_n(classes.begin() + at, totals[k], static_cast<uint8_t>(k));
          at += totals[k];
        }
        rng.Shuffle(classes.data(), classes.data() + total_n);
      }
      const uint8_t* world = classes.data();
      ReferenceClassCounts(family, &world, 1, num_classes, counts.data());
    }
    double null_term = 0.0;
    for (uint32_t k = 0; k < num_classes; ++k) {
      null_term += table.klogk(totals[k]);
    }
    null_term -= table.klogk(total_n);
    for (size_t r = 0; r < num_regions; ++r) {
      const uint64_t n = family.PointCount(r);
      const uint64_t m = total_n - n;
      if (n == 0 || m == 0) continue;  // Λ = 0
      double t_in = 0.0;
      double t_out = 0.0;
      uint64_t in_counted = 0;
      for (uint32_t k = 0; k < counted; ++k) {
        const uint64_t c = counts[k * num_regions + r];
        in_counted += c;
        t_in += table.klogk(c);
        t_out += table.klogk(totals[k] - c);
      }
      const uint64_t c_last = n - in_counted;
      t_in += table.klogk(c_last);
      t_out += table.klogk(totals[counted] - c_last);
      const double llr = (t_in - table.klogk(n)) +
                         (t_out - table.klogk(m)) - null_term;
      maxima[w] = std::max(maxima[w], llr);
    }
  }
  return maxima;
}

}  // namespace sfa::core::testing

#endif  // SFA_TESTS_TESTING_UTIL_H_
