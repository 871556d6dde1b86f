// Equivalence suite for the annulus gather (core/annulus_index.h), the
// counting path of both overlapping families (SquareScanFamily,
// KnnCircleFamily): the gather must equal an entry-level oracle, the
// geometry-built member-list reference family (testing::MemberListFamily)
// and a hand-rolled scalar loop, across random seeds, all three
// ScanDirections, and degenerate ladders (L=1, duplicate centers, empty
// regions); the families' Monte Carlo null distributions must be
// bit-identical to the reference family's for both null models, any batch
// size, and parallel on/off. Also covers the CSR builder, the annulus
// collapse helper, the ladder dedup both families report in Name(), and the
// index's membership memory against one dense bit vector per region.
#include "core/annulus_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/knn_circle_family.h"
#include "core/labels.h"
#include "core/multinomial_statistic.h"
#include "core/scan.h"
#include "core/scan_statistic.h"
#include "core/significance.h"
#include "core/square_family.h"
#include "spatial/csr.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

std::vector<geo::Point> Cloud(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) {
    if (rng.Bernoulli(0.6)) {
      p = {rng.Normal(3, 0.7), rng.Normal(7, 0.7)};
    } else {
      p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    }
  }
  return pts;
}

std::vector<geo::Point> RandomCenters(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> centers(count);
  for (auto& c : centers) c = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
  return centers;
}

// ------------------------------------------------------------ CSR builder ---

TEST(Csr32, BuildsStableRowMajorLayout) {
  const std::vector<std::pair<uint32_t, uint32_t>> entries = {
      {2, 7}, {0, 1}, {2, 5}, {0, 3}, {3, 9}};
  const spatial::Csr32 csr = spatial::BuildCsr32(5, entries);
  ASSERT_EQ(csr.num_rows(), 5u);
  ASSERT_EQ(csr.num_entries(), 5u);
  EXPECT_EQ(csr.offsets, (std::vector<uint32_t>{0, 2, 2, 4, 5, 5}));
  // Stable within a row: values keep input order.
  EXPECT_EQ(csr.values, (std::vector<uint32_t>{1, 3, 7, 5, 9}));
  EXPECT_GT(csr.MemoryBytes(), 0u);
}

TEST(Csr32, EmptyInputs) {
  const spatial::Csr32 none = spatial::BuildCsr32(3, {});
  EXPECT_EQ(none.num_rows(), 3u);
  EXPECT_EQ(none.num_entries(), 0u);
  EXPECT_EQ(none.offsets, (std::vector<uint32_t>{0, 0, 0, 0}));
}

// ---------------------------------------------------------- annulus index ---

TEST(AnnulusIndex, HandExampleCountsAllRungsAtOnce) {
  // 2 centers, 3 rungs. Center 0: point 0 in rung 0, points 1,2 enter at
  // rung 1, point 3 at rung 2. Center 1: point 2 in rung 0, point 4 at rung 2.
  const std::vector<AnnulusEntry> entries = {
      {0, 0, 0}, {1, 0, 1}, {2, 0, 1}, {3, 0, 2}, {2, 1, 0}, {4, 1, 2}};
  const AnnulusIndex index(6, 2, 3, entries);
  EXPECT_EQ(index.num_regions(), 6u);
  EXPECT_EQ(index.num_entries(), 6u);
  EXPECT_EQ(index.region_point_counts(),
            (std::vector<uint64_t>{1, 3, 4, 1, 1, 2}));

  const std::vector<uint8_t> labels = {0, 0, 1, 1, 1, 0};  // positives 2,3,4
  std::vector<uint64_t> out(index.num_regions());
  index.CountPositives(labels.data(), out.data());
  // Center 0: rung0 {0} -> 0, rung1 {0,1,2} -> 1, rung2 {0..3} -> 2.
  // Center 1: rung0 {2} -> 1, rung1 same -> 1, rung2 {2,4} -> 2.
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 1, 2, 1, 1, 2}));

  // No positives.
  const std::vector<uint8_t> none(6, 0);
  index.CountPositives(none.data(), out.data());
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 0, 0, 0, 0, 0}));
}

TEST(CollapseEmptyAnnuli, DropsGloballyEmptyRungsAndRemaps) {
  // Rungs 1 and 3 have no entries at any center.
  std::vector<AnnulusEntry> entries = {{0, 0, 0}, {1, 0, 2}, {2, 1, 4}};
  const std::vector<uint32_t> kept = CollapseEmptyAnnuli(5, &entries);
  EXPECT_EQ(kept, (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(entries[0].rank, 0u);
  EXPECT_EQ(entries[1].rank, 1u);
  EXPECT_EQ(entries[2].rank, 2u);
}

TEST(CollapseEmptyAnnuli, KeepsEmptyRungZero) {
  // Rung 0 empty everywhere but rung 1 occupied: the empty base region is a
  // distinct (empty) member set and must survive.
  std::vector<AnnulusEntry> entries = {{0, 0, 1}};
  const std::vector<uint32_t> kept = CollapseEmptyAnnuli(2, &entries);
  EXPECT_EQ(kept, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(entries[0].rank, 1u);
}

// ------------------------------------------ gather kernel vs entry oracle ---

/// Batch sizes the equivalence tests sweep: one world (the unpacked path),
/// partial and full 8-plane groups, and groups spilling into a remainder.
constexpr size_t kBatchSizes[] = {1, 2, 7, 8, 9, 17, 64};

/// Hand-rolled counter straight from the entries: a point of rank ℓ at
/// center c counts toward every rung ℓ' >= ℓ of c, weighted by `weight`.
std::vector<uint64_t> OracleCounts(const std::vector<AnnulusEntry>& entries,
                                   size_t num_centers, size_t num_rungs,
                                   const std::vector<uint8_t>& weight) {
  std::vector<uint64_t> out(num_centers * num_rungs, 0);
  for (const AnnulusEntry& e : entries) {
    for (size_t l = e.rank; l < num_rungs; ++l) {
      out[e.center * num_rungs + l] += weight[e.point];
    }
  }
  return out;
}

/// Random entries: each point joins each center's ladder with probability
/// `density` at a uniform rank. Center 1 duplicates center 0 and the last
/// center stays empty, so duplicate centers and empty regions always occur.
std::vector<AnnulusEntry> RandomEntries(size_t num_points, size_t num_centers,
                                        size_t num_rungs, double density,
                                        Rng* rng) {
  std::vector<AnnulusEntry> entries;
  for (size_t c = 0; c + 1 < num_centers; ++c) {
    if (c == 1) {
      const size_t center0 = entries.size();
      for (size_t i = 0; i < center0; ++i) {
        AnnulusEntry copy = entries[i];
        copy.center = 1;
        entries.push_back(copy);
      }
      continue;
    }
    for (size_t p = 0; p < num_points; ++p) {
      if (!rng->Bernoulli(density)) continue;
      const auto rank = static_cast<uint32_t>(rng->NextUint64(num_rungs));
      entries.push_back({static_cast<uint32_t>(p), static_cast<uint32_t>(c),
                         rank});
    }
  }
  rng->Shuffle(entries.begin(), entries.end());
  return entries;
}

struct IndexShape {
  size_t points, centers, rungs;
  double density;
};

// L = 1, a long ladder, and an index with no entries at all.
constexpr IndexShape kIndexShapes[] = {
    {300, 6, 5, 0.3}, {257, 4, 1, 0.5}, {90, 3, 20, 0.8}, {40, 2, 3, 0.0}};

std::vector<uint8_t> RandomBytes(size_t n, uint32_t bound, Rng* rng) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->NextUint64(bound));
  return bytes;
}

TEST(AnnulusIndex, GatherMatchesEntryOracleForEveryBatchSize) {
  Rng rng(71);
  for (const IndexShape& shape : kIndexShapes) {
    const auto entries = RandomEntries(shape.points, shape.centers,
                                       shape.rungs, shape.density, &rng);
    const AnnulusIndex index(shape.points, shape.centers, shape.rungs,
                             entries);
    const size_t stride = index.num_regions();
    EXPECT_EQ(index.region_point_counts(),
              OracleCounts(entries, shape.centers, shape.rungs,
                           std::vector<uint8_t>(shape.points, 1)));

    for (const size_t batch : kBatchSizes) {
      SCOPED_TRACE(::testing::Message() << "points=" << shape.points
                                        << " rungs=" << shape.rungs
                                        << " batch=" << batch);
      std::vector<Labels> worlds;
      for (size_t w = 0; w < batch; ++w) {
        // Includes the all-negative and all-positive worlds.
        worlds.push_back(Labels::SampleBernoulli(
            shape.points, static_cast<double>(w % 6) / 5.0, &rng));
      }
      std::vector<const Labels*> ptrs;
      for (const Labels& l : worlds) ptrs.push_back(&l);
      std::vector<uint64_t> out(batch * stride, ~0ULL);
      CountPositivesBatchWithAnnulus(index, ptrs.data(), batch, out.data());
      std::vector<uint64_t> one(stride, ~0ULL);
      for (size_t w = 0; w < batch; ++w) {
        const auto expected = OracleCounts(entries, shape.centers, shape.rungs,
                                           worlds[w].bytes());
        ASSERT_EQ(std::vector<uint64_t>(out.begin() + w * stride,
                                        out.begin() + (w + 1) * stride),
                  expected)
            << "world " << w;
        index.CountPositives(worlds[w].bytes().data(), one.data());
        ASSERT_EQ(one, expected) << "world " << w;
      }
    }
  }
}

TEST(AnnulusIndex, ClassGatherMatchesEntryOracleWithJunkCodes) {
  Rng rng(72);
  for (const IndexShape& shape : kIndexShapes) {
    const auto entries = RandomEntries(shape.points, shape.centers,
                                       shape.rungs, shape.density, &rng);
    const AnnulusIndex index(shape.points, shape.centers, shape.rungs,
                             entries);
    const size_t stride = index.num_regions();
    for (const uint32_t k : {2u, 3u, 5u, 9u}) {
      for (const size_t batch : kBatchSizes) {
        SCOPED_TRACE(::testing::Message() << "points=" << shape.points
                                          << " K=" << k << " batch=" << batch);
        // Codes K and K+1 are junk and must count in no class; so is 255.
        std::vector<std::vector<uint8_t>> worlds;
        for (size_t w = 0; w < batch; ++w) {
          worlds.push_back(RandomBytes(shape.points, k + 2, &rng));
          worlds.back()[w % shape.points] = 255;
        }
        std::vector<const uint8_t*> ptrs;
        for (const auto& w : worlds) ptrs.push_back(w.data());
        std::vector<uint64_t> out(ClassCountBufferSize(batch, k - 1, stride),
                                  ~0ULL);
        CountClassesBatchWithAnnulus(index, ptrs.data(), batch, k, out.data());
        for (size_t w = 0; w < batch; ++w) {
          for (uint32_t c = 0; c + 1 < k; ++c) {
            std::vector<uint8_t> indicator(shape.points);
            for (size_t i = 0; i < shape.points; ++i) {
              indicator[i] = worlds[w][i] == c;
            }
            const size_t row = ClassCountRowOffset(w, c, k - 1, stride);
            ASSERT_EQ(std::vector<uint64_t>(out.begin() + row,
                                            out.begin() + row + stride),
                      OracleCounts(entries, shape.centers, shape.rungs,
                                   indicator))
                << "world " << w << " class " << c;
          }
        }
      }
    }
  }
}

TEST(AnnulusIndex, ClassesBeyondTheByteRangeCountNothing) {
  // K = 258 counts classes 0..256; no byte code names class 256, so its
  // plane is empty even though code 0 (which class 256 aliases mod 256)
  // is present.
  Rng rng(74);
  const auto entries = RandomEntries(300, 4, 3, 0.5, &rng);
  const AnnulusIndex index(300, 4, 3, entries);
  const size_t stride = index.num_regions();
  const std::vector<uint8_t> codes = RandomBytes(300, 256, &rng);
  const uint8_t* ptr = codes.data();
  const uint32_t k = 258;
  std::vector<uint64_t> out(ClassCountBufferSize(1, k - 1, stride), ~0ULL);
  CountClassesBatchWithAnnulus(index, &ptr, 1, k, out.data());
  for (uint32_t c = 0; c + 1 < k; ++c) {
    std::vector<uint8_t> indicator(300);
    for (size_t i = 0; i < 300; ++i) indicator[i] = codes[i] == c;
    const size_t row = ClassCountRowOffset(0, c, k - 1, stride);
    ASSERT_EQ(std::vector<uint64_t>(out.begin() + row,
                                    out.begin() + row + stride),
              OracleCounts(entries, 4, 3, indicator))
        << "class " << c;
  }
}

TEST(AnnulusIndex, AnnulusLongerThanLaneFlushPeriod) {
  // 70,000 points, more than a 16-bit lane (and far more than a byte lane)
  // can count. Center 0 puts every point in annulus 1 (annulus 0 empty);
  // center 1 spreads them over ranks 0..2. All-positive worlds drive every
  // lane to its limit between flushes.
  const size_t n = 70000;
  std::vector<AnnulusEntry> entries;
  for (uint32_t p = 0; p < n; ++p) {
    entries.push_back({p, 0, 1});
    entries.push_back({p, 1, p % 3});
  }
  const AnnulusIndex index(n, 2, 3, entries);
  const size_t stride = index.num_regions();
  EXPECT_EQ(index.region_point_counts(),
            (std::vector<uint64_t>{0, n, n, 23334, 46667, n}));

  Rng rng(73);
  const size_t batch = 9;  // one full group plus the one-world path
  std::vector<Labels> worlds;
  for (size_t w = 0; w < batch; ++w) {
    const double rho = (w == 0 || w == 8) ? 1.0 : (w == 1 ? 0.0 : 0.5);
    worlds.push_back(Labels::SampleBernoulli(n, rho, &rng));
  }
  std::vector<const Labels*> ptrs;
  for (const Labels& l : worlds) ptrs.push_back(&l);
  std::vector<uint64_t> out(batch * stride, ~0ULL);
  CountPositivesBatchWithAnnulus(index, ptrs.data(), batch, out.data());
  for (size_t w = 0; w < batch; ++w) {
    ASSERT_EQ(std::vector<uint64_t>(out.begin() + w * stride,
                                    out.begin() + (w + 1) * stride),
              OracleCounts(entries, 2, 3, worlds[w].bytes()))
        << "world " << w;
  }

  // K = 3: world 0 is all class 0, world 1 all class 1, world 2 mixed.
  std::vector<std::vector<uint8_t>> classes = {
      std::vector<uint8_t>(n, 0), std::vector<uint8_t>(n, 1),
      RandomBytes(n, 3, &rng)};
  std::vector<const uint8_t*> class_ptrs;
  for (const auto& w : classes) class_ptrs.push_back(w.data());
  std::vector<uint64_t> class_out(ClassCountBufferSize(3, 2, stride), ~0ULL);
  CountClassesBatchWithAnnulus(index, class_ptrs.data(), 3, 3,
                               class_out.data());
  for (size_t w = 0; w < 3; ++w) {
    for (uint32_t c = 0; c < 2; ++c) {
      std::vector<uint8_t> indicator(n);
      for (size_t i = 0; i < n; ++i) indicator[i] = classes[w][i] == c;
      const size_t row = ClassCountRowOffset(w, c, 2, stride);
      ASSERT_EQ(std::vector<uint64_t>(class_out.begin() + row,
                                      class_out.begin() + row + stride),
                OracleCounts(entries, 2, 3, indicator))
          << "world " << w << " class " << c;
    }
  }
}

// ------------------------------------------ family vs reference family ---

/// A family under test and the geometry-built member-list family it must
/// match count for count.
struct FamilyPair {
  std::unique_ptr<RegionFamily> sparse;
  std::unique_ptr<RegionFamily> reference;
};

FamilyPair MakeSquarePair(const std::vector<geo::Point>& points,
                          const SquareScanOptions& opts) {
  auto sparse = SquareScanFamily::Create(points, opts);
  EXPECT_TRUE(sparse.ok());
  FamilyPair pair;
  pair.reference = testing::MemberListFamily::Squares(points, **sparse);
  pair.sparse = std::move(*sparse);
  return pair;
}

FamilyPair MakeKnnPair(const std::vector<geo::Point>& points,
                       const KnnCircleOptions& opts) {
  auto sparse = KnnCircleFamily::Create(points, opts);
  EXPECT_TRUE(sparse.ok());
  FamilyPair pair;
  pair.sparse = std::move(*sparse);
  pair.reference = testing::MemberListFamily::KnnCircles(points, opts);
  return pair;
}

/// Asserts the family agrees with its reference on n(R), p(R) (scalar, and
/// batched at every kBatchSizes size), and the scan's max statistic under
/// every direction, for random label assignments.
void CheckMatchesReference(const FamilyPair& pair, size_t worlds,
                           uint64_t seed) {
  const RegionFamily& sparse = *pair.sparse;
  const RegionFamily& reference = *pair.reference;
  ASSERT_EQ(sparse.num_regions(), reference.num_regions());
  ASSERT_EQ(sparse.num_points(), reference.num_points());
  for (size_t r = 0; r < sparse.num_regions(); ++r) {
    ASSERT_EQ(sparse.PointCount(r), reference.PointCount(r)) << "region " << r;
  }

  Rng rng(seed);
  std::vector<Labels> labels;
  std::vector<const Labels*> ptrs;
  for (size_t w = 0; w < worlds; ++w) {
    labels.push_back(
        Labels::SampleBernoulli(sparse.num_points(), 0.1 + 0.2 * (w % 5), &rng));
  }
  for (const Labels& l : labels) ptrs.push_back(&l);

  std::vector<uint64_t> from_sparse, from_reference;
  for (size_t w = 0; w < worlds; ++w) {
    sparse.CountPositives(labels[w], &from_sparse);
    reference.CountPositives(labels[w], &from_reference);
    ASSERT_EQ(from_sparse, from_reference) << "world " << w;
  }

  // Batched, across batch sizes: the gather's batch == the reference's
  // base-class batch, and every row == the reference's one-world count.
  const size_t stride = sparse.num_regions();
  for (const size_t batch : kBatchSizes) {
    std::vector<Labels> batch_labels;
    std::vector<const Labels*> batch_ptrs;
    for (size_t w = 0; w < batch; ++w) {
      batch_labels.push_back(Labels::SampleBernoulli(
          sparse.num_points(), 0.05 + 0.1 * (w % 9), &rng));
    }
    for (const Labels& l : batch_labels) batch_ptrs.push_back(&l);
    std::vector<uint64_t> batch_sparse(batch * stride, ~0ULL);
    std::vector<uint64_t> batch_reference(batch * stride, ~0ULL);
    sparse.CountPositivesBatch(batch_ptrs.data(), batch, batch_sparse.data());
    reference.CountPositivesBatch(batch_ptrs.data(), batch,
                                  batch_reference.data());
    ASSERT_EQ(batch_sparse, batch_reference) << "batch " << batch;
    for (size_t w = 0; w < batch; ++w) {
      reference.CountPositives(batch_labels[w], &from_reference);
      ASSERT_EQ(std::vector<uint64_t>(batch_sparse.begin() + w * stride,
                                      batch_sparse.begin() + (w + 1) * stride),
                from_reference)
          << "batch " << batch << " world " << w;
    }
  }

  const stats::LogLikelihoodTable table(sparse.num_points());
  for (stats::ScanDirection direction :
       {stats::ScanDirection::kTwoSided, stats::ScanDirection::kHigh,
        stats::ScanDirection::kLow}) {
    for (size_t w = 0; w < std::min<size_t>(worlds, 3); ++w) {
      const double tau_sparse =
          ScanAllRegions(sparse, labels[w], direction, table).max_llr;
      const double tau_reference =
          ScanAllRegions(reference, labels[w], direction, table).max_llr;
      ASSERT_EQ(tau_sparse, tau_reference)
          << "direction " << static_cast<int>(direction) << " world " << w;
    }
  }
}

// The reference families are the scalar counters promoted into
// testing_util.h: squares count the points each Describe(r).rect contains,
// kNN circles count prefixes of one KNearest list per center.
TEST(AnnulusBackend, SquareCountsMatchReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const auto pts = Cloud(400 + 150 * seed, seed);
    SquareScanOptions opts;
    opts.centers = RandomCenters(8, seed + 100);
    opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.4, 3.5, 6);
    CheckMatchesReference(MakeSquarePair(pts, opts), 6, seed + 200);
  }
}

TEST(AnnulusBackend, KnnCountsMatchReference) {
  for (uint64_t seed : {4u, 5u}) {
    const auto pts = Cloud(500, seed);
    KnnCircleOptions opts;
    opts.centers = RandomCenters(7, seed + 100);
    opts.population_fractions = {0.01, 0.03, 0.08, 0.15};
    CheckMatchesReference(MakeKnnPair(pts, opts), 6, seed + 200);
  }
}

TEST(AnnulusBackend, DegenerateLadders) {
  const auto pts = Cloud(300, 9);

  // L=1 ladders.
  {
    SquareScanOptions opts;
    opts.centers = RandomCenters(5, 1);
    opts.side_lengths = {1.25};
    CheckMatchesReference(MakeSquarePair(pts, opts), 4, 10);
    KnnCircleOptions kopts;
    kopts.centers = RandomCenters(5, 2);
    kopts.population_fractions = {0.05};
    CheckMatchesReference(MakeKnnPair(pts, kopts), 4, 11);
  }

  // Duplicate centers (overlap is total across the duplicated groups).
  {
    SquareScanOptions opts;
    opts.centers = {{3, 7}, {3, 7}, {5, 5}};
    opts.side_lengths = {0.5, 2.0, 3.0};
    CheckMatchesReference(MakeSquarePair(pts, opts), 4, 12);
    KnnCircleOptions kopts;
    kopts.centers = {{3, 7}, {3, 7}};
    kopts.population_fractions = {0.02, 0.10};
    CheckMatchesReference(MakeKnnPair(pts, kopts), 4, 13);
  }

  // Empty regions: centers far outside the cloud capture nothing at small
  // sides (and everything-empty ladders collapse to the base rung).
  {
    SquareScanOptions opts;
    opts.centers = {{120, 120}, {5, 5}};
    opts.side_lengths = {0.5, 1.0};
    const FamilyPair pair = MakeSquarePair(pts, opts);
    CheckMatchesReference(pair, 4, 14);
    EXPECT_EQ(pair.sparse->PointCount(0), 0u);
  }

  // Single point, single center.
  {
    const std::vector<geo::Point> one = {{1.0, 1.0}};
    SquareScanOptions opts;
    opts.centers = {{1.0, 1.0}};
    opts.side_lengths = {0.5, 2.0};
    CheckMatchesReference(MakeSquarePair(one, opts), 2, 15);
  }
}

// ------------------------------------------------------------ ladder dedup ---

TEST(AnnulusBackend, SquareLadderDedupCollapsesIdenticalMemberSets) {
  // Points on an integer lattice: sides 0.5 and 0.9 capture identical member
  // sets at integer centers (no point between the two rects), so one of the
  // pair must collapse; exact duplicate sides always collapse.
  std::vector<geo::Point> pts;
  for (int x = 0; x <= 9; ++x) {
    for (int y = 0; y <= 9; ++y) pts.push_back({double(x), double(y)});
  }
  SquareScanOptions opts;
  opts.centers = {{4, 4}, {7, 2}};
  opts.side_lengths = {0.5, 0.9, 2.5, 2.5};
  auto family = SquareScanFamily::Create(pts, opts);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ((*family)->num_sides(), 2u) << (*family)->Name();
  EXPECT_EQ((*family)->num_regions(), 4u);
  EXPECT_NE((*family)->Name().find("deduped from 4"), std::string::npos)
      << (*family)->Name();
}

TEST(AnnulusBackend, KnnLadderDedupReportedInName) {
  const auto pts = Cloud(100, 21);
  KnnCircleOptions opts;
  opts.centers = {{5, 5}};
  opts.population_fractions = {0.005, 0.01, 0.02};  // k = 1, 1, 2
  auto family = KnnCircleFamily::Create(pts, opts);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ((*family)->num_regions(), 2u);
  EXPECT_NE((*family)->Name().find("deduped from 3 fractions"),
            std::string::npos)
      << (*family)->Name();
}

TEST(AnnulusBackend, NameReportsBackend) {
  // FamilyFingerprint hashes Name(), so the tag is part of every persisted
  // calibration key of these families.
  const auto pts = Cloud(200, 22);
  SquareScanOptions opts;
  opts.centers = RandomCenters(3, 23);
  opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.5, 2.0, 4);
  auto squares = SquareScanFamily::Create(pts, opts);
  ASSERT_TRUE(squares.ok());
  EXPECT_NE((*squares)->Name().find("[sparse-annulus]"), std::string::npos);
  KnnCircleOptions kopts;
  kopts.centers = RandomCenters(3, 24);
  auto knn = KnnCircleFamily::Create(pts, kopts);
  ASSERT_TRUE(knn.ok());
  EXPECT_NE((*knn)->Name().find("[sparse-annulus]"), std::string::npos);
}

// -------------------------------------------------------------- memory win ---

/// Bytes of one dense membership bit vector per region: the representation
/// the annulus index replaces.
double DenseMembershipBytes(const RegionFamily& family) {
  return static_cast<double>(family.num_regions() *
                             ((family.num_points() + 63) / 64) *
                             sizeof(uint64_t));
}

TEST(AnnulusBackend, SparseMembershipMemoryBeatsDenseByLadderFactor) {
  // Representative paper-style configuration: 20-rung ladder, sides well
  // below the domain size. The index must undercut the dense bit vectors by
  // at least L/3.
  const auto pts = Cloud(4096, 31);
  SquareScanOptions opts;
  opts.centers = RandomCenters(100, 32);
  opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.1, 1.5, 20);
  auto squares = SquareScanFamily::Create(pts, opts);
  ASSERT_TRUE(squares.ok());

  const double ladder = static_cast<double>((*squares)->num_sides());
  const auto sparse_bytes = static_cast<double>((*squares)->MembershipBytes());
  const double dense_bytes = DenseMembershipBytes(**squares);
  EXPECT_GT(sparse_bytes, 0.0);
  EXPECT_GE(dense_bytes / sparse_bytes, ladder / 3.0)
      << "sparse " << sparse_bytes << "B vs dense " << dense_bytes << "B, L="
      << ladder;

  // kNN circles: the ladder is shallower but the index must still win.
  KnnCircleOptions kopts;
  kopts.centers = RandomCenters(50, 33);
  auto knn = KnnCircleFamily::Create(pts, kopts);
  ASSERT_TRUE(knn.ok());
  EXPECT_LT(static_cast<double>((*knn)->MembershipBytes()),
            DenseMembershipBytes(**knn));
}

// --------------------------------------- multi-class counting equivalence ---

/// Packed class codes for `worlds` null worlds: iid categorical draws (the
/// multinomial Bernoulli-style null) or shuffles of one fixed multiset (the
/// permutation null). Both draw styles the multinomial engine feeds
/// CountClassesBatch must hit the same scatter paths.
std::vector<std::vector<uint8_t>> MakeClassWorlds(size_t n, uint32_t k,
                                                  size_t worlds, bool permute,
                                                  Rng* rng) {
  // Geometric-ish mix so classes have visibly different masses.
  std::vector<double> mix(k);
  double rest = 1.0;
  for (uint32_t c = 0; c < k; ++c) {
    mix[c] = (c + 1 == k) ? rest : rest * 0.5;
    rest -= mix[c];
  }
  std::vector<uint8_t> base(n);
  for (size_t i = 0; i < n; ++i) {
    base[i] = static_cast<uint8_t>(rng->Categorical(mix));
  }
  std::vector<std::vector<uint8_t>> out(worlds);
  for (size_t w = 0; w < worlds; ++w) {
    if (permute) {
      out[w] = base;
      rng->Shuffle(out[w].begin(), out[w].end());
    } else {
      out[w].resize(n);
      for (size_t i = 0; i < n; ++i) {
        out[w][i] = static_cast<uint8_t>(rng->Categorical(mix));
      }
    }
  }
  return out;
}

/// Asserts the family's class gather == the reference family's base-class
/// K-1 indicator oracle, for both null-model draw styles, every
/// kBatchSizes size, junk codes (>= K, counted in no class), and a K ladder
/// covering binary-degenerate (K=2) through 8 planes per world (K=9), so
/// plane groups cross world boundaries.
void CheckClassCountingAgrees(const FamilyPair& pair, uint64_t seed) {
  const size_t n = pair.sparse->num_points();
  const size_t stride = pair.sparse->num_regions();
  Rng rng(seed);
  for (const uint32_t k : {2u, 3u, 5u, 9u}) {
    for (const bool permute : {false, true}) {
      for (const size_t worlds : kBatchSizes) {
        auto class_worlds = MakeClassWorlds(n, k, worlds, permute, &rng);
        for (size_t w = 0; w < worlds; ++w) {
          for (size_t i = w % 7; i < n; i += 7) {
            class_worlds[w][i] = static_cast<uint8_t>(i % 3 == 0 ? 255 : k);
          }
        }
        std::vector<const uint8_t*> ptrs;
        for (const auto& w : class_worlds) ptrs.push_back(w.data());

        const size_t total = ClassCountBufferSize(worlds, k - 1, stride);
        std::vector<uint64_t> from_sparse(total, ~0ULL);
        std::vector<uint64_t> reference(total, ~0ULL);
        pair.sparse->CountClassesBatch(ptrs.data(), worlds, k,
                                       from_sparse.data());
        // The reference family keeps the RegionFamily base implementation,
        // the indicator-labels oracle every override must match exactly.
        pair.reference->CountClassesBatch(ptrs.data(), worlds, k,
                                          reference.data());
        ASSERT_EQ(from_sparse, reference) << "sparse vs reference, K=" << k
                                          << " permute=" << permute
                                          << " batch=" << worlds;

        // Consistency pin on one world: the K-1 counted classes can never
        // exceed n(R) — the last class is derived as the remainder.
        for (size_t r = 0; r < stride; ++r) {
          uint64_t counted_sum = 0;
          for (uint32_t c = 0; c + 1 < k; ++c) {
            counted_sum +=
                reference[ClassCountRowOffset(0, c, k - 1, stride) + r];
          }
          ASSERT_LE(counted_sum, pair.sparse->PointCount(r)) << "region " << r;
        }
      }
    }
  }
}

TEST(AnnulusBackend, ClassCountsMatchReferenceOracle) {
  const auto pts = Cloud(450, 51);
  SquareScanOptions sq_opts;
  sq_opts.centers = RandomCenters(7, 52);
  sq_opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.4, 3.0, 5);
  CheckClassCountingAgrees(MakeSquarePair(pts, sq_opts), 53);

  KnnCircleOptions knn_opts;
  knn_opts.centers = RandomCenters(6, 54);
  knn_opts.population_fractions = {0.01, 0.04, 0.09};
  CheckClassCountingAgrees(MakeKnnPair(pts, knn_opts), 55);
}

TEST(AnnulusBackend, ClassCountsCoverDegenerateShapes) {
  // Empty regions (far-out center) and a single-point cloud: the class
  // scatter must tolerate empty CSR rows and 1-point planes.
  const auto pts = Cloud(200, 61);
  SquareScanOptions opts;
  opts.centers = {{120, 120}, {5, 5}};
  opts.side_lengths = {0.5, 1.5};
  CheckClassCountingAgrees(MakeSquarePair(pts, opts), 62);

  const std::vector<geo::Point> one = {{1.0, 1.0}};
  SquareScanOptions one_opts;
  one_opts.centers = {{1.0, 1.0}};
  one_opts.side_lengths = {0.5, 2.0};
  CheckClassCountingAgrees(MakeSquarePair(one, one_opts), 63);

  // L = 1, and duplicate centers.
  opts.centers = RandomCenters(4, 64);
  opts.side_lengths = {1.5};
  CheckClassCountingAgrees(MakeSquarePair(pts, opts), 65);
  opts.centers = {{3, 7}, {3, 7}, {5, 5}};
  opts.side_lengths = {0.5, 2.0, 3.0};
  CheckClassCountingAgrees(MakeSquarePair(pts, opts), 66);
}

// ------------------------------------- bit-identical null distributions ---

NullDistribution MustSimulate(const RegionFamily& family,
                              const MonteCarloOptions& mc) {
  // ρ = 246/600, the double 0.41.
  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         family.num_points(), 246);
  auto dist = SimulateNull(statistic, family, mc);
  EXPECT_TRUE(dist.ok());
  return *dist;
}

TEST(AnnulusBackend, NullDistributionBitIdenticalToReference) {
  const auto pts = Cloud(600, 41);
  SquareScanOptions sq_opts;
  sq_opts.centers = RandomCenters(9, 42);
  sq_opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.5, 3.0, 5);
  KnnCircleOptions knn_opts;
  knn_opts.centers = RandomCenters(8, 43);

  std::vector<std::pair<std::string, FamilyPair>> pairs;
  pairs.emplace_back("square", MakeSquarePair(pts, sq_opts));
  pairs.emplace_back("knn-circle", MakeKnnPair(pts, knn_opts));

  for (const auto& [name, pair] : pairs) {
    for (NullModel null_model :
         {NullModel::kBernoulli, NullModel::kPermutation}) {
      MonteCarloOptions mc;
      mc.num_worlds = 40;
      mc.seed = 777;
      mc.null_model = null_model;
      mc.parallel = false;
      mc.engine = McEngine::kReference;
      const NullDistribution reference = MustSimulate(*pair.reference, mc);

      for (bool parallel : {false, true}) {
        for (McEngine engine : {McEngine::kBatched, McEngine::kReference}) {
          for (uint32_t batch_size : {1u, 2u, 3u, 7u, 8u, 9u, 17u, 64u}) {
            mc.parallel = parallel;
            mc.engine = engine;
            mc.batch_size = batch_size;
            const NullDistribution sparse_run = MustSimulate(*pair.sparse, mc);
            EXPECT_EQ(sparse_run.MaximaVector(), reference.MaximaVector())
                << name << " / " << NullModelToString(null_model) << " / "
                << McEngineToString(engine) << " / parallel=" << parallel
                << " / batch=" << batch_size;
          }
        }
      }
    }
  }
}

TEST(AnnulusBackend, MultinomialNullDistributionBitIdenticalToReference) {
  // The K-class calibration path: CountClassesBatch under the multinomial
  // statistic, 3 classes, across batch sizes and parallel on/off.
  const auto pts = Cloud(600, 91);
  SquareScanOptions sq_opts;
  sq_opts.centers = RandomCenters(9, 92);
  sq_opts.side_lengths = SquareScanOptions::DefaultSideLengths(0.5, 3.0, 5);
  KnnCircleOptions knn_opts;
  knn_opts.centers = RandomCenters(8, 93);

  std::vector<std::pair<std::string, FamilyPair>> pairs;
  pairs.emplace_back("square", MakeSquarePair(pts, sq_opts));
  pairs.emplace_back("knn-circle", MakeKnnPair(pts, knn_opts));
  const MultinomialScanStatistic statistic({300, 200, 100});

  for (const auto& [name, pair] : pairs) {
    MonteCarloOptions mc;
    mc.num_worlds = 40;
    mc.seed = 778;
    mc.parallel = false;
    auto reference = SimulateNull(statistic, *pair.reference, mc);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (bool parallel : {false, true}) {
      for (uint32_t batch_size : {1u, 2u, 7u, 8u, 9u, 17u, 64u}) {
        mc.parallel = parallel;
        mc.batch_size = batch_size;
        auto sparse_run = SimulateNull(statistic, *pair.sparse, mc);
        ASSERT_TRUE(sparse_run.ok()) << sparse_run.status().ToString();
        EXPECT_EQ(sparse_run->MaximaVector(), reference->MaximaVector())
            << name << " / parallel=" << parallel
            << " / batch=" << batch_size;
      }
    }
  }
}

}  // namespace
}  // namespace sfa::core
