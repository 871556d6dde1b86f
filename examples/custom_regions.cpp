// Implementing a custom RegionFamily: auditing over city-district polygons
// is out of scope for the built-in families, but any region shape works as
// long as you can enumerate memberships. This example defines a family of
// CIRCULAR regions and runs the standard audit over it — nothing in the
// auditor knows or cares that the regions are not rectangles.
//
// A family implements one counting method, CountPlanes: up to 64 label
// worlds arrive packed into one 64-bit mask word per point (bit p = the
// point's label in world p), and the family writes each world's p(R) for
// every region. Everything else — the observed scan, the Monte Carlo worlds,
// the calibration fingerprint — counts through it.
#include <bit>
#include <cstdio>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/audit.h"
#include "core/report.h"
#include "data/dataset.h"

namespace {

/// A circle-based region family. Each region's member ids are listed once
/// at construction; a CountPlanes call walks every list once and adds each
/// member's set mask bits into per-plane totals.
class CircleFamily final : public sfa::core::RegionFamily {
 public:
  CircleFamily(const std::vector<sfa::geo::Point>& points,
               std::vector<sfa::geo::Point> centers, std::vector<double> radii)
      : centers_(std::move(centers)),
        radii_(std::move(radii)),
        num_points_(points.size()) {
    for (const auto& center : centers_) {
      for (double radius : radii_) {
        std::vector<uint32_t> members;
        for (size_t i = 0; i < points.size(); ++i) {
          if (points[i].DistanceTo(center) <= radius) {
            members.push_back(static_cast<uint32_t>(i));
          }
        }
        members_.push_back(std::move(members));
      }
    }
  }

  size_t num_regions() const override { return members_.size(); }
  size_t num_points() const override { return num_points_; }

  sfa::core::RegionDescriptor Describe(size_t r) const override {
    const auto center = centers_[r / radii_.size()];
    const double radius = radii_[r % radii_.size()];
    sfa::core::RegionDescriptor desc;
    // Report the circle's bounding box so evidence overlap tests work.
    desc.rect = sfa::geo::Rect(center.x - radius, center.y - radius,
                               center.x + radius, center.y + radius);
    desc.label = sfa::StrFormat("circle((%.2f, %.2f), r=%.2f)", center.x,
                                center.y, radius);
    desc.group = static_cast<uint32_t>(r / radii_.size());
    return desc;
  }

  uint64_t PointCount(size_t r) const override { return members_[r].size(); }

  void CountPlanes(const uint64_t* masks, size_t num_planes, uint32_t* out,
                   size_t out_stride) const override {
    // Bits at and above num_planes are not this call's planes.
    const uint64_t live = num_planes == kMaxPlanes
                              ? ~uint64_t{0}
                              : (uint64_t{1} << num_planes) - 1;
    for (size_t r = 0; r < members_.size(); ++r) {
      uint32_t totals[kMaxPlanes] = {};
      for (const uint32_t id : members_[r]) {
        for (uint64_t bits = masks[id] & live; bits != 0; bits &= bits - 1) {
          ++totals[std::countr_zero(bits)];
        }
      }
      for (size_t p = 0; p < num_planes; ++p) {
        out[p * out_stride + r] = totals[p];
      }
    }
  }

  std::string Name() const override {
    return sfa::StrFormat("%zu circles over %zu points", num_regions(),
                          num_points_);
  }

 private:
  std::vector<sfa::geo::Point> centers_;
  std::vector<double> radii_;
  std::vector<std::vector<uint32_t>> members_;
  size_t num_points_;
};

}  // namespace

int main() {
  // Data with a circular biased district: inside radius 1.2 of (7, 7), the
  // positive rate is depressed.
  sfa::Rng rng(99);
  sfa::data::OutcomeDataset dataset("circular-district");
  const sfa::geo::Point district_center(7.0, 7.0);
  for (int i = 0; i < 15000; ++i) {
    const sfa::geo::Point loc(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const bool inside = loc.DistanceTo(district_center) <= 1.2;
    dataset.Add(loc, rng.Bernoulli(inside ? 0.4 : 0.6) ? 1 : 0);
  }

  // Circle family: a lattice of candidate centers x three radii.
  std::vector<sfa::geo::Point> centers;
  for (double x = 1.0; x <= 9.0; x += 1.0) {
    for (double y = 1.0; y <= 9.0; y += 1.0) centers.push_back({x, y});
  }
  CircleFamily family(dataset.locations(), centers, {0.8, 1.2, 1.8});
  std::printf("scanning %s\n", family.Name().c_str());

  sfa::core::AuditOptions options;
  options.alpha = 0.005;
  options.monte_carlo.num_worlds = 499;
  auto result = sfa::core::Auditor(options).Audit(dataset, family);
  SFA_CHECK_OK(result.status());

  std::printf("\n%s",
              sfa::core::FormatAuditSummary(*result, dataset.name()).c_str());
  std::printf("%s", sfa::core::FormatFindingsTable(result->findings, 5).c_str());
  if (!result->findings.empty()) {
    const auto top_center = result->findings[0].rect.Center();
    std::printf("\nTop circle center (%.1f, %.1f) vs planted district (7, 7).\n",
                top_center.x, top_center.y);
  }
  return 0;
}
