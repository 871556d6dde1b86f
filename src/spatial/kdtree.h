// Static 2-d KD-tree over a point set, supporting rectangle range counting,
// range reporting, closed-ball reporting and nearest-neighbor queries. The
// tree is built once (median splits, O(n log n)) and is immutable
// afterwards; subtree sizes are stored so fully-covered subtrees count in
// O(1), giving the O(sqrt(n) + k) classic range-search bound.
//
// Rectangle semantics are half-open (geo::Rect::Contains).
#ifndef SFA_SPATIAL_KDTREE_H_
#define SFA_SPATIAL_KDTREE_H_

#include <cstdint>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"

namespace sfa::spatial {

class KdTree {
 public:
  KdTree() = default;

  /// Builds a tree over `points`. Point ids are indices into this vector and
  /// are preserved across queries. The point vector is copied.
  explicit KdTree(std::vector<geo::Point> points);

  size_t size() const { return points_.size(); }
  const std::vector<geo::Point>& points() const { return points_; }

  /// Number of points inside `rect`.
  size_t CountInRect(const geo::Rect& rect) const;

  /// Ids of all points inside `rect`, in unspecified order.
  std::vector<uint32_t> ReportRect(const geo::Rect& rect) const;

  /// Invokes visitor(id) for every point inside `rect`.
  template <typename Visitor>
  void VisitRect(const geo::Rect& rect, Visitor&& visitor) const {
    if (!nodes_.empty()) {
      VisitRecursive(0, bounds_, rect, visitor);
    }
  }

  /// Id of the nearest point to `query` (Euclidean). Requires size() > 0.
  uint32_t Nearest(const geo::Point& query) const;

  /// Ids of the k nearest points to `query`, ordered by increasing distance
  /// (ties broken arbitrarily). Requires 1 <= k <= size().
  std::vector<uint32_t> KNearest(const geo::Point& query, size_t k) const;

  /// Invokes visitor(id) for every point p with
  /// query.DistanceSquaredTo(p) <= radius_sq, the closed ball in the
  /// expression KNearest ranks by, in unspecified order.
  template <typename Visitor>
  void VisitBall(const geo::Point& query, double radius_sq,
                 Visitor&& visitor) const {
    if (!nodes_.empty()) VisitBallRecursive(0, query, radius_sq, visitor);
  }

 private:
  struct Node {
    // Children are at 2i+1 / 2i+2 in an implicit layout only for a perfectly
    // balanced tree; we store explicit links because median splits on
    // duplicate coordinates can unbalance slightly.
    int32_t left = -1;
    int32_t right = -1;
    uint32_t begin = 0;   // range [begin, end) into ids_ covered by this node
    uint32_t end = 0;
    uint32_t split_id = 0;  // the point stored at this node
    uint8_t axis = 0;       // 0 = x, 1 = y
  };

  int32_t Build(uint32_t begin, uint32_t end, int depth);
  void CountRecursive(int32_t node, const geo::Rect& node_bounds,
                      const geo::Rect& query, size_t* count) const;

  template <typename Visitor>
  void VisitRecursive(int32_t node_index, const geo::Rect& node_bounds,
                      const geo::Rect& query, Visitor&& visitor) const {
    const Node& node = nodes_[static_cast<size_t>(node_index)];
    if (!node_bounds.Intersects(query)) return;
    if (query.ContainsRect(node_bounds)) {
      for (uint32_t i = node.begin; i < node.end; ++i) visitor(ids_[i]);
      return;
    }
    const geo::Point& p = points_[node.split_id];
    if (query.Contains(p)) visitor(node.split_id);
    geo::Rect left_bounds = node_bounds;
    geo::Rect right_bounds = node_bounds;
    if (node.axis == 0) {
      left_bounds.max_x = p.x;
      right_bounds.min_x = p.x;
    } else {
      left_bounds.max_y = p.y;
      right_bounds.min_y = p.y;
    }
    if (node.left >= 0) VisitRecursive(node.left, left_bounds, query, visitor);
    if (node.right >= 0) VisitRecursive(node.right, right_bounds, query, visitor);
  }

  template <typename Visitor>
  void VisitBallRecursive(int32_t node_index, const geo::Point& query,
                          double radius_sq, Visitor&& visitor) const {
    const Node& node = nodes_[static_cast<size_t>(node_index)];
    const geo::Point& p = points_[node.split_id];
    if (query.DistanceSquaredTo(p) <= radius_sq) visitor(node.split_id);
    // Every point of the far subtree is at least |delta| away on the split
    // axis, so its distance² is at least delta², also after rounding.
    const double delta = node.axis == 0 ? query.x - p.x : query.y - p.y;
    const int32_t near_child = delta < 0 ? node.left : node.right;
    const int32_t far_child = delta < 0 ? node.right : node.left;
    if (near_child >= 0) {
      VisitBallRecursive(near_child, query, radius_sq, visitor);
    }
    if (far_child >= 0 && delta * delta <= radius_sq) {
      VisitBallRecursive(far_child, query, radius_sq, visitor);
    }
  }

  void NearestRecursive(int32_t node_index, const geo::Point& query,
                        uint32_t* best_id, double* best_dist_sq) const;

  // Bounded max-heap of (distance², id) used by KNearest.
  struct HeapEntry {
    double dist_sq;
    uint32_t id;
    bool operator<(const HeapEntry& other) const {
      return dist_sq < other.dist_sq;
    }
  };
  void KNearestRecursive(int32_t node_index, const geo::Point& query, size_t k,
                         std::vector<HeapEntry>* heap) const;

  std::vector<geo::Point> points_;
  std::vector<uint32_t> ids_;  // permutation of point ids in tree order
  std::vector<Node> nodes_;
  geo::Rect bounds_;
};

}  // namespace sfa::spatial

#endif  // SFA_SPATIAL_KDTREE_H_
