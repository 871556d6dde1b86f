// Dual-representation label sets for the Monte Carlo loop.
//
// Different region families want different label layouts: grid-aligned
// families accumulate per-cell counts from a byte array in one O(N) pass,
// while memoized square-scan families intersect a label *bit vector* with
// per-region membership bit vectors via popcount. A Labels instance keeps the
// byte view authoritative and materializes the bit view lazily (word-packed,
// not bit-by-bit) on first use, so audits whose families never touch bits —
// e.g. grid-only audits — never pay for it.
#ifndef SFA_CORE_LABELS_H_
#define SFA_CORE_LABELS_H_

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.h"
#include "spatial/bitvector.h"

namespace sfa::core {

/// The permutation null's draw (Kulldorff 1997): a partial Fisher–Yates
/// shuffle of the point ids 0..n−1 whose first `positives` slots are the
/// positive points. Calls mark(id) for each of them in draw order; `ids` is
/// the shuffle buffer, n entries. The generator runs on a local copy, so its
/// state stays in registers across the buffer's stores. The one definition
/// of the draw: SamplePermutationLanes (core/lane_sampler.h) steps it 8
/// worlds at a time.
template <typename Mark>
void DrawPermutationPositives(size_t n, uint64_t positives, Rng* rng,
                              uint32_t* ids, Mark mark) {
  std::iota(ids, ids + n, 0u);
  Rng local = *rng;
  for (uint64_t i = 0; i < positives; ++i) {
    const uint64_t j = i + local.NextUint64(n - i);
    std::swap(ids[i], ids[j]);
    mark(ids[i]);
  }
  *rng = local;
}

class Labels {
 public:
  Labels() = default;

  /// Builds from a 0/1 byte vector (the bit view stays lazy). Aborts on any
  /// other byte value, in every build.
  static Labels FromBytes(std::vector<uint8_t> bytes);

  /// In-place copy-assignment from a 0/1 byte span, reusing existing storage
  /// and invalidating the cached bit/sparse views — the pooled-scratch
  /// counterpart of FromBytes for contexts (e.g. the audit pipeline) that
  /// materialize many observed worlds on one recycled instance. Aborts on any
  /// byte other than 0/1, like FromBytes.
  void AssignBytes(const uint8_t* bytes, size_t n);

  /// Null-world generator, unconditional variant (the paper's §3): each
  /// point's label is an independent Bernoulli(rho) trial.
  static Labels SampleBernoulli(size_t n, double rho, Rng* rng);

  /// Null-world generator, conditional variant (Kulldorff 1997): exactly
  /// `positives` labels set to 1, positions chosen uniformly at random
  /// (permutation null). Provided for comparison ablations.
  static Labels SamplePermutation(size_t n, uint64_t positives, Rng* rng);

  /// In-place Bernoulli resampling reusing existing storage: after the first
  /// call on a pooled instance, drawing a world allocates nothing. Consumes
  /// exactly the same RNG stream as SampleBernoulli, and the same as n calls
  /// of rng->Bernoulli(rho): one draw per point for rho in (0, 1) or NaN
  /// (NaN labels every point 0), none for rho <= 0 or rho >= 1.
  void ResampleBernoulli(size_t n, double rho, Rng* rng);

  /// In-place permutation resampling (same stream as SamplePermutation).
  /// `order_scratch` (optional) supplies the shuffle buffer so pooled callers
  /// avoid its allocation too.
  void ResamplePermutation(size_t n, uint64_t positives, Rng* rng,
                           std::vector<uint32_t>* order_scratch = nullptr);

  size_t size() const { return bytes_.size(); }
  uint64_t positive_count() const { return positive_count_; }
  double positive_rate() const {
    return bytes_.empty() ? 0.0
                          : static_cast<double>(positive_count_) / bytes_.size();
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

  /// The bit view, built word-at-a-time on first access and cached until the
  /// next resample. NOT thread-safe for the *first* call on a shared
  /// instance; materialize before sharing across threads (the Monte Carlo
  /// engine's label pools are thread-local, so worlds never race here).
  const spatial::BitVector& bits() const {
    if (!bits_valid_) BuildBits();
    return bits_;
  }

  /// The sparse view: ascending ids of the positive points, built from the
  /// byte view on first access in one branch-free pass, cached until the
  /// next resample and reusing its capacity across resamples on pooled
  /// instances. No counting path needs it (the annulus gather reads the
  /// bytes); it serves callers that want the positive ids themselves.
  /// Same thread-safety contract as bits(): pre-materialize before sharing one
  /// instance across threads.
  const std::vector<uint32_t>& positive_indices() const {
    if (!positives_valid_) BuildPositiveIndices();
    return positive_indices_;
  }

 private:
  void BuildBits() const;
  void BuildPositiveIndices() const;

  std::vector<uint8_t> bytes_;
  mutable spatial::BitVector bits_;
  mutable std::vector<uint32_t> positive_indices_;
  mutable bool bits_valid_ = false;
  mutable bool positives_valid_ = false;
  uint64_t positive_count_ = 0;
};

}  // namespace sfa::core

#endif  // SFA_CORE_LABELS_H_
