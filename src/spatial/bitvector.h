// Dynamic fixed-length bit vector with hardware popcount.
//
// User-defined region families can memoize a region's membership as a
// BitVector over point ids and count a world through Labels::bits():
// p(R) = AndPopcount(membership, labels) — one AND + POPCNT per 64 points,
// through the runtime-dispatched kernel of spatial/simd_popcount.h.
#ifndef SFA_SPATIAL_BITVECTOR_H_
#define SFA_SPATIAL_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sfa::spatial {

class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `size` bits, all zero.
  explicit BitVector(size_t size);

  /// Builds from a bool vector (bit i = bools[i]).
  static BitVector FromBools(const std::vector<uint8_t>& bools);

  /// Rebuilds the vector from `n` 0/1 bytes, packing one 64-bit word per 8
  /// byte-loads (SWAR, no per-bit read-modify-write) and reusing existing
  /// word storage when the size already matches — the allocation-free refill
  /// path of the Monte Carlo label pool.
  void AssignFromBytes(const uint8_t* bytes, size_t n);

  size_t size() const { return size_; }
  size_t num_words() const { return words_.size(); }

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  void Clear(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  /// Sets all bits to zero without changing the size.
  void Reset();

  /// Number of set bits.
  size_t Popcount() const;

  /// Number of positions set in both `a` and `b`. Sizes must match.
  static size_t AndPopcount(const BitVector& a, const BitVector& b);

  /// Number of positions set in `a` but not in `b`. Sizes must match.
  static size_t AndNotPopcount(const BitVector& a, const BitVector& b);

  /// In-place OR with `other` (sizes must match).
  void OrWith(const BitVector& other);

  /// In-place AND with `other` (sizes must match).
  void AndWith(const BitVector& other);

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> ToIndices() const;

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  const uint64_t* words() const { return words_.data(); }

 private:
  // Bits beyond size_ in the last word are maintained as zero so popcounts
  // need no masking.
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace sfa::spatial

#endif  // SFA_SPATIAL_BITVECTOR_H_
