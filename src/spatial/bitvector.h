// Dynamic fixed-length bit vector: one bit per point, packed 64 to a word.
//
// Labels::bits() is a label world's BitVector view, for callers that want
// the packed bits themselves; no region family counts through it (counting
// goes through RegionFamily::CountPlanes on mask words).
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
