#include "spatial/bitvector.h"

#include <bit>
#include <cstring>

#include "common/macros.h"
#include "spatial/simd_popcount.h"

namespace sfa::spatial {

BitVector::BitVector(size_t size) : size_(size), words_((size + 63) / 64, 0ULL) {}

BitVector BitVector::FromBools(const std::vector<uint8_t>& bools) {
  BitVector bv(bools.size());
  for (size_t i = 0; i < bools.size(); ++i) {
    if (bools[i]) bv.Set(i);
  }
  return bv;
}

void BitVector::Reset() { std::fill(words_.begin(), words_.end(), 0ULL); }

void BitVector::AssignFromBytes(const uint8_t* bytes, size_t n) {
  if (size_ != n) {
    size_ = n;
    words_.assign((n + 63) / 64, 0ULL);
  }
  const size_t full_words = n / 64;
  for (size_t w = 0; w < full_words; ++w) {
    uint64_t word = 0;
    const uint8_t* chunk_base = bytes + w * 64;
    for (size_t g = 0; g < 8; ++g) {
      // Gather 8 label bytes at once; the multiply shifts each byte's LSB
      // into the top byte's consecutive bit lanes (little-endian SWAR).
      uint64_t chunk;
      std::memcpy(&chunk, chunk_base + g * 8, 8);
      const uint64_t bits8 =
          ((chunk & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
      word |= bits8 << (g * 8);
    }
    words_[w] = word;
  }
  if (n % 64 != 0) {
    uint64_t word = 0;
    for (size_t i = full_words * 64; i < n; ++i) {
      word |= static_cast<uint64_t>(bytes[i] & 1) << (i & 63);
    }
    words_[full_words] = word;  // tail bits beyond size_ stay zero
  }
}

size_t BitVector::Popcount() const {
  size_t total = 0;
  for (uint64_t w : words_) total += static_cast<size_t>(std::popcount(w));
  return total;
}

size_t BitVector::AndPopcount(const BitVector& a, const BitVector& b) {
  SFA_DCHECK(a.size_ == b.size_);
  return static_cast<size_t>(
      AndPopcountWords(a.words_.data(), b.words_.data(), a.words_.size()));
}

size_t BitVector::AndNotPopcount(const BitVector& a, const BitVector& b) {
  SFA_DCHECK(a.size_ == b.size_);
  size_t total = 0;
  const size_t n = a.words_.size();
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<size_t>(std::popcount(a.words_[i] & ~b.words_[i]));
  }
  return total;
}

void BitVector::OrWith(const BitVector& other) {
  SFA_DCHECK(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void BitVector::AndWith(const BitVector& other) {
  SFA_DCHECK(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

std::vector<uint32_t> BitVector::ToIndices() const {
  std::vector<uint32_t> out;
  out.reserve(Popcount());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out.push_back(static_cast<uint32_t>(w * 64 + static_cast<size_t>(bit)));
      word &= word - 1;
    }
  }
  return out;
}

}  // namespace sfa::spatial
