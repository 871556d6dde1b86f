// Compressed-sparse-row storage over uint32 payloads, built by counting
// sort from unordered (row, value) pairs.
//
// This is the storage backbone of the annulus counting index
// (core/annulus_index.h): one CSR row per region slot (center, annulus rank),
// holding the ids of the points in that annulus, so the offsets double as
// the ladder's rank boundaries. Kept generic — any bipartite incidence whose
// rows and values fit in 32 bits can use it.
#ifndef SFA_SPATIAL_CSR_H_
#define SFA_SPATIAL_CSR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sfa::spatial {

/// Row-major CSR: the values of row r live in
/// values[offsets[r] .. offsets[r + 1]).
struct Csr32 {
  std::vector<uint32_t> offsets;  // num_rows + 1 entries, offsets[0] == 0
  std::vector<uint32_t> values;

  size_t num_rows() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  size_t num_entries() const { return values.size(); }
  /// Heap footprint of the two arrays (the quantity the annulus index's
  /// memory claims are stated in).
  size_t MemoryBytes() const {
    return offsets.capacity() * sizeof(uint32_t) +
           values.capacity() * sizeof(uint32_t);
  }
};

/// Builds a Csr32 from unordered (row, value) pairs in O(num_rows + entries)
/// by counting sort. Within a row, values keep the order they appear in
/// `entries` (the sort is stable), so deterministic input order gives a
/// deterministic layout. Rows must be < num_rows; entry count must fit in
/// uint32 (checked).
Csr32 BuildCsr32(size_t num_rows,
                 const std::vector<std::pair<uint32_t, uint32_t>>& entries);

}  // namespace sfa::spatial

#endif  // SFA_SPATIAL_CSR_H_
