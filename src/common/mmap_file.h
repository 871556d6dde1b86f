// Read-only memory-mapped file, RAII-owned. The zero-copy warm path
// (core/calibration_store.h LoadView) maps a calibration frame once,
// validates it once, and serves spans straight out of the mapping; POSIX
// keeps the pages alive after an unlink/rename of the path, so concurrent
// eviction or re-Store never invalidates an outstanding mapping — readers
// on the old generation simply keep the old bytes until they drop it.
#ifndef SFA_COMMON_MMAP_FILE_H_
#define SFA_COMMON_MMAP_FILE_H_

#include <cstddef>

#include "common/status.h"

namespace sfa {

/// A read-only mmap of a whole file. Move-only; the mapping is released in
/// the destructor. A zero size maps to a valid object with size() == 0
/// and data() == nullptr (mmap of zero bytes is unspecified, so it is
/// skipped outright).
class MmapFile {
 public:
  /// Maps the first `size` bytes of the open descriptor `fd` read-only
  /// (PROT_READ, MAP_SHARED). The caller keeps owning `fd` and may close it
  /// right away — the mapping keeps the inode alive on its own.
  static Result<MmapFile> Map(int fd, size_t size);

  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const char* data() const { return static_cast<const char*>(data_); }
  size_t size() const { return size_; }
  bool mapped() const { return data_ != nullptr; }

 private:
  MmapFile(void* data, size_t size) : data_(data), size_(size) {}

  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sfa

#endif  // SFA_COMMON_MMAP_FILE_H_
