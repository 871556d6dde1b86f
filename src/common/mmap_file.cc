#include "common/mmap_file.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace sfa {

Result<MmapFile> MmapFile::Map(int fd, size_t size) {
  if (size == 0) return MmapFile(nullptr, 0);
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (data == MAP_FAILED) {
    return Status::IOError(StrFormat("cannot mmap %zu bytes: %s", size,
                                     std::strerror(errno)));
  }
  return MmapFile(data, size);
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace sfa
