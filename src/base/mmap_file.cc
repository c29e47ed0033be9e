#include "base/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "base/failpoint.h"

namespace tso {

StatusOr<MmapFile> MmapFile::Open(const std::string& path) {
  TSO_FAILPOINT("mmap.open");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " + err);
  }
  MmapFile out;
  out.size_ = static_cast<size_t>(st.st_size);
  if (out.size_ > 0) {
    void* mapped = ::mmap(nullptr, out.size_, PROT_READ, MAP_SHARED, fd, 0);
    if (mapped == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IoError("cannot mmap " + path + ": " + err);
    }
    out.data_ = mapped;
    // Asynchronous readahead hint: starts faulting pages in the background
    // without blocking Open on a full-file read the way MAP_POPULATE would
    // — open stays O(1) in the file size even on a cold cache, while
    // cache-warm opens avoid most per-page minor faults. Best-effort.
    (void)::madvise(mapped, out.size_, MADV_WILLNEED);
  }
  // The mapping keeps its own reference to the file; the descriptor is no
  // longer needed.
  ::close(fd);
  return out;
}

MmapFile::~MmapFile() { Close(); }

void MmapFile::Close() {
  if (data_ != nullptr) ::munmap(data_, size_);
  data_ = nullptr;
  size_ = 0;
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Close();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace tso
