#include "base/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/failpoint.h"

namespace tso {

namespace {

/// Closes the wrapped descriptor unless released first.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  int Release() {
    int out = fd;
    fd = -1;
    return out;
  }
};

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

Status WriteFileAtomicImpl(const std::string& path, const std::string& tmp,
                           std::string_view data) {
  TSO_FAILPOINT("atomicfile.open");
  Fd fd;
  fd.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd.fd < 0) return Errno("cannot open", tmp);

  TSO_FAILPOINT("atomicfile.write");
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd.fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write failed:", tmp);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }

  TSO_FAILPOINT("atomicfile.fsync");
  if (::fsync(fd.fd) != 0) return Errno("fsync failed:", tmp);
  if (::close(fd.Release()) != 0) return Errno("close failed:", tmp);

  TSO_FAILPOINT("atomicfile.rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename failed:", path);
  }

  // The new file is visible from here on; the directory fsync only confirms
  // the rename survives power loss.
  TSO_FAILPOINT("atomicfile.dirsync");
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  Fd dirfd;
  dirfd.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd.fd < 0) return Errno("cannot open directory", dir);
  if (::fsync(dirfd.fd) != 0) return Errno("fsync failed on directory", dir);
  return Status::Ok();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  Status s = WriteFileAtomicImpl(path, tmp, data);
  if (!s.ok()) ::unlink(tmp.c_str());  // best-effort; may already be renamed
  return s;
}

}  // namespace tso
