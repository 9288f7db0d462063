#include "support/read_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace riscmp::support {

namespace {

/// Fill `out` from `fd` until EOF. A regular file is sized up front, so its
/// bytes arrive in one read; anything else (a pipe, a /proc file that
/// reports size 0) grows the buffer as it goes.
bool readAll(int fd, std::string& out) {
  struct stat info {};
  if (::fstat(fd, &info) != 0) return false;
  const bool sized = S_ISREG(info.st_mode) && info.st_size > 0;
  out.resize(sized ? static_cast<std::size_t>(info.st_size) : 4096);
  std::size_t filled = 0;
  for (;;) {
    if (filled == out.size()) {
      if (sized) break;  // the size fstat reported: the whole file
      out.resize(out.size() * 2);
    }
    const ssize_t n = ::read(fd, out.data() + filled, out.size() - filled);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) break;
    filled += static_cast<std::size_t>(n);
  }
  out.resize(filled);
  return true;
}

}  // namespace

std::string readWholeFile(const std::string& path, bool* opened) {
  std::string bytes;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  const bool ok = fd >= 0 && readAll(fd, bytes);
  if (fd >= 0) ::close(fd);
  if (!ok) bytes.clear();
  if (opened != nullptr) *opened = ok;
  return bytes;
}

}  // namespace riscmp::support
