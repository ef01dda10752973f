#include "net/socket_util.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace jxp {
namespace net {

namespace {

Status ErrnoStatus(const char* what, int err) {
  return Status::IOError(std::string(what) + ": " + strerror(err));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status SetBlocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)", errno);
  const int updated = blocking ? flags & ~O_NONBLOCK : flags | O_NONBLOCK;
  if (::fcntl(fd, F_SETFL, updated) < 0) return ErrnoStatus("fcntl(F_SETFL)", errno);
  return Status::OK();
}

void SetIoTimeouts(int fd, uint64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)", errno);
  }
  return Status::OK();
}

Status CreateLoopbackListener(uint16_t port, UniqueFd* out, uint16_t* bound_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return ErrnoStatus("socket", errno);
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    return ErrnoStatus("setsockopt(SO_REUSEADDR)", errno);
  }
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return ErrnoStatus("bind", errno);
  }
  if (::listen(fd.get(), SOMAXCONN) < 0) return ErrnoStatus("listen", errno);
  if (Status status = SetBlocking(fd.get(), false); !status.ok()) return status;
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) < 0) {
      return ErrnoStatus("getsockname", errno);
    }
    *bound_port = ntohs(actual.sin_port);
  }
  *out = std::move(fd);
  return Status::OK();
}

Status AcceptConnection(int listener_fd, UniqueFd* out) {
  out->reset();
  const int fd = ::accept4(listener_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    if (errno == EINTR || errno == ECONNABORTED) return Status::OK();
    return ErrnoStatus("accept", errno);
  }
  UniqueFd accepted(fd);
  if (Status status = SetBlocking(fd, false); !status.ok()) return status;
  (void)SetNoDelay(fd);  // Best-effort.
  *out = std::move(accepted);
  return Status::OK();
}

Status ConnectLoopback(uint16_t port, UniqueFd* out) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return ErrnoStatus("socket", errno);
  sockaddr_in addr = LoopbackAddr(port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("connect", errno);
  (void)SetNoDelay(fd.get());
  *out = std::move(fd);
  return Status::OK();
}

Status WriteAll(int fd, std::span<const uint8_t> data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", errno);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadExact(int fd, uint8_t* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, buf + done, n - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", errno);
    }
    if (got == 0) return Status::IOError("unexpected EOF");
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

size_t ReadUpTo(int fd, size_t n, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(n);
  uint8_t buf[16384];
  while (out->size() < n) {
    const size_t want = std::min(sizeof(buf), n - out->size());
    const ssize_t got = ::read(fd, buf, want);
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (got == 0) break;
    out->insert(out->end(), buf, buf + got);
  }
  return out->size();
}

}  // namespace net
}  // namespace jxp
