#ifndef JXP_NET_SOCKET_UTIL_H_
#define JXP_NET_SOCKET_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace jxp {
namespace net {

/// Thin RAII + Status wrappers over the POSIX socket calls the networked
/// runtime uses (DESIGN.md §6k). Everything binds to loopback only: the
/// runtime is a local multi-process harness, not an internet-facing server.

/// Owns one file descriptor; closes it on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  explicit operator bool() const { return valid(); }

  /// Releases ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Closes the current fd (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Sets or clears O_NONBLOCK on `fd`.
Status SetBlocking(int fd, bool blocking);

/// Sets SO_RCVTIMEO/SO_SNDTIMEO on a blocking socket, so a stalled partner
/// fails the read or write after `timeout_ms` instead of blocking forever.
void SetIoTimeouts(int fd, uint64_t timeout_ms);

/// Disables Nagle on a TCP socket (meeting handshakes are small
/// request/reply frames; coalescing them only adds latency).
Status SetNoDelay(int fd);

/// Creates a TCP listener bound to 127.0.0.1:`port` (port 0 picks an
/// ephemeral port), non-blocking, SO_REUSEADDR, listening. Reports the
/// actually-bound port in `*bound_port`.
Status CreateLoopbackListener(uint16_t port, UniqueFd* out, uint16_t* bound_port);

/// Accepts one pending connection from a non-blocking listener. When no
/// connection is pending (EAGAIN) returns OK with `*out` left invalid, so
/// level-triggered accept loops can drain until empty without treating
/// "drained" as an error. The accepted socket is non-blocking.
Status AcceptConnection(int listener_fd, UniqueFd* out);

/// Opens a *blocking* TCP connection to 127.0.0.1:`port`. Used by control
/// clients (driver-side) where a synchronous round trip is the point.
Status ConnectLoopback(uint16_t port, UniqueFd* out);

/// Writes all of `data` to a blocking socket (retrying short writes and
/// EINTR). IOError on failure.
Status WriteAll(int fd, std::span<const uint8_t> data);

/// Reads exactly `n` bytes into `buf` from a blocking socket. IOError on
/// failure or premature EOF.
Status ReadExact(int fd, uint8_t* buf, size_t n);

/// Reads up to `n` bytes into `*out` from a blocking socket, stopping early
/// at EOF (the torn-transfer case). Returns the bytes read; a read error
/// counts as EOF at the bytes received so far.
size_t ReadUpTo(int fd, size_t n, std::vector<uint8_t>* out);

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_SOCKET_UTIL_H_
