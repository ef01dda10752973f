#include "net/connection_pool.h"

#include <errno.h>
#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace jxp {
namespace net {

ConnectionPool::ConnectionPool(ConnectionPoolOptions options,
                               std::function<uint64_t()> clock_ms)
    : options_(options), clock_ms_(std::move(clock_ms)) {}

bool ConnectionPool::LooksDead(int fd) {
  uint8_t byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;  // Orderly close while pooled.
  if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
  // Unsolicited bytes on an idle request/reply connection: the stream is no
  // longer aligned on a frame boundary, so it cannot carry a meeting.
  return true;
}

void ConnectionPool::Erase(LruList::iterator it) {
  by_port_.erase(it->port);
  lru_.erase(it);  // UniqueFd closes the socket.
}

Status ConnectionPool::DialInto(uint16_t port, int* out_fd) {
  UniqueFd fd;
  if (Status status = ConnectLoopback(port, &fd); !status.ok()) {
    ++stats_.dial_failures;
    return status;
  }
  ++stats_.dials;
  Pooled pooled;
  pooled.fd = std::move(fd);
  pooled.port = port;
  pooled.leased = true;
  pooled.last_used_ms = clock_ms_();
  lru_.push_front(std::move(pooled));
  by_port_[port] = lru_.begin();
  *out_fd = lru_.begin()->fd.get();
  return Status::OK();
}

Status ConnectionPool::Acquire(uint16_t port, int* out_fd, bool* out_reused) {
  *out_reused = false;
  const auto found = by_port_.find(port);
  if (found != by_port_.end()) {
    const LruList::iterator it = found->second;
    JXP_CHECK(!it->leased) << "second lease of the pooled connection to port " << port;
    if (!LooksDead(it->fd.get())) {
      it->leased = true;
      it->last_used_ms = clock_ms_();
      lru_.splice(lru_.begin(), lru_, it);  // Move to MRU.
      *out_fd = it->fd.get();
      *out_reused = true;
      ++stats_.reuses;
      return Status::OK();
    }
    // The peer tore the connection down while it sat in the pool. This is
    // lifecycle, not a failed connect: count it as half-open + redial and
    // replace it transparently.
    ++stats_.half_open_detected;
    Erase(it);
    ++stats_.redials;
    return DialInto(port, out_fd);
  }

  if (lru_.size() >= options_.max_connections) {
    // Evict the least-recently-used idle connection to make room.
    const auto victim = std::find_if(lru_.rbegin(), lru_.rend(),
                                     [](const Pooled& pooled) { return !pooled.leased; });
    JXP_CHECK(victim != lru_.rend()) << "every pooled connection is leased";
    ++stats_.evictions_lru;
    Erase(std::next(victim).base());
  }
  return DialInto(port, out_fd);
}

void ConnectionPool::Release(uint16_t port, bool healthy) {
  const auto found = by_port_.find(port);
  if (found == by_port_.end()) return;
  const LruList::iterator it = found->second;
  it->leased = false;
  if (!healthy) {
    ++stats_.released_broken;
    Erase(it);
    return;
  }
  it->last_used_ms = clock_ms_();
}

size_t ConnectionPool::SweepIdle() {
  if (options_.idle_timeout_ms == 0) return 0;
  const uint64_t now = clock_ms_();
  size_t closed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const auto next = std::next(it);
    const uint64_t idle = now >= it->last_used_ms ? now - it->last_used_ms : 0;
    if (!it->leased && idle >= options_.idle_timeout_ms) {
      ++stats_.evictions_idle;
      Erase(it);
      ++closed;
    }
    it = next;
  }
  return closed;
}

size_t ConnectionPool::CloseAll() {
  size_t closed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const auto next = std::next(it);
    if (!it->leased) {
      Erase(it);
      ++closed;
    }
    it = next;
  }
  return closed;
}

}  // namespace net
}  // namespace jxp
