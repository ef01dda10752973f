#ifndef JXP_NET_CONNECTION_POOL_H_
#define JXP_NET_CONNECTION_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "common/status.h"
#include "net/socket_util.h"

namespace jxp {
namespace net {

struct ConnectionPoolOptions {
  /// Maximum pooled connections (at least 1). Acquiring past the cap evicts
  /// the least-recently-used idle connection.
  size_t max_connections = 16;
  /// Idle connections older than this are closed by SweepIdle (the daemon
  /// arms a sweep timer at half this period). 0 = never expire.
  uint64_t idle_timeout_ms = 30000;
};

/// Teardown and reuse accounting. A pooled connection that dies *between*
/// meetings is a `half_open_detected` (plus one `redials` when the
/// transparent replacement dial happens) — never a `dial_failures`: the
/// remote end tearing down an idle connection is normal lifecycle, not a
/// failed connect, and the two must stay distinguishable in telemetry
/// (the net-stats pool_* fields, docs/METRICS.md).
struct ConnectionPoolStats {
  /// Fresh TCP connects made on behalf of callers (includes redials).
  uint64_t dials = 0;
  /// Fresh connects that failed (connection refused / timeout).
  uint64_t dial_failures = 0;
  /// Acquires served from the pool without a new connect.
  uint64_t reuses = 0;
  /// Pooled connections found dead at acquire (EOF/error/stray bytes on the
  /// pre-reuse peek).
  uint64_t half_open_detected = 0;
  /// Fresh dials made to transparently replace a dead pooled connection
  /// (at-acquire detection, or the caller's one first-write retry).
  uint64_t redials = 0;
  /// Idle connections closed by the sweep timer.
  uint64_t evictions_idle = 0;
  /// Idle connections closed to make room under max_connections.
  uint64_t evictions_lru = 0;
  /// Connections the caller released as unhealthy (mid-meeting IO error).
  uint64_t released_broken = 0;
};

/// Keeps outbound peer connections alive across meetings (DESIGN.md §6l),
/// replacing the dial-per-meeting path. Keyed by loopback port (the
/// daemon's partner address); at most one connection per port. Single
/// threaded — lives on the daemon's event-loop thread, like everything else
/// in the daemon.
///
/// Lifecycle of an acquire:
///   1. A pooled connection exists: peek for half-open (the peer may have
///      closed it while idle). Healthy -> reuse; dead -> count
///      half_open_detected, close, transparently re-dial once (counted in
///      both dials and redials).
///   2. No pooled connection: evict the LRU idle connection when at the
///      cap, then dial fresh.
///
/// A connection carries one lease at a time. The daemon runs each lease
/// (Acquire, blocking IO, Release) inside one loop callback, so a second
/// Acquire of a leased connection is a caller bug and aborts.
class ConnectionPool {
 public:
  /// `clock_ms` supplies the monotonic time used for idle accounting
  /// (the daemon passes the event loop's NowMs).
  ConnectionPool(ConnectionPoolOptions options, std::function<uint64_t()> clock_ms);

  /// Leases a connection to 127.0.0.1:`port`. On OK, `*out_fd` is a
  /// connected blocking socket and `*out_reused` says whether it came from
  /// the pool. Every successful Acquire must be paired with a Release
  /// before the next Acquire of the same port.
  Status Acquire(uint16_t port, int* out_fd, bool* out_reused);

  /// Ends a lease. `healthy=false` closes the connection (the caller hit an
  /// IO error on it); otherwise it returns to the pool with a fresh idle
  /// timestamp.
  void Release(uint16_t port, bool healthy);

  /// Counts the caller-driven retry dial after a first-write failure on a
  /// reused connection (the Acquire that follows does the dialing; this
  /// marks it as a redial rather than an ordinary dial).
  void NoteRedial() { ++stats_.redials; }

  /// Closes idle connections older than idle_timeout_ms. Returns how many.
  size_t SweepIdle();

  /// Closes every idle pooled connection (drain / shutdown). Connections
  /// currently leased are left to their Release.
  size_t CloseAll();

  size_t open_connections() const { return lru_.size(); }
  const ConnectionPoolStats& stats() const { return stats_; }

 private:
  struct Pooled {
    UniqueFd fd;
    uint16_t port = 0;
    bool leased = false;
    uint64_t last_used_ms = 0;
  };
  using LruList = std::list<Pooled>;

  /// True when the socket shows EOF, an error, or unsolicited bytes on a
  /// non-blocking peek — all grounds for not trusting it with a meeting.
  static bool LooksDead(int fd);
  void Erase(LruList::iterator it);
  Status DialInto(uint16_t port, int* out_fd);

  ConnectionPoolOptions options_;
  std::function<uint64_t()> clock_ms_;
  /// Front = most recently used. Iterators are stable across splices.
  LruList lru_;
  std::unordered_map<uint16_t, LruList::iterator> by_port_;
  ConnectionPoolStats stats_;
};

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_CONNECTION_POOL_H_
