#include "net/connection_pool.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/status.h"
#include "net/socket_util.h"

namespace jxp {
namespace net {
namespace {

/// A loopback listener the pool can dial. Connections sit in the accept
/// backlog until a test calls Accept() to take the server end (needed only
/// by the half-open tests, which manipulate the server side of a pooled
/// connection).
struct Listener {
  Listener() {
    const Status status = CreateLoopbackListener(0, &fd, &port);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  /// Retries the non-blocking accept until the pending connect shows up.
  UniqueFd Accept() {
    for (int i = 0; i < 400; ++i) {
      UniqueFd conn;
      const Status status = AcceptConnection(fd.get(), &conn);
      EXPECT_TRUE(status.ok()) << status.ToString();
      if (conn.valid()) return conn;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "no pending connection to accept";
    return UniqueFd();
  }

  UniqueFd fd;
  uint16_t port = 0;
};

/// FIN/data delivery on loopback is fast but not synchronous with the
/// test thread; give the kernel a beat before peeking.
void SettleSocket() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

TEST(ConnectionPoolTest, DialThenReuse) {
  Listener server;
  uint64_t now = 0;
  ConnectionPool pool({}, [&] { return now; });

  int fd = -1;
  bool reused = true;
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  EXPECT_FALSE(reused);
  EXPECT_GE(fd, 0);
  pool.Release(server.port, /*healthy=*/true);

  int fd2 = -1;
  ASSERT_TRUE(pool.Acquire(server.port, &fd2, &reused).ok());
  EXPECT_TRUE(reused);
  EXPECT_EQ(fd2, fd) << "a reuse must hand back the pooled socket";
  pool.Release(server.port, /*healthy=*/true);

  EXPECT_EQ(pool.stats().dials, 1u);
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.stats().dial_failures, 0u);
  EXPECT_EQ(pool.open_connections(), 1u);
}

TEST(ConnectionPoolDeathTest, SecondLeaseOfALeasedConnectionAborts) {
  // A daemon lease runs Acquire -> blocking IO -> Release inside one loop
  // callback, so a second Acquire of a leased connection is a caller bug.
  Listener server;
  uint64_t now = 0;
  ConnectionPool pool({}, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  EXPECT_DEATH((void)pool.Acquire(server.port, &fd, &reused), "second lease");

  pool.Release(server.port, /*healthy=*/true);
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  EXPECT_TRUE(reused) << "a released connection is leasable again";
  pool.Release(server.port, /*healthy=*/true);
}

TEST(ConnectionPoolTest, UnhealthyReleaseClosesTheConnection) {
  Listener server;
  uint64_t now = 0;
  ConnectionPool pool({}, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  pool.Release(server.port, /*healthy=*/false);

  EXPECT_EQ(pool.stats().released_broken, 1u);
  EXPECT_EQ(pool.open_connections(), 0u);

  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  EXPECT_FALSE(reused) << "a broken release must not be reused";
  EXPECT_EQ(pool.stats().dials, 2u);
  pool.Release(server.port, /*healthy=*/true);
}

TEST(ConnectionPoolTest, PeerCloseWhilePooledIsHalfOpenNotDialFailure) {
  Listener server;
  uint64_t now = 0;
  ConnectionPool pool({}, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  pool.Release(server.port, /*healthy=*/true);

  // The peer accepts and immediately closes: the pooled connection is now
  // half-open. The next acquire must detect it, count it as lifecycle (not
  // a failed connect), and transparently dial a replacement.
  { UniqueFd conn = server.Accept(); }
  SettleSocket();

  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  EXPECT_FALSE(reused);
  EXPECT_EQ(pool.stats().half_open_detected, 1u);
  EXPECT_EQ(pool.stats().redials, 1u);
  EXPECT_EQ(pool.stats().dials, 2u);
  EXPECT_EQ(pool.stats().dial_failures, 0u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  pool.Release(server.port, /*healthy=*/true);
}

TEST(ConnectionPoolTest, StrayBytesOnPooledConnectionMeanDead) {
  Listener server;
  uint64_t now = 0;
  ConnectionPool pool({}, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  pool.Release(server.port, /*healthy=*/true);

  // Unsolicited bytes while idle: the stream is no longer aligned on a
  // frame boundary, so the pool must treat it like a dead connection even
  // though the socket itself is healthy.
  UniqueFd conn = server.Accept();
  const uint8_t stray = 0x5a;
  ASSERT_TRUE(WriteAll(conn.get(), {&stray, 1}).ok());
  SettleSocket();

  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  EXPECT_FALSE(reused);
  EXPECT_EQ(pool.stats().half_open_detected, 1u);
  EXPECT_EQ(pool.stats().redials, 1u);
  EXPECT_EQ(pool.stats().dial_failures, 0u);
  pool.Release(server.port, /*healthy=*/true);
}

TEST(ConnectionPoolTest, ConnectionRefusedCountsDialFailure) {
  uint16_t dead_port = 0;
  {
    Listener ephemeral;
    dead_port = ephemeral.port;
  }  // Listener closed: the port now refuses connections.

  uint64_t now = 0;
  ConnectionPool pool({}, [&] { return now; });

  int fd = -1;
  bool reused = false;
  const Status status = pool.Acquire(dead_port, &fd, &reused);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.code(), StatusCode::kFailedPrecondition)
      << "a refused connect is a dial failure, not back-pressure";
  EXPECT_EQ(pool.stats().dial_failures, 1u);
  EXPECT_EQ(pool.stats().dials, 0u);
  EXPECT_EQ(pool.open_connections(), 0u);
}

TEST(ConnectionPoolTest, LruEvictionPrefersTheColdestIdleConnection) {
  Listener s1, s2, s3;
  ConnectionPoolOptions options;
  options.max_connections = 2;
  uint64_t now = 0;
  ConnectionPool pool(options, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(s1.port, &fd, &reused).ok());
  pool.Release(s1.port, true);
  now = 10;
  ASSERT_TRUE(pool.Acquire(s2.port, &fd, &reused).ok());
  pool.Release(s2.port, true);

  // At the cap; s1 is the coldest idle connection and must be the victim.
  now = 20;
  ASSERT_TRUE(pool.Acquire(s3.port, &fd, &reused).ok());
  pool.Release(s3.port, true);
  EXPECT_EQ(pool.stats().evictions_lru, 1u);
  EXPECT_EQ(pool.open_connections(), 2u);

  ASSERT_TRUE(pool.Acquire(s2.port, &fd, &reused).ok());
  EXPECT_TRUE(reused) << "the warmer connection must survive the eviction";
  pool.Release(s2.port, true);

  ASSERT_TRUE(pool.Acquire(s1.port, &fd, &reused).ok());
  EXPECT_FALSE(reused) << "the evicted connection must need a fresh dial";
  EXPECT_EQ(pool.stats().evictions_lru, 2u);
  pool.Release(s1.port, true);
}

TEST(ConnectionPoolTest, SweepIdleExpiresOnTheInjectedClock) {
  Listener server;
  ConnectionPoolOptions options;
  options.idle_timeout_ms = 100;
  uint64_t now = 0;
  ConnectionPool pool(options, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  pool.Release(server.port, true);  // last_used = 0

  now = 99;
  EXPECT_EQ(pool.SweepIdle(), 0u);
  now = 100;
  EXPECT_EQ(pool.SweepIdle(), 1u);
  EXPECT_EQ(pool.stats().evictions_idle, 1u);
  EXPECT_EQ(pool.open_connections(), 0u);
}

TEST(ConnectionPoolTest, SweepIdleSparesInFlightConnections) {
  Listener server;
  ConnectionPoolOptions options;
  options.idle_timeout_ms = 100;
  uint64_t now = 0;
  ConnectionPool pool(options, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());

  now = 1000;
  EXPECT_EQ(pool.SweepIdle(), 0u) << "a leased connection must never be swept";
  EXPECT_EQ(pool.open_connections(), 1u);
  pool.Release(server.port, true);
}

TEST(ConnectionPoolTest, ZeroIdleTimeoutNeverExpires) {
  Listener server;
  ConnectionPoolOptions options;
  options.idle_timeout_ms = 0;
  uint64_t now = 0;
  ConnectionPool pool(options, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(server.port, &fd, &reused).ok());
  pool.Release(server.port, true);

  now = 1u << 30;
  EXPECT_EQ(pool.SweepIdle(), 0u);
  EXPECT_EQ(pool.open_connections(), 1u);
}

TEST(ConnectionPoolTest, CloseAllClosesIdleAndLeavesLeased) {
  Listener s1, s2;
  uint64_t now = 0;
  ConnectionPool pool({}, [&] { return now; });

  int fd = -1;
  bool reused = false;
  ASSERT_TRUE(pool.Acquire(s1.port, &fd, &reused).ok());  // held in flight
  int fd2 = -1;
  ASSERT_TRUE(pool.Acquire(s2.port, &fd2, &reused).ok());
  pool.Release(s2.port, true);  // idle

  EXPECT_EQ(pool.CloseAll(), 1u);
  EXPECT_EQ(pool.open_connections(), 1u) << "the leased connection waits for Release";

  pool.Release(s1.port, true);
  EXPECT_EQ(pool.CloseAll(), 1u);
  EXPECT_EQ(pool.open_connections(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace jxp
