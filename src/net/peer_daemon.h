#ifndef JXP_NET_PEER_DAEMON_H_
#define JXP_NET_PEER_DAEMON_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/jxp_peer.h"
#include "net/connection_pool.h"
#include "net/event_loop.h"
#include "net/meeting_scheduler.h"
#include "net/net_protocol.h"
#include "net/peer_directory.h"
#include "net/socket_util.h"
#include "wire/frame_assembler.h"

namespace jxp {
namespace net {

struct PeerDaemonOptions {
  /// Port to bind (0 = ephemeral; read back via bound_port()).
  uint16_t listen_port = 0;
  /// Port announced to other peers in Hello/gossip. 0 = the bound port.
  /// Under the chaos proxy this is the proxy's port, so meeting traffic
  /// routes through the fault injector while control stays direct.
  uint16_t advertised_port = 0;
  /// Initial directory contents (the seed list).
  std::vector<GossipEntry> seed_peers;
  /// Checkpoint target of the shutdown path; empty = checkpointing
  /// disabled.
  std::string state_path;
  /// Autonomous meeting mode (DESIGN.md §6l). scheduler.enabled=false is
  /// the driver-replay mode the oracle bit-identity comparison uses:
  /// meetings happen only on kMeetCommand.
  MeetingSchedulerOptions scheduler;
  /// Gossip (kPeerExchange) cadence; 0 = off. Staleness eviction
  /// (kDirectoryStalenessMs) runs on the same tick.
  uint64_t gossip_interval_ms = 0;
  /// Deadline of each blocking outbound dial (meetings, gossip) and of
  /// reply writes. A two-daemon dial collision resolves as one side's
  /// timeout (counted as a failed meeting), never a deadlock.
  uint64_t io_timeout_ms = 5000;
  /// Seed of the daemon's partner/gossip sampling stream.
  uint64_t rng_seed = 1;
  /// When >= 0, the daemon watches this fd: one readable byte triggers
  /// graceful shutdown (quiesce -> checkpoint -> goodbyes -> loop stop).
  /// The daemon binary points its SIGTERM handler at a self-pipe wired
  /// here; tests write the byte directly.
  int shutdown_fd = -1;
  /// Send best-effort kGoodbye frames to live directory peers on shutdown.
  bool goodbye_on_shutdown = true;
};

/// Plain counters of one daemon's network activity. Outbound connects are
/// counted by the pool alone (ConnectionPoolStats::dials/dial_failures).
/// BuildNetStats() reports these, the pool's and the scheduler's counters
/// as net-stats, the daemon's one counter surface (docs/METRICS.md).
struct DaemonStats {
  uint64_t accepts = 0;
  uint64_t meetings_initiated = 0;
  uint64_t meetings_accepted = 0;
  uint64_t meetings_declined = 0;
  uint64_t meeting_failures = 0;
  /// Blob transfers that ended early (EOF mid-blob): the receiver salvaged
  /// a prefix. One count per dropped-or-truncated blob.
  uint64_t truncations_detected = 0;
  /// Blobs that arrived complete but failed decoding (bit damage caught by
  /// the frame checksums).
  uint64_t corruptions_detected = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  /// Received bytes that decoding rejected (wasted traffic).
  uint64_t wasted_bytes = 0;
  uint64_t gossip_exchanges = 0;
  uint64_t directory_evictions = 0;
  uint64_t checkpoints = 0;
  uint64_t protocol_errors = 0;
};

/// One JXP peer as a network server (DESIGN.md §6k): owns a JxpPeer, a
/// loopback listener, and a gossip directory; speaks the net protocol over
/// an EventLoop. Single-threaded — every callback runs on the loop thread,
/// so the peer needs no locks.
///
/// Meeting semantics mirror an in-process kMeasured JxpPeer::Meet bit for
/// bit: a meeting is a simultaneous exchange, so BOTH sides serialize their
/// message before applying the other's. The responder therefore encodes its
/// reply before calling ApplyMeetingBytes on the initiator's blob.
class PeerDaemon {
 public:
  PeerDaemon(std::unique_ptr<core::JxpPeer> peer, PeerDaemonOptions options);
  ~PeerDaemon();
  PeerDaemon(const PeerDaemon&) = delete;
  PeerDaemon& operator=(const PeerDaemon&) = delete;

  /// Binds the listener, seeds the directory, registers fds and timers on
  /// `loop`. The loop must outlive the daemon's use.
  Status Start(EventLoop* loop);

  uint16_t bound_port() const { return bound_port_; }
  uint16_t advertised_port() const {
    return options_.advertised_port != 0 ? options_.advertised_port : bound_port_;
  }
  /// Chaos wiring: the proxy can only be created after the daemon bound its
  /// port (the proxy targets it), so the proxied advertised port is set
  /// here, after Start() but before the loop runs.
  void set_advertised_port(uint16_t port) { options_.advertised_port = port; }

  /// One outbound meeting with the daemon at `port`, over a pooled
  /// connection (fresh dial only when none is pooled; blocking IO with
  /// io_timeout_ms). Both the kMeetCommand handler and the autonomous
  /// scheduler land here; `*outcome` is the scheduler's classification of
  /// what happened. A reused connection that turns out dead on the first
  /// write is replaced by one transparent re-dial.
  MeetResultMessage MeetPeer(uint16_t port, MeetOutcome* outcome);

  /// One push-pull gossip exchange with a random live directory peer, over
  /// the same connection pool as meetings.
  void GossipOnce();

  bool quiesced() const { return quiesced_; }
  /// Graceful shutdown: quiesce, checkpoint to options.state_path,
  /// best-effort goodbyes, stop the loop. Idempotent.
  void BeginShutdown();

  const core::JxpPeer& peer() const { return *peer_; }
  const DaemonStats& stats() const { return stats_; }
  /// Valid after Start(); scheduler() is null when autonomous mode is off.
  const ConnectionPool& pool() const { return *pool_; }
  const MeetingScheduler* scheduler() const { return scheduler_.get(); }
  const PeerDirectory& directory() const { return directory_; }
  PeerDirectory& directory() { return directory_; }
  ScoresReplyMessage BuildScores() const;
  /// The kNetStatsRequest reply: peer state, DaemonStats, pool and
  /// scheduler counters.
  NetStatsReplyMessage BuildNetStats() const;

 private:
  struct Connection {
    UniqueFd fd;
    wire::FrameAssembler assembler;
    /// Non-zero while a meeting blob is being received on this connection.
    size_t blob_expected = 0;
    std::vector<uint8_t> blob;
    uint32_t meeting_sender = 0;
    /// The pending blob will be discarded and declined (daemon quiesced).
    bool decline_meeting = false;
  };

  void OnListenerReadable();
  void OnConnectionReadable(int fd);
  void OnShutdownFdReadable();
  /// Returns false when the connection must be closed (protocol error).
  bool HandleFrame(Connection& conn, uint8_t type, std::span<const uint8_t> payload);
  /// Full blob in hand: decline, or reply-then-apply.
  void OnMeetingBlobComplete(Connection& conn);
  /// EOF with a partial blob: the torn-transfer salvage path.
  void OnMeetingBlobTruncated(Connection& conn);
  void CloseConnection(int fd);
  /// Writes to a non-blocking fd, polling for writability up to
  /// io_timeout_ms; counts sent bytes.
  Status SendBytes(int fd, std::span<const uint8_t> data);
  void ApplyBlob(Connection& conn);
  void ArmGossipTimer();
  void ArmPoolSweepTimer();
  /// The guts of one outbound meeting over an already-acquired connection.
  /// `fresh` = the fd came from a fresh dial (Hello still owed). Returns
  /// false with *retryable=true only when nothing was committed to the
  /// stream yet (reused fd dead on first write) — the caller may re-dial.
  bool RunMeetingOnConnection(int fd, bool fresh, uint16_t port,
                              MeetResultMessage* result, bool* retryable);

  std::unique_ptr<core::JxpPeer> peer_;
  PeerDaemonOptions options_;
  EventLoop* loop_ = nullptr;
  UniqueFd listener_;
  uint16_t bound_port_ = 0;
  PeerDirectory directory_;
  Random rng_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  DaemonStats stats_;
  std::unique_ptr<ConnectionPool> pool_;
  std::unique_ptr<MeetingScheduler> scheduler_;
  bool quiesced_ = false;
  bool shutdown_begun_ = false;
};

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_PEER_DAEMON_H_
