#ifndef JXP_NET_CHAOS_PROXY_H_
#define JXP_NET_CHAOS_PROXY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/socket_util.h"
#include "p2p/faults.h"

namespace jxp {
namespace net {

struct ChaosProxyOptions {
  /// Port the proxy listens on (0 = ephemeral; read back via bound_port()).
  /// Daemons advertise THIS port, so peer meeting traffic routes through
  /// the proxy while driver control traffic dials the daemon directly.
  uint16_t listen_port = 0;
  /// The proxied daemon's real bound port.
  uint16_t target_port = 0;
  /// Per-blob fault probabilities and the seed of the proxy's fault stream.
  p2p::FaultPlan plan;
};

/// Injected-fault accounting. The cluster driver compares these against the
/// daemons' detection counters: every drop or truncation must surface as
/// exactly one truncations_detected (EOF mid-blob) and every corruption as
/// exactly one corruptions_detected (checksum-failed decode) on the
/// receiving side.
struct ChaosProxyStats {
  uint64_t connections = 0;
  uint64_t frames_forwarded = 0;
  uint64_t blobs_forwarded = 0;  // Clean, complete blob transfers.
  uint64_t blobs_dropped = 0;    // 0 of N announced bytes delivered.
  uint64_t blobs_truncated = 0;  // A strict prefix delivered, then close.
  uint64_t blobs_corrupted = 0;  // One bit flipped, all bytes delivered.
};

/// The socket side of the byte-fault model p2p::FaultPlan (DESIGN.md §6k):
/// a loopback TCP relay in front of one daemon that forwards protocol
/// frames verbatim and faults ONLY meeting-blob bytes — drop (announce,
/// deliver nothing), truncate (deliver a prefix, then close), or corrupt
/// (flip one bit). Faulting only blobs keeps the failure modes to the ones
/// the theorem proptests check: a torn blob is salvage-decoded by the
/// receiver, never a wedged framing layer.
///
/// Threaded and blocking by design — the proxy is test harness code, and
/// two pump threads per connection (one per direction) are simpler to make
/// correct than a third event loop.
class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosProxyOptions options);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds the listener and starts the accept thread.
  Status Start();
  /// Shuts down every relay and joins all threads. Idempotent.
  void Stop();

  uint16_t bound_port() const { return bound_port_; }
  ChaosProxyStats stats() const;

 private:
  struct Relay {
    UniqueFd client;  // Dialing peer -> proxy.
    UniqueFd server;  // Proxy -> target daemon.
    std::thread forward;   // client -> server (offer direction).
    std::thread backward;  // server -> client (reply direction).
  };

  void AcceptLoop();
  /// Relays src -> dst frame by frame, faulting meeting blobs. Returns when
  /// either side closes or a drop/truncate fault kills the connection.
  void Pump(Relay* relay, int src, int dst);
  /// Draws the fault of one `size`-byte blob from the proxy's stream.
  p2p::BlobFault DrawFault(size_t size);
  static void ShutdownBoth(Relay* relay);

  ChaosProxyOptions options_;
  UniqueFd listener_;
  uint16_t bound_port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;  // Guards rng_ and relays_.
  Random rng_;
  std::vector<std::unique_ptr<Relay>> relays_;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> frames_forwarded_{0};
  std::atomic<uint64_t> blobs_forwarded_{0};
  std::atomic<uint64_t> blobs_dropped_{0};
  std::atomic<uint64_t> blobs_truncated_{0};
  std::atomic<uint64_t> blobs_corrupted_{0};
};

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_CHAOS_PROXY_H_
