#ifndef JXP_NET_CONTROL_CLIENT_H_
#define JXP_NET_CONTROL_CLIENT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "net/net_protocol.h"
#include "net/socket_util.h"

namespace jxp {
namespace net {

/// Blocking request/response client for a PeerDaemon's control protocol:
/// the five request/reply pairs meet, scores, net-stats, start and drain.
/// One connection per client; the cluster driver holds one ControlClient
/// per daemon. Synchronous on purpose — the driver replays meetings
/// serially to match the oracle's schedule, so a blocking round trip is
/// exactly the flow control needed.
class ControlClient {
 public:
  ControlClient() = default;

  /// Dials 127.0.0.1:`port` (the daemon's *bound* port, never the chaos
  /// proxy — control traffic must not be faulted).
  Status Connect(uint16_t port, uint64_t io_timeout_ms = 10000);
  bool connected() const { return fd_.valid(); }
  void Close() { fd_.reset(); }

  /// Commands one meeting with `partner_id`, dialed at `port` (the
  /// partner's advertised port — under chaos, the proxy's). Blocks until
  /// the meeting completes; the daemon reports its outcome in `*out`.
  Status Meet(uint32_t partner_id, uint16_t port, MeetResultMessage* out);
  /// Dumps the daemon's local scores as exact doubles.
  Status GetScores(ScoresReplyMessage* out);
  /// Dumps the daemon's status: peer state and every counter.
  Status GetNetStats(NetStatsReplyMessage* out);
  /// Autonomous mode: starts the daemon's meeting scheduler.
  Status StartScheduler();
  /// Drain-and-quiesce: terminal scheduler stop + quiesce + pool close.
  /// The daemon still answers control traffic afterwards.
  Status Drain();

 private:
  /// Sends `request` (complete frames) and reads one reply frame, checking
  /// its type byte against `expect`.
  Status RoundTrip(const std::vector<uint8_t>& request, NetMessageType expect,
                   std::vector<uint8_t>* payload);
  /// Empty-payload request -> Ack reply, failing on a negative ack.
  Status AckRoundTrip(NetMessageType request_type, NetMessageType reply_type,
                      const char* what);

  UniqueFd fd_;
};

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_CONTROL_CLIENT_H_
