#include "net/peer_daemon.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "core/state_io.h"

namespace jxp {
namespace net {

namespace {

/// Outbound connection reuse: meetings and gossip share pooled connections
/// keyed by partner port. Idle connections are swept at half their timeout.
constexpr ConnectionPoolOptions kDaemonPool;
constexpr uint64_t kPoolSweepPeriodMs = kDaemonPool.idle_timeout_ms / 2;

}  // namespace

PeerDaemon::PeerDaemon(std::unique_ptr<core::JxpPeer> peer, PeerDaemonOptions options)
    : peer_(std::move(peer)),
      options_(std::move(options)),
      directory_(static_cast<uint32_t>(peer_->id())),
      rng_(options_.rng_seed) {}

PeerDaemon::~PeerDaemon() {
  if (loop_ == nullptr) return;
  if (listener_ && loop_->IsRegistered(listener_.get())) {
    (void)loop_->Remove(listener_.get());
  }
  for (auto& [fd, conn] : connections_) {
    if (loop_->IsRegistered(fd)) (void)loop_->Remove(fd);
  }
  if (options_.shutdown_fd >= 0 && loop_->IsRegistered(options_.shutdown_fd)) {
    (void)loop_->Remove(options_.shutdown_fd);
  }
}

Status PeerDaemon::Start(EventLoop* loop) {
  loop_ = loop;
  // Pooled connections make write-after-peer-close an ordinary event (a
  // dial collision resolves as one side's timeout + close, and the other
  // side may still be replying into it). Surface that as EPIPE through the
  // Status paths instead of process death.
  ::signal(SIGPIPE, SIG_IGN);
  if (Status status =
          CreateLoopbackListener(options_.listen_port, &listener_, &bound_port_);
      !status.ok()) {
    return status;
  }
  const uint64_t now = loop_->NowMs();
  for (const GossipEntry& seed : options_.seed_peers) {
    directory_.ObserveDirect(seed.peer_id, seed.port, now);
  }
  if (Status status =
          loop_->Add(listener_.get(), EPOLLIN, [this](uint32_t) { OnListenerReadable(); });
      !status.ok()) {
    return status;
  }
  if (options_.shutdown_fd >= 0) {
    if (Status status = loop_->Add(options_.shutdown_fd, EPOLLIN,
                                   [this](uint32_t) { OnShutdownFdReadable(); });
        !status.ok()) {
      return status;
    }
  }
  pool_ = std::make_unique<ConnectionPool>(kDaemonPool,
                                           [this] { return loop_->NowMs(); });
  if (options_.scheduler.enabled) {
    // The scheduler gets its own Random stream, derived from (not equal to)
    // the daemon seed so partner draws don't entangle with gossip sampling.
    scheduler_ = std::make_unique<MeetingScheduler>(
        loop_, &directory_, options_.scheduler,
        options_.rng_seed * 0x9e3779b97f4a7c15ULL + 1,
        [this](const PeerDirectory::Entry& partner) {
          MeetOutcome outcome = MeetOutcome::kFailed;
          (void)MeetPeer(partner.port, &outcome);
          return outcome;
        });
  }
  ArmGossipTimer();
  ArmPoolSweepTimer();
  return Status::OK();
}

void PeerDaemon::ArmPoolSweepTimer() {
  loop_->AddTimer(kPoolSweepPeriodMs, [this] {
    pool_->SweepIdle();
    ArmPoolSweepTimer();
  });
}

NetStatsReplyMessage PeerDaemon::BuildNetStats() const {
  NetStatsReplyMessage reply;
  reply.peer_id = peer_->id();
  reply.num_meetings = peer_->num_meetings();
  reply.local_pages = peer_->fragment().NumLocalPages();
  reply.world_entries = peer_->world_node().NumEntries();
  reply.directory_size = directory_.size();
  reply.quiesced = quiesced_ ? 1 : 0;
  reply.accepts = stats_.accepts;
  const ConnectionPoolStats& pool_stats = pool_->stats();
  reply.dials = pool_stats.dials;
  reply.dial_failures = pool_stats.dial_failures;
  reply.meetings_initiated = stats_.meetings_initiated;
  reply.meetings_accepted = stats_.meetings_accepted;
  reply.meetings_declined = stats_.meetings_declined;
  reply.meeting_failures = stats_.meeting_failures;
  reply.truncations_detected = stats_.truncations_detected;
  reply.corruptions_detected = stats_.corruptions_detected;
  reply.bytes_sent = stats_.bytes_sent;
  reply.bytes_received = stats_.bytes_received;
  reply.wasted_bytes = stats_.wasted_bytes;
  reply.gossip_exchanges = stats_.gossip_exchanges;
  reply.directory_evictions = stats_.directory_evictions;
  reply.checkpoints = stats_.checkpoints;
  reply.protocol_errors = stats_.protocol_errors;
  reply.pool_reuses = pool_stats.reuses;
  reply.pool_half_open = pool_stats.half_open_detected;
  reply.pool_redials = pool_stats.redials;
  reply.pool_evictions_idle = pool_stats.evictions_idle;
  reply.pool_evictions_lru = pool_stats.evictions_lru;
  reply.pool_released_broken = pool_stats.released_broken;
  reply.pool_open_connections = pool_->open_connections();
  if (scheduler_ != nullptr) {
    reply.scheduler_state = static_cast<uint64_t>(scheduler_->state());
    const MeetingSchedulerStats& sched = scheduler_->stats();
    reply.sched_ticks = sched.ticks;
    reply.sched_meetings_started = sched.meetings_started;
    reply.sched_meetings_applied = sched.meetings_applied;
    reply.sched_declines = sched.declines;
    reply.sched_failures = sched.failures;
    reply.sched_skips_no_partner = sched.skips_no_partner;
    reply.sched_skips_backoff = sched.skips_backoff;
    reply.sched_backoffs_armed = sched.backoffs_armed;
  }
  return reply;
}

void PeerDaemon::ArmGossipTimer() {
  if (options_.gossip_interval_ms == 0) return;
  loop_->AddTimer(options_.gossip_interval_ms, [this] {
    stats_.directory_evictions += directory_.EvictStale(loop_->NowMs());
    if (!quiesced_) GossipOnce();
    ArmGossipTimer();
  });
}

void PeerDaemon::OnListenerReadable() {
  // Level-triggered: drain every pending connection.
  while (true) {
    UniqueFd accepted;
    const Status status = AcceptConnection(listener_.get(), &accepted);
    if (!status.ok() || !accepted) return;
    ++stats_.accepts;
    const int fd = accepted.get();
    auto conn = std::make_unique<Connection>();
    conn->fd = std::move(accepted);
    if (!loop_->Add(fd, EPOLLIN, [this, fd](uint32_t) { OnConnectionReadable(fd); })
             .ok()) {
      continue;  // Connection dropped; UniqueFd closes it.
    }
    connections_.emplace(fd, std::move(conn));
  }
}

void PeerDaemon::CloseConnection(int fd) {
  if (loop_->IsRegistered(fd)) (void)loop_->Remove(fd);
  connections_.erase(fd);
}

void PeerDaemon::OnConnectionReadable(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;

  uint8_t buf[16384];
  while (true) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConnection(fd);
      return;
    }
    if (got == 0) {
      // EOF. A partial meeting blob at EOF is the torn-transfer case: the
      // connection (or the chaos proxy) died mid-blob; salvage the prefix.
      if (conn.blob_expected > 0) OnMeetingBlobTruncated(conn);
      CloseConnection(fd);
      return;
    }
    stats_.bytes_received += static_cast<uint64_t>(got);
    size_t off = 0;
    const size_t n = static_cast<size_t>(got);
    while (off < n) {
      if (conn.blob_expected > 0) {
        // Raw blob mode: bytes bypass the frame assembler entirely.
        const size_t take = std::min(n - off, conn.blob_expected - conn.blob.size());
        conn.blob.insert(conn.blob.end(), buf + off, buf + off + take);
        off += take;
        if (conn.blob.size() == conn.blob_expected) OnMeetingBlobComplete(conn);
        continue;
      }
      const size_t consumed =
          conn.assembler.Feed(std::span<const uint8_t>(buf + off, n - off));
      off += consumed;
      if (conn.assembler.HasFrame()) {
        const bool keep = HandleFrame(conn, conn.assembler.frame_type(),
                                      conn.assembler.frame_payload());
        conn.assembler.ConsumeFrame();
        if (!keep) {
          CloseConnection(fd);
          return;
        }
      } else if (conn.assembler.failed() || consumed == 0) {
        ++stats_.protocol_errors;
        CloseConnection(fd);
        return;
      }
    }
  }
}

bool PeerDaemon::HandleFrame(Connection& conn, uint8_t type,
                             std::span<const uint8_t> payload) {
  const uint64_t now = loop_->NowMs();
  switch (static_cast<NetMessageType>(type)) {
    case NetMessageType::kHello: {
      HelloMessage hello;
      if (!ParseHello(payload, &hello).ok()) break;
      directory_.ObserveDirect(hello.peer_id, hello.listen_port, now);
      return true;
    }
    case NetMessageType::kPeerExchange: {
      PeerExchangeMessage exchange;
      if (!ParsePeerExchange(payload, &exchange).ok()) break;
      for (const GossipEntry& entry : exchange.entries) {
        directory_.ObserveGossip(entry, now);
      }
      ++stats_.gossip_exchanges;
      // Push-pull: answer with our own sample (tombstones included).
      PeerExchangeMessage reply;
      reply.entries = directory_.GossipSample(now, 16, rng_);
      std::vector<uint8_t> out;
      AppendPeerExchange(reply, out);
      return SendBytes(conn.fd.get(), out).ok();
    }
    case NetMessageType::kMeetingOffer: {
      MeetingHeader offer;
      if (!ParseMeetingHeader(payload, &offer).ok()) break;
      conn.meeting_sender = offer.sender_id;
      conn.decline_meeting = quiesced_;
      conn.blob.clear();
      conn.blob_expected = offer.payload_bytes;
      if (conn.blob_expected == 0) OnMeetingBlobComplete(conn);
      return true;
    }
    case NetMessageType::kGoodbye: {
      uint32_t sender = 0;
      if (!ParseSenderId(payload, &sender).ok()) break;
      directory_.MarkDeparted(sender, now);
      return true;
    }
    case NetMessageType::kScoresRequest: {
      std::vector<uint8_t> out;
      AppendScoresReply(BuildScores(), out);
      return SendBytes(conn.fd.get(), out).ok();
    }
    case NetMessageType::kMeetCommand: {
      MeetCommandMessage command;
      if (!ParseMeetCommand(payload, &command).ok()) break;
      MeetOutcome outcome = MeetOutcome::kFailed;
      const MeetResultMessage result = MeetPeer(command.port, &outcome);
      std::vector<uint8_t> out;
      AppendMeetResult(result, out);
      return SendBytes(conn.fd.get(), out).ok();
    }
    case NetMessageType::kStartRequest: {
      AckMessage ack;
      if (scheduler_ == nullptr) {
        ack.detail = "autonomous mode disabled";
      } else if (scheduler_->state() == SchedulerState::kDrained) {
        ack.detail = "scheduler drained";
      } else {
        scheduler_->Start();
        ack.ok = true;
      }
      std::vector<uint8_t> out;
      AppendAck(NetMessageType::kStartReply, ack, out);
      return SendBytes(conn.fd.get(), out).ok();
    }
    case NetMessageType::kDrainRequest: {
      // Drain-and-quiesce: terminal scheduler stop, inbound meetings
      // decline, warm connections close. Control traffic keeps working.
      if (scheduler_ != nullptr) scheduler_->Drain();
      quiesced_ = true;
      pool_->CloseAll();
      AckMessage ack;
      ack.ok = true;
      std::vector<uint8_t> out;
      AppendAck(NetMessageType::kDrainReply, ack, out);
      return SendBytes(conn.fd.get(), out).ok();
    }
    case NetMessageType::kNetStatsRequest: {
      std::vector<uint8_t> out;
      AppendNetStatsReply(BuildNetStats(), out);
      return SendBytes(conn.fd.get(), out).ok();
    }
    default:
      break;
  }
  ++stats_.protocol_errors;
  return false;
}

void PeerDaemon::ApplyBlob(Connection& conn) {
  const bool complete = conn.blob.size() == conn.blob_expected;
  const core::RemoteMeetingApply applied = peer_->ApplyMeetingBytes(conn.blob);
  if (applied.applied) {
    ++stats_.meetings_accepted;
  }
  if (complete && (!applied.applied || applied.salvaged)) {
    ++stats_.corruptions_detected;
  }
  const uint64_t wasted =
      static_cast<uint64_t>(conn.blob.size() - applied.bytes_consumed);
  stats_.wasted_bytes += wasted;
}

void PeerDaemon::OnMeetingBlobComplete(Connection& conn) {
  const size_t blob_bytes = conn.blob.size();
  if (conn.decline_meeting) {
    ++stats_.meetings_declined;
    stats_.wasted_bytes += blob_bytes;
    std::vector<uint8_t> out;
    AppendMeetingDecline(static_cast<uint32_t>(peer_->id()), out);
    (void)SendBytes(conn.fd.get(), out);
  } else {
    // Simultaneous-exchange semantics: serialize our message BEFORE
    // applying the initiator's, exactly like JxpPeer::Meet encodes both
    // messages up front. This is what keeps a networked meeting bit-identical
    // to the in-process one.
    const std::vector<uint8_t> reply = peer_->EncodeMeetingBytes();
    MeetingHeader header;
    header.sender_id = static_cast<uint32_t>(peer_->id());
    header.payload_bytes = static_cast<uint32_t>(reply.size());
    std::vector<uint8_t> frame;
    AppendMeetingHeader(NetMessageType::kMeetingReply, header, frame);
    if (SendBytes(conn.fd.get(), frame).ok()) (void)SendBytes(conn.fd.get(), reply);
    ApplyBlob(conn);
  }
  conn.blob_expected = 0;
  conn.blob.clear();
  conn.blob.shrink_to_fit();
}

void PeerDaemon::OnMeetingBlobTruncated(Connection& conn) {
  ++stats_.truncations_detected;
  if (conn.decline_meeting) {
    stats_.wasted_bytes += conn.blob.size();
  } else {
    // The initiator's transfer died mid-blob; the connection is gone, so no
    // reply can be sent — this side still salvages the intact prefix (the
    // one-sided application the fault model calls a truncated delivery).
    ApplyBlob(conn);
  }
  conn.blob_expected = 0;
  conn.blob.clear();
}

Status PeerDaemon::SendBytes(int fd, std::span<const uint8_t> data) {
  size_t written = 0;
  const uint64_t deadline = loop_->NowMs() + options_.io_timeout_ms;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Status::IOError(std::string("write: ") + strerror(errno));
    }
    const uint64_t now = loop_->NowMs();
    if (now >= deadline) return Status::IOError("write timeout");
    pollfd pfd{fd, POLLOUT, 0};
    (void)::poll(&pfd, 1, static_cast<int>(deadline - now));
  }
  stats_.bytes_sent += written;
  return Status::OK();
}

MeetResultMessage PeerDaemon::MeetPeer(uint16_t port, MeetOutcome* outcome) {
  MeetResultMessage result;
  *outcome = MeetOutcome::kFailed;
  ++stats_.meetings_initiated;

  int fd = -1;
  bool reused = false;
  if (Status acquired = pool_->Acquire(port, &fd, &reused); !acquired.ok()) {
    ++stats_.meeting_failures;
    *outcome = MeetOutcome::kDialFailed;
    return result;
  }
  if (!reused) SetIoTimeouts(fd, options_.io_timeout_ms);

  bool retryable = false;
  bool healthy = RunMeetingOnConnection(fd, !reused, port, &result, &retryable);
  if (!healthy && retryable) {
    // The pooled connection died while idle and the peek missed it (race:
    // peer closed between peek and write). Nothing of this meeting reached
    // the peer, so one transparent replacement dial is safe.
    pool_->Release(port, /*healthy=*/false);
    pool_->NoteRedial();
    if (Status redialed = pool_->Acquire(port, &fd, &reused); !redialed.ok()) {
      ++stats_.meeting_failures;
      *outcome = MeetOutcome::kDialFailed;
      return result;
    }
    if (!reused) SetIoTimeouts(fd, options_.io_timeout_ms);
    healthy = RunMeetingOnConnection(fd, !reused, port, &result, &retryable);
  }
  pool_->Release(port, healthy);

  if (result.declined) {
    *outcome = MeetOutcome::kDeclined;
  } else if (result.applied) {
    *outcome = MeetOutcome::kApplied;
  } else {
    *outcome = MeetOutcome::kFailed;
  }
  return result;
}

bool PeerDaemon::RunMeetingOnConnection(int fd, bool fresh, uint16_t port,
                                        MeetResultMessage* result, bool* retryable) {
  *retryable = false;
  // Encode before any exchange: the initiator's message is a snapshot of
  // its pre-meeting state (simultaneous-exchange semantics).
  const std::vector<uint8_t> message = peer_->EncodeMeetingBytes();
  std::vector<uint8_t> frames;
  if (fresh) {
    // Hello only once per connection; on reuse the responder already knows
    // who we are.
    HelloMessage hello;
    hello.peer_id = static_cast<uint32_t>(peer_->id());
    hello.listen_port = advertised_port();
    AppendHello(hello, frames);
  }
  MeetingHeader offer;
  offer.sender_id = static_cast<uint32_t>(peer_->id());
  offer.payload_bytes = static_cast<uint32_t>(message.size());
  AppendMeetingHeader(NetMessageType::kMeetingOffer, offer, frames);
  if (!WriteAll(fd, frames).ok()) {
    // Before the blob starts, the responder can at worst salvage an empty
    // prefix — nothing committed. On a reused connection this is the
    // peek-missed-the-close race: let the caller re-dial silently instead
    // of charging a meeting failure.
    if (!fresh) {
      *retryable = true;
    } else {
      ++stats_.meeting_failures;
    }
    return false;
  }
  if (!WriteAll(fd, message).ok()) {
    // The blob was cut mid-stream: the responder may salvage and APPLY a
    // prefix, so this meeting is committed — never retried.
    ++stats_.meeting_failures;
    return false;
  }
  stats_.bytes_sent += frames.size() + message.size();

  uint8_t type = 0;
  std::vector<uint8_t> payload;
  if (!ReadFrameBlocking(fd, &type, &payload).ok()) {
    // The transfer (or the proxy) died before any reply frame — our own
    // message may have been cut; the responder does the salvaging.
    ++stats_.meeting_failures;
    return false;
  }
  stats_.bytes_received += wire::kFrameHeaderBytes + payload.size();
  if (static_cast<NetMessageType>(type) == NetMessageType::kMeetingDecline) {
    // The responder consumed our blob before declining; the stream is
    // aligned and the connection stays poolable.
    result->declined = true;
    return true;
  }
  MeetingHeader reply;
  if (static_cast<NetMessageType>(type) != NetMessageType::kMeetingReply ||
      !ParseMeetingHeader(payload, &reply).ok()) {
    ++stats_.protocol_errors;
    ++stats_.meeting_failures;
    return false;
  }
  directory_.ObserveDirect(reply.sender_id, port, loop_->NowMs());

  std::vector<uint8_t> blob;
  const size_t received = ReadUpTo(fd, reply.payload_bytes, &blob);
  stats_.bytes_received += received;
  const bool complete = received == reply.payload_bytes;
  if (!complete) {
    ++stats_.truncations_detected;
  }
  const core::RemoteMeetingApply applied = peer_->ApplyMeetingBytes(blob);
  result->applied = applied.applied;
  result->salvaged = applied.salvaged || !complete;
  if (complete && (!applied.applied || applied.salvaged)) {
    ++stats_.corruptions_detected;
  }
  stats_.wasted_bytes += received - applied.bytes_consumed;
  // A short blob means the connection died mid-reply; a complete one (even
  // bit-damaged — that's the payload's problem, not the stream's) leaves
  // the stream aligned for the next meeting.
  return complete;
}

void PeerDaemon::GossipOnce() {
  PeerDirectory::Entry partner;
  if (!directory_.SelectPartner(rng_, &partner)) return;
  int fd = -1;
  bool reused = false;
  if (Status acquired = pool_->Acquire(partner.port, &fd, &reused); !acquired.ok()) {
    // An unreachable peer is evidence of departure; the tombstone keeps
    // gossip from re-suggesting it until it reappears first-hand.
    directory_.MarkDeparted(partner.peer_id, loop_->NowMs());
    return;
  }
  if (!reused) SetIoTimeouts(fd, options_.io_timeout_ms);
  const uint64_t now = loop_->NowMs();
  std::vector<uint8_t> frames;
  if (!reused) {
    HelloMessage hello;
    hello.peer_id = static_cast<uint32_t>(peer_->id());
    hello.listen_port = advertised_port();
    AppendHello(hello, frames);
  }
  PeerExchangeMessage exchange;
  exchange.entries = directory_.GossipSample(now, 16, rng_);
  AppendPeerExchange(exchange, frames);
  bool healthy = false;
  uint8_t type = 0;
  std::vector<uint8_t> payload;
  PeerExchangeMessage reply;
  if (WriteAll(fd, frames).ok()) {
    stats_.bytes_sent += frames.size();
    if (ReadFrameBlocking(fd, &type, &payload).ok() &&
        static_cast<NetMessageType>(type) == NetMessageType::kPeerExchange &&
        ParsePeerExchange(payload, &reply).ok()) {
      healthy = true;
      stats_.bytes_received += wire::kFrameHeaderBytes + payload.size();
      for (const GossipEntry& entry : reply.entries) {
        directory_.ObserveGossip(entry, loop_->NowMs());
      }
      ++stats_.gossip_exchanges;
    }
  }
  pool_->Release(partner.port, healthy);
}

void PeerDaemon::OnShutdownFdReadable() {
  // One read only: the fd may be a blocking pipe, and a drain loop would
  // block the loop thread once the signal byte is consumed.
  uint8_t drain[16];
  (void)!::read(options_.shutdown_fd, drain, sizeof(drain));
  BeginShutdown();
}

void PeerDaemon::BeginShutdown() {
  if (shutdown_begun_) return;
  shutdown_begun_ = true;
  // Quiesce first: meetings in flight on other connections decline from
  // here on, so the checkpoint below is the peer's final state.
  quiesced_ = true;
  if (scheduler_ != nullptr) scheduler_->Drain();
  if (pool_ != nullptr) pool_->CloseAll();
  if (!options_.state_path.empty() &&
      core::SavePeerState(*peer_, options_.state_path).ok()) {
    ++stats_.checkpoints;
  }
  if (options_.goodbye_on_shutdown) {
    std::vector<uint8_t> goodbye;
    AppendGoodbye(static_cast<uint32_t>(peer_->id()), goodbye);
    for (const PeerDirectory::Entry& entry : directory_.AlivePeers()) {
      if (entry.port == 0) continue;
      UniqueFd fd;
      if (!ConnectLoopback(entry.port, &fd).ok()) continue;
      SetIoTimeouts(fd.get(), std::min<uint64_t>(options_.io_timeout_ms, 1000));
      (void)WriteAll(fd.get(), goodbye);
    }
  }
  loop_->Stop();
}

ScoresReplyMessage PeerDaemon::BuildScores() const {
  ScoresReplyMessage scores;
  const graph::Subgraph& fragment = peer_->fragment();
  const std::vector<double>& local = peer_->local_scores();
  scores.entries.reserve(local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    ScoreEntry entry;
    entry.page = fragment.GlobalId(static_cast<graph::Subgraph::LocalIndex>(i));
    entry.score = local[i];
    scores.entries.push_back(entry);
  }
  scores.world_score = peer_->world_score();
  return scores;
}

}  // namespace net
}  // namespace jxp
