#include "net/chaos_proxy.h"

#include <poll.h>
#include <sys/socket.h>

#include <utility>

#include "net/net_protocol.h"
#include "wire/wire_format.h"

namespace jxp {
namespace net {

ChaosProxy::ChaosProxy(ChaosProxyOptions options)
    : options_(std::move(options)), rng_(options_.plan.seed) {}

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  if (Status status =
          CreateLoopbackListener(options_.listen_port, &listener_, &bound_port_);
      !status.ok()) {
    return status;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ChaosProxy::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Relay>> relays;
  {
    std::lock_guard<std::mutex> lock(mu_);
    relays.swap(relays_);
  }
  for (auto& relay : relays) {
    ShutdownBoth(relay.get());
    if (relay->forward.joinable()) relay->forward.join();
    if (relay->backward.joinable()) relay->backward.join();
  }
  listener_.reset();
}

void ChaosProxy::ShutdownBoth(Relay* relay) {
  if (relay->client.valid()) ::shutdown(relay->client.get(), SHUT_RDWR);
  if (relay->server.valid()) ::shutdown(relay->server.get(), SHUT_RDWR);
}

void ChaosProxy::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{listener_.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stopping_.load()) return;
    if (ready <= 0) continue;
    UniqueFd client;
    if (!AcceptConnection(listener_.get(), &client).ok() || !client) continue;
    UniqueFd server;
    if (!ConnectLoopback(options_.target_port, &server).ok()) {
      continue;  // Target gone; refuse by dropping the client.
    }
    // Accepted sockets come back non-blocking; the relay pumps block.
    (void)SetBlocking(client.get(), true);
    connections_.fetch_add(1);
    auto relay = std::make_unique<Relay>();
    relay->client = std::move(client);
    relay->server = std::move(server);
    Relay* raw = relay.get();
    const int client_fd = raw->client.get();
    const int server_fd = raw->server.get();
    raw->forward = std::thread([this, raw, client_fd, server_fd] {
      Pump(raw, client_fd, server_fd);
    });
    raw->backward = std::thread([this, raw, client_fd, server_fd] {
      Pump(raw, server_fd, client_fd);
    });
    std::lock_guard<std::mutex> lock(mu_);
    relays_.push_back(std::move(relay));
  }
}

p2p::BlobFault ChaosProxy::DrawFault(size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.plan.Draw(size, rng_);
}

void ChaosProxy::Pump(Relay* relay, int src, int dst) {
  std::vector<uint8_t> header(wire::kFrameHeaderBytes);
  std::vector<uint8_t> payload;
  std::vector<uint8_t> blob;
  while (!stopping_.load()) {
    // One protocol frame: 16-byte header, then the announced payload.
    // Forwarded verbatim — the proxy never re-serializes, so clean paths
    // are byte-identical to a direct connection.
    if (ReadUpTo(src, header.size(), &header) != wire::kFrameHeaderBytes) break;
    wire::FrameHeader decoded;
    if (!wire::DecodeFrameHeader(header.data(), &decoded).ok()) {
      // Not a frame boundary (bad magic or version, or an over-cap length):
      // the stream is garbage. Pass the bytes on and stop relaying
      // structurally (the receiver's assembler will reject).
      (void)WriteAll(dst, header);
      break;
    }
    const bool payload_complete =
        ReadUpTo(src, decoded.payload_len, &payload) == decoded.payload_len;
    if (!WriteAll(dst, header).ok() || !WriteAll(dst, payload).ok()) break;
    if (!payload_complete) break;
    frames_forwarded_.fetch_add(1);

    const uint8_t type = decoded.type;
    const bool is_blob_header =
        type == static_cast<uint8_t>(NetMessageType::kMeetingOffer) ||
        type == static_cast<uint8_t>(NetMessageType::kMeetingReply);
    if (!is_blob_header) continue;
    MeetingHeader announce;
    if (!ParseMeetingHeader(payload, &announce).ok()) continue;

    // The next announce.payload_bytes raw bytes are the fault target.
    const size_t got = ReadUpTo(src, announce.payload_bytes, &blob);
    if (got < announce.payload_bytes) {
      // Upstream died mid-blob on its own; pass through what arrived.
      (void)WriteAll(dst, blob);
      break;
    }
    const p2p::BlobFault fault = DrawFault(blob.size());
    fault.ApplyTo(blob);
    switch (fault.kind) {
      case p2p::BlobFault::Kind::kDrop:
        blobs_dropped_.fetch_add(1);
        ShutdownBoth(relay);
        return;
      case p2p::BlobFault::Kind::kTruncate:
        // The prefix is strict, so the receiver always sees EOF mid-blob.
        blobs_truncated_.fetch_add(1);
        (void)WriteAll(dst, blob);
        ShutdownBoth(relay);
        return;
      case p2p::BlobFault::Kind::kCorrupt:
        blobs_corrupted_.fetch_add(1);
        if (!WriteAll(dst, blob).ok()) return;
        break;
      case p2p::BlobFault::Kind::kNone:
        if (!WriteAll(dst, blob).ok()) return;
        if (!blob.empty()) blobs_forwarded_.fetch_add(1);
        break;
    }
  }
}

ChaosProxyStats ChaosProxy::stats() const {
  ChaosProxyStats stats;
  stats.connections = connections_.load();
  stats.frames_forwarded = frames_forwarded_.load();
  stats.blobs_forwarded = blobs_forwarded_.load();
  stats.blobs_dropped = blobs_dropped_.load();
  stats.blobs_truncated = blobs_truncated_.load();
  stats.blobs_corrupted = blobs_corrupted_.load();
  return stats;
}

}  // namespace net
}  // namespace jxp
