#include "net/control_client.h"

#include <string>

namespace jxp {
namespace net {

Status ControlClient::Connect(uint16_t port, uint64_t io_timeout_ms) {
  fd_.reset();
  if (Status status = ConnectLoopback(port, &fd_); !status.ok()) return status;
  SetIoTimeouts(fd_.get(), io_timeout_ms);
  return Status::OK();
}

Status ControlClient::RoundTrip(const std::vector<uint8_t>& request,
                                NetMessageType expect,
                                std::vector<uint8_t>* payload) {
  if (!fd_.valid()) return Status::FailedPrecondition("control client not connected");
  if (Status status = WriteAll(fd_.get(), request); !status.ok()) return status;
  uint8_t type = 0;
  if (Status status = ReadFrameBlocking(fd_.get(), &type, payload); !status.ok()) {
    return status;
  }
  if (type != static_cast<uint8_t>(expect)) {
    return Status::Internal("unexpected control reply type " + std::to_string(type));
  }
  return Status::OK();
}

Status ControlClient::Meet(uint32_t partner_id, uint16_t port, MeetResultMessage* out) {
  MeetCommandMessage command;
  command.partner_id = partner_id;
  command.port = port;
  std::vector<uint8_t> request;
  AppendMeetCommand(command, request);
  std::vector<uint8_t> payload;
  if (Status status = RoundTrip(request, NetMessageType::kMeetResult, &payload);
      !status.ok()) {
    return status;
  }
  return ParseMeetResult(payload, out);
}

Status ControlClient::AckRoundTrip(NetMessageType request_type,
                                   NetMessageType reply_type, const char* what) {
  std::vector<uint8_t> request;
  AppendEmpty(request_type, request);
  std::vector<uint8_t> payload;
  if (Status status = RoundTrip(request, reply_type, &payload); !status.ok()) {
    return status;
  }
  AckMessage ack;
  if (Status status = ParseAck(payload, &ack); !status.ok()) return status;
  if (!ack.ok) return Status::Internal(std::string(what) + " failed: " + ack.detail);
  return Status::OK();
}

Status ControlClient::StartScheduler() {
  return AckRoundTrip(NetMessageType::kStartRequest, NetMessageType::kStartReply,
                      "start");
}

Status ControlClient::Drain() {
  return AckRoundTrip(NetMessageType::kDrainRequest, NetMessageType::kDrainReply,
                      "drain");
}

Status ControlClient::GetNetStats(NetStatsReplyMessage* out) {
  std::vector<uint8_t> request;
  AppendEmpty(NetMessageType::kNetStatsRequest, request);
  std::vector<uint8_t> payload;
  if (Status status = RoundTrip(request, NetMessageType::kNetStatsReply, &payload);
      !status.ok()) {
    return status;
  }
  return ParseNetStatsReply(payload, out);
}

Status ControlClient::GetScores(ScoresReplyMessage* out) {
  std::vector<uint8_t> request;
  AppendEmpty(NetMessageType::kScoresRequest, request);
  std::vector<uint8_t> payload;
  if (Status status = RoundTrip(request, NetMessageType::kScoresReply, &payload);
      !status.ok()) {
    return status;
  }
  return ParseScoresReply(payload, out);
}

}  // namespace net
}  // namespace jxp
