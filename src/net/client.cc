#include "net/client.h"

#include <algorithm>
#include <cstring>

namespace tso {

namespace {

// Queued requests are written once they pass this many bytes, so a caller
// that only sends cannot grow the send buffer without bound.
constexpr size_t kFlushBytes = 64 << 10;
// Room guaranteed free at the receive buffer's tail before each read.
constexpr size_t kReadChunk = 64 << 10;

}  // namespace

Status TsodClient::Connect(const std::string& host, uint16_t port) {
  auto sock = ConnectTcp(host, port);
  TSO_RETURN_IF_ERROR(sock.status());
  socket_ = std::move(sock.value());
  next_id_ = 1;
  recv_id_ = 1;
  send_buf_.clear();
  recv_head_ = 0;
  recv_tail_ = 0;
  return Status::Ok();
}

Status TsodClient::Flush() {
  if (!socket_.valid()) {
    send_buf_.clear();
    return Status::FailedPrecondition("client not connected");
  }
  if (send_buf_.empty()) return Status::Ok();
  Status write = WriteFull(socket_, send_buf_.data(), send_buf_.size());
  send_buf_.clear();
  if (!write.ok()) socket_.Close();
  return write;
}

StatusOr<WireResponse> TsodClient::ReadResponse() {
  for (;;) {
    if (!socket_.valid()) {
      return Status::FailedPrecondition("client not connected");
    }
    // The shared decoder applies exactly the server's structural validation
    // (magic, version, kind, size cap).
    WireFrame frame;
    size_t needed = 0;
    Status error;
    DecodeResult result = DecodeFrame(
        std::string_view(recv_buf_.data() + recv_head_,
                         recv_tail_ - recv_head_),
        &frame, &needed, &error);
    if (result == DecodeResult::kError) {
      socket_.Close();
      return error;
    }
    if (result == DecodeResult::kFrame) {
      recv_head_ += frame.size();
      auto response = ParseResponse(frame);
      if (!response.ok()) socket_.Close();
      return response;
    }

    // About to block: the server can only answer what it has been sent.
    TSO_RETURN_IF_ERROR(Flush());
    const size_t kept = recv_tail_ - recv_head_;
    std::memmove(recv_buf_.data(), recv_buf_.data() + recv_head_, kept);
    recv_head_ = 0;
    recv_tail_ = kept;
    // `needed` > kept, so the read below always has room.
    const size_t want = std::max(needed, kept + kReadChunk);
    if (recv_buf_.size() < want) recv_buf_.resize(want);
    auto n = ReadSome(socket_, recv_buf_.data() + recv_tail_,
                      recv_buf_.size() - recv_tail_);
    if (!n.ok() || n.value() == 0) {
      socket_.Close();
      return n.ok() ? Status::Unavailable("connection closed") : n.status();
    }
    recv_tail_ += n.value();
  }
}

StatusOr<WireResponse> TsodClient::ReadMatchingResponse(uint32_t request_id,
                                                        uint8_t kind) {
  auto response = ReadResponse();
  TSO_RETURN_IF_ERROR(response.status());
  if (response.value().request_id != request_id ||
      response.value().kind != kind) {
    socket_.Close();
    return Status::Internal(
        "wire: response mismatch (got id " +
        std::to_string(response.value().request_id) + " kind " +
        std::to_string(response.value().kind) + ", want id " +
        std::to_string(request_id) + " kind " + std::to_string(kind) + ")");
  }
  TSO_RETURN_IF_ERROR(response.value().status);
  return response;
}

StatusOr<WireResponse> TsodClient::Call(uint8_t kind) {
  const uint32_t id = next_id_++;
  // Nothing pipelined may be outstanding here (a queued pipelined response
  // would arrive first, fail the id check and close the connection).
  recv_id_ = next_id_;
  TSO_RETURN_IF_ERROR(Flush());
  return ReadMatchingResponse(id, kind);
}

Status TsodClient::SendDistance(uint32_t s, uint32_t t,
                                uint64_t deadline_us) {
  if (!socket_.valid()) {
    return Status::FailedPrecondition("client not connected");
  }
  AppendDistanceRequest(&send_buf_, next_id_++, s, t, deadline_us);
  return send_buf_.size() >= kFlushBytes ? Flush() : Status::Ok();
}

StatusOr<double> TsodClient::RecvDistance() {
  if (recv_id_ == next_id_) {
    return Status::FailedPrecondition("no pipelined request outstanding");
  }
  auto response = ReadMatchingResponse(recv_id_++, kWireKindDistance);
  TSO_RETURN_IF_ERROR(response.status());
  return response.value().distance;
}

StatusOr<double> TsodClient::Distance(uint32_t s, uint32_t t,
                                      uint64_t deadline_us) {
  AppendDistanceRequest(&send_buf_, next_id_, s, t, deadline_us);
  auto response = Call(kWireKindDistance);
  TSO_RETURN_IF_ERROR(response.status());
  return response.value().distance;
}

StatusOr<std::vector<double>> TsodClient::Batch(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint64_t deadline_us) {
  AppendBatchRequest(&send_buf_, next_id_, pairs, deadline_us);
  auto response = Call(kWireKindBatch);
  TSO_RETURN_IF_ERROR(response.status());
  return std::move(response.value().distances);
}

StatusOr<std::vector<KnnResult>> TsodClient::Knn(uint32_t query, uint64_t k,
                                                 uint64_t deadline_us) {
  AppendKnnRequest(&send_buf_, next_id_, query, k, deadline_us);
  auto response = Call(kWireKindKnn);
  TSO_RETURN_IF_ERROR(response.status());
  return std::move(response.value().neighbors);
}

StatusOr<std::vector<uint32_t>> TsodClient::Range(uint32_t query,
                                                  double radius,
                                                  uint64_t deadline_us) {
  AppendRangeRequest(&send_buf_, next_id_, query, radius, deadline_us);
  auto response = Call(kWireKindRange);
  TSO_RETURN_IF_ERROR(response.status());
  return std::move(response.value().members);
}

StatusOr<WireServeStats> TsodClient::Stats() {
  AppendStatsRequest(&send_buf_, next_id_);
  auto response = Call(kWireKindStats);
  TSO_RETURN_IF_ERROR(response.status());
  return response.value().stats;
}

StatusOr<uint8_t> TsodClient::Health() {
  AppendHealthRequest(&send_buf_, next_id_);
  auto response = Call(kWireKindHealth);
  TSO_RETURN_IF_ERROR(response.status());
  return response.value().health;
}

}  // namespace tso
