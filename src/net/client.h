#ifndef TSO_NET_CLIENT_H_
#define TSO_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/socket.h"
#include "base/status.h"
#include "net/wire.h"

namespace tso {

/// A blocking client for the tsod wire protocol: one TCP connection, RPCs
/// issued either synchronously (Distance/Batch/Knn/Range/Stats/Health —
/// send, then block for the matching response) or pipelined
/// (SendDistance + RecvDistance, any number outstanding; responses arrive
/// in request order and are matched by request id).
///
/// The client buffers in both directions, so a pipelined window costs one
/// write and about one read instead of a few syscalls per RPC. Requests
/// leave the process only when the send buffer is flushed: by RecvDistance
/// when no complete response is buffered and it must block on the socket,
/// by every synchronous RPC (its frame goes out behind any queued
/// pipelined ones), by Flush(), or once the buffer passes a fixed 64 KiB.
/// Responses are read in chunks and handed out one frame at a time through
/// the shared DecodeFrame, so the client validates exactly what the server
/// does.
///
/// Application failures come back as the Status the engine produced
/// (kUnavailable shed, kDeadlineExceeded, kInvalidArgument for a bad POI
/// id, ...) — the connection stays usable. IO and protocol failures
/// (kIoError / kInternal) mean the connection is dead; Connect a new one.
/// A write failure surfaces from whichever call flushes.
///
/// Thread safety: none. One TsodClient per thread.
class TsodClient {
 public:
  TsodClient() = default;
  TsodClient(const TsodClient&) = delete;
  TsodClient& operator=(const TsodClient&) = delete;

  /// `deadline_us`, everywhere below: per-request deadline forwarded to
  /// the engine; 0 means the server default.
  Status Connect(const std::string& host, uint16_t port);
  bool connected() const { return socket_.valid(); }
  void Close() { socket_.Close(); }

  StatusOr<double> Distance(uint32_t s, uint32_t t, uint64_t deadline_us = 0);
  StatusOr<std::vector<double>> Batch(
      const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
      uint64_t deadline_us = 0);
  StatusOr<std::vector<KnnResult>> Knn(uint32_t query, uint64_t k,
                                       uint64_t deadline_us = 0);
  StatusOr<std::vector<uint32_t>> Range(uint32_t query, double radius,
                                        uint64_t deadline_us = 0);
  StatusOr<WireServeStats> Stats();
  StatusOr<uint8_t> Health();  // a ServeHealth value

  /// Pipelined distance RPCs: SendDistance queues the request without
  /// waiting; RecvDistance returns the oldest outstanding response's answer
  /// (the server answers in order; ids are verified), flushing queued
  /// requests first if it has to block. Keep the outstanding window
  /// bounded: batching does not change that the server writes responses
  /// inline, so an unread response backlog can deadlock both ends once the
  /// socket buffers fill (~128 outstanding is safe and saturating). Do not
  /// mix in synchronous RPCs while pipelined responses are outstanding.
  Status SendDistance(uint32_t s, uint32_t t, uint64_t deadline_us = 0);
  StatusOr<double> RecvDistance();

  /// Writes every queued request now (one write; a no-op when none are
  /// queued). For callers that need requests to reach the server before
  /// they next receive. Requests still queued when the client is closed
  /// or destroyed are dropped.
  Status Flush();

 private:
  /// Issues the request just appended to send_buf_ under id next_id_:
  /// flushes, then reads its response.
  StatusOr<WireResponse> Call(uint8_t kind);
  /// Hands out the next buffered response frame, reading from the socket
  /// (after a Flush) only when no complete frame is buffered.
  StatusOr<WireResponse> ReadResponse();
  /// Reads the response to `request_id`, checking id and kind; returns it
  /// only if it carries an OK status.
  StatusOr<WireResponse> ReadMatchingResponse(uint32_t request_id,
                                              uint8_t kind);

  Socket socket_;
  uint32_t next_id_ = 1;
  uint32_t recv_id_ = 1;  // oldest unreceived pipelined id; next_id_ if none
  std::string send_buf_;  // encoded requests not yet written
  std::string recv_buf_;  // bytes [recv_head_, recv_tail_) not yet handed out
  size_t recv_head_ = 0;
  size_t recv_tail_ = 0;
};

}  // namespace tso

#endif  // TSO_NET_CLIENT_H_
