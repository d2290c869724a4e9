#ifndef PERFBENCH_HTTP_LOAD_H_
#define PERFBENCH_HTTP_LOAD_H_

/// \file http_load.h
/// A single-threaded HTTP/1.1 load generator over non-blocking keep-alive
/// connections, and the incremental response reader it uses. (The
/// library's serve::HttpClient blocks on one connection; an open loop
/// must keep sending on schedule while responses are outstanding.)

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Incremental HTTP/1.1 response reader (Content-Length or chunked). The
/// body is hashed as it arrives rather than kept.
class ResponseReader {
 public:
  /// Consumes \p data; returns false when the response is malformed or
  /// bytes follow a complete response.
  bool Feed(std::string_view data);
  /// The peer closed the connection; completes a body delimited by close.
  void OnEof();
  void Reset() { *this = ResponseReader(); }

  bool done() const { return state_ == State::kDone; }
  int status() const { return status_; }
  bool keep_alive() const { return keep_alive_; }
  uint64_t body_hash() const { return body_hash_; }
  uint64_t body_bytes() const { return body_bytes_; }

 private:
  enum class State {
    kHead, kBody, kBodyToEof, kChunkSize, kChunkData, kChunkEnd, kTrailer,
    kDone,
  };
  bool ParseHead(std::string_view head);
  void Body(std::string_view data);

  State state_ = State::kHead;
  std::string buf_;
  uint64_t remaining_ = 0;
  int status_ = 0;
  bool keep_alive_ = true;
  uint64_t body_hash_ = 1469598103934665603ULL;
  uint64_t body_bytes_ = 0;
};

/// One request as the generator saw it.
struct HttpSample {
  size_t request = 0;             ///< index into the phase's requests
  Clock::time_point scheduled{};  ///< when it was due
  Clock::time_point released{};   ///< when the generator queued it
  Clock::time_point sent{};
  Clock::time_point done{};       ///< last response byte
  int status = 0;                 ///< 0 = no complete response
  uint64_t body_hash = 0;
  uint64_t body_bytes = 0;

  double LatencyMs() const { return Ms(done - scheduled); }
  double ServiceMs() const { return Ms(done - sent); }
  /// How late the generator itself queued the request; waiting for a busy
  /// connection after that is the server's doing, not the generator's.
  double LagMs() const { return Ms(released - scheduled); }
};

/// Sends \p requests (complete HTTP/1.1 request bytes) to 127.0.0.1:port
/// as an open loop at \p rate per second over \p connections fresh
/// keep-alive connections. Request k is due at start + k / rate on
/// connection k % connections and is timed from that instant. A
/// connection carries one request at a time, so a due request waits for
/// its connection and that wait counts in its latency. A connection is
/// closed once it has nothing left to send, and every request sent is
/// waited for.
std::vector<HttpSample> RunOpenLoop(uint16_t port,
                                    const std::vector<std::string>& requests,
                                    double rate, int connections);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_LOAD_H_
