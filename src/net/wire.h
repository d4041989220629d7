#ifndef SSJOIN_NET_WIRE_H_
#define SSJOIN_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/function_ref.h"

namespace ssjoin::net {

/// The wire format. Requests are newline-delimited command lines in the
/// shared serve/protocol grammar; one trailing '\r' is stripped per line
/// so CRLF clients (telnet, netcat -C) speak it unmodified. Responses
/// are length-delimited frames so a client can recover multi-line query
/// payloads without sniffing their shape:
///
///   "OK <payload-bytes>\n" <payload-bytes bytes>
///   "ERR <one-line message>\n"
///
/// An OK payload is the EXACT byte sequence the ssjoin_serve REPL would
/// have printed for the same command — match lines, stats JSON, insert/
/// delete/compact acknowledgements — which is what makes network answers
/// comparable bit-for-bit against a directly-driven SimilarityService.
/// Requests may be pipelined back-to-back; responses come back in
/// request order on each connection.

/// Incremental request-line splitter with a hostile-input size guard.
/// Bytes accumulate across Feed calls until a '\n' completes a line; a
/// line longer than `max_line_bytes` poisons the framer (Feed returns
/// false and the connection is expected to send one ERR and close — a
/// client streaming an unbounded line must not balloon worker memory).
class LineFramer {
 public:
  explicit LineFramer(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends bytes and invokes `sink` once per completed line, in order,
  /// without the '\n' (and without a final '\r', if any). Returns false
  /// — emitting nothing further — once the size guard trips.
  bool Feed(std::string_view data, FunctionRef<void(std::string_view)> sink);

  /// Bytes of an unterminated trailing line buffered so far.
  size_t pending_bytes() const { return buffer_.size(); }
  bool poisoned() const { return poisoned_; }

 private:
  size_t max_line_bytes_;
  std::string buffer_;
  bool poisoned_ = false;
};

/// Frames one successful response payload.
std::string OkFrame(std::string_view payload);
/// Frames one error (the message must be newline-free).
std::string ErrFrame(std::string_view message);

/// One decoded response frame.
struct WireResponse {
  bool ok = false;
  std::string payload;  // OK payload bytes, or the ERR message
};

/// Incremental client-side decoder for the response framing; used by the
/// load generator and the loopback tests. Feed bytes as they arrive;
/// completed responses append to out, in order. Returns false on a
/// malformed header (not "OK <n>" / "ERR ...", longer than
/// `max_payload_bytes`, or an OK length above it), after which the
/// stream is unrecoverable.
class ResponseReader {
 public:
  explicit ResponseReader(size_t max_payload_bytes = size_t{1} << 30)
      : max_payload_bytes_(max_payload_bytes) {}

  bool Feed(std::string_view data, std::vector<WireResponse>* out);

  /// True while no partial frame is buffered (a clean stream boundary).
  bool idle() const { return buffer_.empty() && !in_payload_; }

  /// Capacity of the in-flight payload buffer. Exposed so tests can
  /// prove that a header announcing a huge payload does not reserve the
  /// claimed length up front — capacity must track delivered bytes.
  size_t payload_capacity() const { return current_.payload.capacity(); }

 private:
  size_t max_payload_bytes_;
  std::string buffer_;
  bool in_payload_ = false;   // header parsed, collecting payload bytes
  size_t payload_needed_ = 0;
  WireResponse current_;
};

}  // namespace ssjoin::net

#endif  // SSJOIN_NET_WIRE_H_
