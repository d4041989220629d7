#include "net/wire.h"

#include <algorithm>
#include <cstdio>

#include "serve/protocol.h"

namespace ssjoin::net {

namespace {
/// Upper bound on any single speculative payload reserve. A header may
/// legally claim a payload up to max_payload_bytes, but the buffer must
/// only ever be sized ahead of the bytes that actually arrived — a
/// hostile or buggy peer announcing "OK <huge>" and then stalling must
/// not pin that allocation.
constexpr size_t kPayloadReserveChunk = size_t{64} << 10;
}  // namespace

bool LineFramer::Feed(std::string_view data,
                      FunctionRef<void(std::string_view)> sink) {
  if (poisoned_) return false;
  size_t begin = 0;
  while (begin < data.size()) {
    size_t newline = data.find('\n', begin);
    if (newline == std::string_view::npos) {
      if (buffer_.size() + (data.size() - begin) > max_line_bytes_) {
        poisoned_ = true;
        buffer_.clear();
        return false;
      }
      buffer_.append(data.substr(begin));
      return true;
    }
    std::string_view tail = data.substr(begin, newline - begin);
    if (buffer_.size() + tail.size() > max_line_bytes_) {
      poisoned_ = true;
      buffer_.clear();
      return false;
    }
    std::string_view line;
    if (buffer_.empty()) {
      line = tail;  // whole line inside this chunk: no copy
    } else {
      buffer_.append(tail);
      line = buffer_;
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    sink(line);
    buffer_.clear();
    begin = newline + 1;
  }
  return true;
}

std::string OkFrame(std::string_view payload) {
  char header[32];
  int n = std::snprintf(header, sizeof(header), "OK %zu\n", payload.size());
  std::string out(header, static_cast<size_t>(n));
  out.append(payload);
  return out;
}

std::string ErrFrame(std::string_view message) {
  std::string out = "ERR ";
  out.append(message);
  out.push_back('\n');
  return out;
}

bool ResponseReader::Feed(std::string_view data,
                          std::vector<WireResponse>* out) {
  size_t begin = 0;
  while (begin < data.size()) {
    if (in_payload_) {
      size_t take = data.size() - begin;
      if (take > payload_needed_) take = payload_needed_;
      if (current_.payload.size() + take > current_.payload.capacity()) {
        // Grow toward the announced length one capped chunk at a time so
        // capacity tracks delivered bytes, not the header's claim.
        current_.payload.reserve(
            current_.payload.size() +
            std::max(take, std::min(payload_needed_, kPayloadReserveChunk)));
      }
      current_.payload.append(data.substr(begin, take));
      payload_needed_ -= take;
      begin += take;
      if (payload_needed_ == 0) {
        out->push_back(std::move(current_));
        current_ = WireResponse{};
        in_payload_ = false;
      }
      continue;
    }
    size_t newline = data.find('\n', begin);
    if (newline == std::string_view::npos) {
      buffer_.append(data.substr(begin));
      // An unbounded "header" is as hostile as an unbounded payload.
      return buffer_.size() <= max_payload_bytes_;
    }
    buffer_.append(data.substr(begin, newline - begin));
    begin = newline + 1;
    // The same bound as for an unterminated header, so the outcome never
    // depends on where the stream was split.
    if (buffer_.size() > max_payload_bytes_) return false;
    std::string header;
    header.swap(buffer_);
    if (header.rfind("ERR ", 0) == 0) {
      out->push_back(WireResponse{false, header.substr(4)});
      continue;
    }
    if (header.rfind("OK ", 0) != 0) return false;
    uint64_t length = 0;
    if (!ParseUint64Text(std::string_view(header).substr(3), &length) ||
        length > max_payload_bytes_) {
      return false;
    }
    if (length == 0) {
      out->push_back(WireResponse{true, ""});
      continue;
    }
    current_.ok = true;
    current_.payload.clear();
    current_.payload.shrink_to_fit();
    current_.payload.reserve(static_cast<size_t>(
        std::min<uint64_t>(length, kPayloadReserveChunk)));
    payload_needed_ = static_cast<size_t>(length);
    in_payload_ = true;
  }
  return true;
}

}  // namespace ssjoin::net
