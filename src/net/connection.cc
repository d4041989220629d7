#include "net/connection.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

namespace ssjoin::net {

NetStats ServerCounters::Snapshot() const {
  NetStats stats;
  stats.connections_accepted =
      connections_accepted.load(std::memory_order_relaxed);
  stats.active_connections =
      active_connections.load(std::memory_order_relaxed);
  stats.requests = requests.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
  stats.idle_closes = idle_closes.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written.load(std::memory_order_relaxed);
  return stats;
}

Connection::Connection(int fd, EventLoop* loop,
                       const ServiceDispatcher* dispatcher,
                       ServerCounters* counters, size_t max_request_bytes)
    : fd_(fd),
      loop_(loop),
      dispatcher_(dispatcher),
      counters_(counters),
      max_request_bytes_(max_request_bytes),
      framer_(max_request_bytes),
      last_activity_ms_(MonotonicMillis()) {}

Connection::~Connection() {
  if (!closed_) ::close(fd_);
}

void Connection::Register(EventLoop::IoCallback callback) {
  armed_events_ = EPOLLIN;
  loop_->Add(fd_, armed_events_, std::move(callback));
}

void Connection::CloseNow() {
  if (closed_) return;
  loop_->Remove(fd_);
  ::close(fd_);
  closed_ = true;
}

void Connection::StartDrain() {
  if (closed_) return;
  reading_ = false;
  close_after_flush_ = true;
  if (OutboxPending() == 0) {
    CloseNow();
    return;
  }
  Flush();
  if (!closed_) UpdateInterest();
}

void Connection::OnEvent(uint32_t events) {
  if (closed_) return;
  last_activity_ms_ = MonotonicMillis();
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseNow();
    return;
  }
  if ((events & EPOLLIN) && reading_) ReadInput();
  if (closed_) return;
  Flush();
  if (closed_) return;
  UpdateInterest();
}

void Connection::ReadInput() {
  char buffer[65536];
  std::vector<Request> parsed;
  std::string framing_error;
  while (reading_) {
    ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n > 0) {
      counters_->bytes_read.fetch_add(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
      bool ok = framer_.Feed(
          std::string_view(buffer, static_cast<size_t>(n)),
          [&parsed](std::string_view line) {
            parsed.push_back(ParseRequest(line));
          });
      if (!ok) {
        // One hostile client must not pin this worker: answer whatever
        // parsed cleanly, then one ERR, then close.
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        framing_error = "request line exceeds " +
                        std::to_string(max_request_bytes_) +
                        " bytes; closing connection";
        reading_ = false;
        close_after_flush_ = true;
      }
      // Bound the work (and outbox growth) of one dispatch round: with
      // a deep pipeline the backpressure check must get a chance to run.
      if (OutboxPending() + parsed.size() * 64 > kHighWatermark) break;
      continue;
    }
    if (n == 0) {
      // Peer half-close: answer everything received, then close.
      reading_ = false;
      close_after_flush_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseNow();
    return;
  }
  for (const Request& request : parsed) {
    // Blank lines are no-ops with no response frame.
    if (request.type == RequestType::kNone) continue;
    counters_->requests.fetch_add(1, std::memory_order_relaxed);
    if (request.type == RequestType::kMalformed) {
      counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    }
    const Response response = dispatcher_->Execute(request);
    outbox_ += response.ok ? OkFrame(response.payload)
                           : ErrFrame(response.payload);
  }
  if (!framing_error.empty()) outbox_ += ErrFrame(framing_error);
}

void Connection::Flush() {
  while (OutboxPending() > 0) {
    ssize_t n = ::write(fd_, outbox_.data() + outbox_offset_,
                        outbox_.size() - outbox_offset_);
    if (n > 0) {
      counters_->bytes_written.fetch_add(static_cast<uint64_t>(n),
                                         std::memory_order_relaxed);
      outbox_offset_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseNow();  // EPIPE / ECONNRESET and friends
    return;
  }
  outbox_.clear();
  outbox_offset_ = 0;
  if (close_after_flush_) CloseNow();
}

void Connection::UpdateInterest() {
  uint32_t want = 0;
  if (reading_ && OutboxPending() < kHighWatermark) want |= EPOLLIN;
  if (OutboxPending() > 0) want |= EPOLLOUT;
  if (want != armed_events_) {
    loop_->Modify(fd_, want);
    armed_events_ = want;
  }
}

}  // namespace ssjoin::net
