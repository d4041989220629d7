#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "bench_util.h"

namespace perfbench {

using ssjoin::net::WireResponse;

Op OpStream::Next() {
  Op op;
  uint32_t roll = rng_.UniformU32(100);
  if (roll < source_.insert_pct) {
    op.kind = OpKind::kInsert;
    op.text = static_cast<uint32_t>(next_insert_ % source_.inserts->size());
    next_insert_ += stride_;
  } else if (roll < source_.insert_pct + source_.delete_pct) {
    op.kind = OpKind::kDelete;
    // Used only if the delete must fall back to a lookup.
    op.text = rng_.UniformU32(static_cast<uint32_t>(source_.lookups->size()));
  } else {
    op.kind = OpKind::kLookup;
    op.text = rng_.UniformU32(static_cast<uint32_t>(source_.lookups->size()));
  }
  return op;
}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

bool Connection::Open(uint16_t port, std::string* error) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

namespace {

/// Writes as much of `buffer` from `*offset` as the socket takes now.
bool FlushSome(int fd, const std::string& buffer, size_t* offset) {
  while (*offset < buffer.size()) {
    ssize_t n = write(fd, buffer.data() + *offset, buffer.size() - *offset);
    if (n > 0) {
      *offset += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  return true;
}

/// Drains the readable socket into `reader`. False on EOF, a socket
/// error or a malformed frame.
bool ReadAvailable(int fd, ssjoin::net::ResponseReader* reader,
                   std::vector<WireResponse>* out) {
  char buffer[65536];
  while (true) {
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      if (!reader->Feed(std::string_view(buffer, static_cast<size_t>(n)),
                        out)) {
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool Wait(int fd, short events, uint64_t timeout_ns) {
  struct pollfd pfd = {fd, events, 0};
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ull);
  return ppoll(&pfd, 1, &ts, nullptr) > 0;
}

/// Precise sleeps: the default 50µs timer slack would show up as
/// generator lateness.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

}  // namespace

bool Connection::Call(const std::string& line, WireResponse* response,
                      double timeout_s) {
  if (fd_ < 0) return false;
  std::string request = line + "\n";
  size_t offset = 0;
  const uint64_t deadline = NowNanos() + static_cast<uint64_t>(timeout_s * 1e9);
  std::vector<WireResponse> out;
  while (out.empty()) {
    uint64_t now = NowNanos();
    if (now >= deadline) return false;
    if (!FlushSome(fd_, request, &offset)) return false;
    short events = POLLIN | (offset < request.size() ? POLLOUT : 0);
    if (!Wait(fd_, events, deadline - now)) continue;
    if (!ReadAvailable(fd_, &reader_, &out)) {
      Close();
      return false;
    }
  }
  *response = std::move(out.front());
  return out.size() == 1;
}

std::string Connection::RequestLine(const OpSource& source, Op* op,
                                    ConnectionLog* log) {
  if (op->kind == OpKind::kDelete) {
    if (deletable_.empty()) {
      ++log->delete_fallbacks;
      op->kind = OpKind::kLookup;
    } else {
      RecordId id = deletable_.front();
      deletable_.pop_front();
      return "- " + std::to_string(id) + "\n";
    }
  }
  if (op->kind == OpKind::kInsert) {
    return "+ " + (*source.inserts)[op->text] + "\n";
  }
  return "? " + (*source.lookups)[op->text] + "\n";
}

void Connection::Complete(const Pending& pending, WireResponse* response,
                          uint64_t now_ns, bool keep_answers,
                          ConnectionLog* log) {
  const double latency_us =
      static_cast<double>(now_ns - pending.due_ns) * 1e-3;
  ++log->completed;
  log->last_completion_ns = now_ns;
  if (!response->ok) {
    ++log->failed;
    return;
  }
  unsigned long id = 0;
  switch (pending.op.kind) {
    case OpKind::kLookup:
      log->read_us.push_back(latency_us);
      if (keep_answers) {
        log->answers.emplace_back(pending.op.text,
                                  std::move(response->payload));
      }
      return;
    case OpKind::kInsert:
      log->write_us.push_back(latency_us);
      if (std::sscanf(response->payload.c_str(), "inserted %lu", &id) != 1) {
        ++log->failed;
        return;
      }
      log->inserted.emplace_back(static_cast<RecordId>(id), pending.op.text);
      deletable_.push_back(static_cast<RecordId>(id));
      return;
    case OpKind::kDelete:
      log->write_us.push_back(latency_us);
      if (std::sscanf(response->payload.c_str(), "deleted %lu", &id) != 1) {
        ++log->failed;
        return;
      }
      log->deleted.push_back(static_cast<RecordId>(id));
      return;
  }
}

void Connection::RunOpenLoop(const OpSource& source, const std::vector<Op>& ops,
                             uint64_t start_ns, uint64_t offset_ns,
                             uint64_t interval_ns, double drain_s,
                             bool keep_answers, ConnectionLog* log) {
  TightenTimerSlack();
  std::deque<Pending> in_flight;
  std::string out;
  size_t out_offset = 0;
  std::vector<WireResponse> responses;
  size_t next = 0;
  const uint64_t first_due = start_ns + offset_ns;
  const uint64_t deadline =
      first_due + ops.size() * interval_ns + static_cast<uint64_t>(drain_s * 1e9);
  bool broken = fd_ < 0;

  while (!broken && (next < ops.size() || !in_flight.empty())) {
    uint64_t now = NowNanos();
    if (now >= deadline) break;
    if (out_offset == out.size()) {
      out.clear();
      out_offset = 0;
    }
    while (next < ops.size() && first_due + next * interval_ns <= now) {
      Pending pending{first_due + next * interval_ns, ops[next]};
      out += RequestLine(source, &pending.op, log);
      log->late_us.push_back(static_cast<double>(now - pending.due_ns) * 1e-3);
      ++log->attempted;
      in_flight.push_back(pending);
      ++next;
    }
    if (!FlushSome(fd_, out, &out_offset)) {
      broken = true;
      break;
    }
    const uint64_t next_due = first_due + next * interval_ns;
    uint64_t wait_ns = deadline - now;
    if (next < ops.size()) wait_ns = next_due > now ? next_due - now : 0;
    short events = POLLIN | (out_offset < out.size() ? POLLOUT : 0);
    if (wait_ns > 0 && !Wait(fd_, events, wait_ns)) continue;
    if (!ReadAvailable(fd_, &reader_, &responses)) broken = true;
    now = NowNanos();
    for (WireResponse& response : responses) {
      if (in_flight.empty()) {
        broken = true;  // a response nobody asked for
        break;
      }
      Complete(in_flight.front(), &response, now, keep_answers, log);
      in_flight.pop_front();
    }
    responses.clear();
  }
  // Unanswered and never-sent requests are failures, not omissions.
  log->failed += in_flight.size();
  log->attempted += ops.size() - next;
  log->failed += ops.size() - next;
  if (broken || !in_flight.empty()) Close();
}

void Connection::RunClosedLoop(const OpSource& source,
                               const std::vector<Op>& ops, double timeout_s,
                               bool keep_answers, ConnectionLog* log) {
  TightenTimerSlack();
  std::vector<WireResponse> responses;
  size_t next = 0;
  for (; next < ops.size() && fd_ >= 0; ++next) {
    Pending pending{NowNanos(), ops[next]};
    std::string line = RequestLine(source, &pending.op, log);
    ++log->attempted;
    size_t offset = 0;
    const uint64_t deadline =
        pending.due_ns + static_cast<uint64_t>(timeout_s * 1e9);
    bool done = false;
    while (!done) {
      uint64_t now = NowNanos();
      if (now >= deadline || !FlushSome(fd_, line, &offset)) break;
      short events = POLLIN | (offset < line.size() ? POLLOUT : 0);
      if (!Wait(fd_, events, deadline - now)) continue;
      if (!ReadAvailable(fd_, &reader_, &responses)) break;
      if (responses.empty()) continue;
      if (responses.size() != 1) break;
      Complete(pending, &responses.front(), NowNanos(), keep_answers, log);
      responses.clear();
      done = true;
    }
    if (!done) {
      ++log->failed;
      Close();
    }
  }
  // Requests a broken connection never sent are failures too.
  log->attempted += ops.size() - next;
  log->failed += ops.size() - next;
}

}  // namespace perfbench
