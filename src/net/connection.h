#ifndef SSJOIN_NET_CONNECTION_H_
#define SSJOIN_NET_CONNECTION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "net/event_loop.h"
#include "net/wire.h"
#include "serve/protocol.h"
#include "serve/service_stats.h"

namespace ssjoin::net {

/// Shared front-end counters, written by the acceptor and every worker
/// thread, snapshotted into a NetStats for the stats JSON. Relaxed
/// ordering: these are monitoring counters, not synchronization.
struct ServerCounters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> active_connections{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> idle_closes{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};

  NetStats Snapshot() const;
};

/// One accepted client socket, owned by exactly one worker event loop —
/// every method runs on that loop's thread, so a connection needs no
/// locking of its own. Reads request lines through a LineFramer, parses
/// them with the shared serve/protocol grammar, executes them one at a
/// time through the worker-shared ServiceDispatcher, and writes
/// length-delimited response frames back in request order.
///
/// Flow control: responses queue in an outbox flushed opportunistically
/// and via EPOLLOUT; while the outbox holds more than kHighWatermark
/// unsent bytes the connection stops reading (EPOLLIN disarmed), so a
/// client that pipelines faster than it drains responses is throttled by
/// TCP instead of ballooning worker memory. A request line longer than
/// `max_request_bytes` is answered with one ERR frame after any
/// already-parsed requests, then the connection closes.
class Connection {
 public:
  Connection(int fd, EventLoop* loop, const ServiceDispatcher* dispatcher,
             ServerCounters* counters, size_t max_request_bytes);
  /// Closes the socket if still open. Never touches the loop — callers
  /// deregister via CloseNow() first (destruction happens outside event
  /// dispatch, in the owning worker).
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers the socket with the loop. `callback` must route events
  /// back to OnEvent (the worker owns the fd→connection map).
  void Register(EventLoop::IoCallback callback);

  /// Handles one epoll readiness mask.
  void OnEvent(uint32_t events);

  /// Graceful-shutdown entry: stop reading, flush what is queued, close
  /// when the outbox empties (immediately when it already is).
  void StartDrain();

  /// Deregisters from the loop and closes the socket. Idempotent.
  void CloseNow();

  bool closed() const { return closed_; }
  /// Monotonic ms of the last read/write/accept activity (idle reaping).
  uint64_t last_activity_ms() const { return last_activity_ms_; }

 private:
  static constexpr size_t kHighWatermark = size_t{1} << 20;  // 1 MiB

  void ReadInput();
  void Flush();
  void UpdateInterest();
  size_t OutboxPending() const { return outbox_.size() - outbox_offset_; }

  int fd_;
  EventLoop* loop_;
  const ServiceDispatcher* dispatcher_;
  ServerCounters* counters_;
  size_t max_request_bytes_;
  LineFramer framer_;

  std::string outbox_;
  size_t outbox_offset_ = 0;
  uint32_t armed_events_ = 0;
  bool reading_ = true;           // false after EOF, framing error, drain
  bool close_after_flush_ = false;
  bool closed_ = false;
  uint64_t last_activity_ms_;
};

}  // namespace ssjoin::net

#endif  // SSJOIN_NET_CONNECTION_H_
