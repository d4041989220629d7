// The benchmark's network client for ssjoin_server, built on net/wire's
// ResponseReader. One thread per connection, one connection per thread;
// every request is accounted for — answered, ERR, transport failure or
// timeout — so error_rate never silently drops a request.
//
// Two loops share the op streams:
//   * RunOpenLoop sends on a fixed schedule (constant spacing per
//     connection, connections staggered) whatever the server's progress;
//     latency is timed from each request's DUE time, so a stall counts
//     against every request queued behind it, and the generator's own
//     lateness (send time - due time) is recorded per request.
//   * RunClosedLoop keeps exactly one request in flight per connection
//     through a fixed list of ops; completed requests per second is
//     capacity. A fixed op count (not a fixed duration) keeps the state a
//     mixed workload leaves behind independent of the server's speed.
#ifndef SSJOIN_PERFBENCH_CLIENT_H_
#define SSJOIN_PERFBENCH_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "data/record.h"
#include "net/wire.h"
#include "util/rng.h"

namespace perfbench {

using ssjoin::RecordId;

enum class OpKind : uint8_t { kLookup, kInsert, kDelete };

/// One scheduled operation. `text` indexes the lookup pool (kLookup) or
/// the insert pool (kInsert); a kDelete picks its target id at send time.
struct Op {
  OpKind kind = OpKind::kLookup;
  uint32_t text = 0;
};

/// The texts requests draw from, and the op mix in percent.
struct OpSource {
  const std::vector<std::string>* lookups = nullptr;
  const std::vector<std::string>* inserts = nullptr;
  uint32_t insert_pct = 0;
  uint32_t delete_pct = 0;
};

/// Deterministic per-connection op stream: connection `c` of `n` inserts
/// the insert-pool entries c, c + n, c + 2n, ... (wrapping), so no two
/// connections insert the same entry.
class OpStream {
 public:
  OpStream(const OpSource& source, uint64_t seed, uint32_t connection,
           uint32_t connections)
      : source_(source),
        rng_(seed * 0x9E3779B97F4A7C15ull + connection + 1),
        next_insert_(connection),
        stride_(connections) {}

  Op Next();

 private:
  OpSource source_;
  ssjoin::Rng rng_;
  uint64_t next_insert_;
  uint32_t stride_;
};

/// What one connection observed, accumulated across phases.
struct ConnectionLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;          // ERR frames, transport failures, timeouts
  uint64_t delete_fallbacks = 0;  // deletes sent as lookups (nothing acked)
  std::vector<double> read_us;   // lookup latency
  std::vector<double> write_us;  // insert/delete latency
  std::vector<double> late_us;   // open loop: send time - due time
  /// (lookup pool index, OK payload) for every answered lookup.
  std::vector<std::pair<uint32_t, std::string>> answers;
  /// Acknowledged inserts (id, insert pool index) and deletes.
  std::vector<std::pair<RecordId, uint32_t>> inserted;
  std::vector<RecordId> deleted;
  uint64_t completed = 0;
  uint64_t last_completion_ns = 0;

  void ClearLatencies() {
    read_us.clear();
    write_us.clear();
    late_us.clear();
  }
};

/// One client connection and the ids it inserted and may still delete.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(uint16_t port, std::string* error);
  bool open() const { return fd_ >= 0; }

  /// Sends one request line (without '\n') and waits for its response.
  bool Call(const std::string& line, ssjoin::net::WireResponse* response,
            double timeout_s);

  /// Open loop over `ops`: op i is due at start_ns + offset_ns +
  /// i * interval_ns. Waits up to `drain_s` after the last send for
  /// outstanding responses; whatever is still missing counts as failed.
  void RunOpenLoop(const OpSource& source, const std::vector<Op>& ops,
                   uint64_t start_ns, uint64_t offset_ns, uint64_t interval_ns,
                   double drain_s, bool keep_answers, ConnectionLog* log);

  /// Closed loop over `ops`: one request in flight at a time.
  void RunClosedLoop(const OpSource& source, const std::vector<Op>& ops,
                     double timeout_s, bool keep_answers, ConnectionLog* log);

 private:
  struct Pending {
    uint64_t due_ns;
    Op op;
  };
  /// Resolves `op` into a request line (a delete takes the oldest
  /// acknowledged id this connection inserted, or falls back to a lookup).
  std::string RequestLine(const OpSource& source, Op* op, ConnectionLog* log);
  void Complete(const Pending& pending, ssjoin::net::WireResponse* response,
                uint64_t now_ns, bool keep_answers, ConnectionLog* log);
  void Close();

  int fd_ = -1;
  ssjoin::net::ResponseReader reader_;
  std::deque<RecordId> deletable_;
};

}  // namespace perfbench

#endif  // SSJOIN_PERFBENCH_CLIENT_H_
