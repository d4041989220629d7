// Loopback integration tests for the network front door: an in-process
// SimilarityServer driven over real 127.0.0.1 sockets. The acceptance
// bar is byte-identity — every OK payload must be the exact byte
// sequence a directly-driven ServiceDispatcher produces for the same
// command — across shard counts, with pipelining, and under concurrent
// clients. Also covered: ordered pipelined responses, graceful
// shutdown, idle-timeout reaping, the oversize-request guard, ERR
// parity with the REPL, and the net counters. The concurrent tests
// double as the TSan stress run (tools/run_tsan_tests.sh).

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard_predicate.h"
#include "data/corpus_builder.h"
#include "net/wire.h"
#include "serve/protocol.h"
#include "serve/similarity_service.h"
#include "text/token_dictionary.h"

namespace ssjoin {
namespace {

std::vector<std::string> CorpusLines() {
  return {
      "efficient set joins on similarity predicates",
      "efficient set joins with similarity predicates",
      "an unrelated record about inverted indexes",
      "set joins on similarity predicates",
      "totally different text entirely",
      "another record about probe clusters and joins",
      "band partitions for weighted overlap joins",
      "tokenizing text into words and grams",
  };
}

/// Blocking loopback client with a receive timeout so a server bug
/// fails the test instead of hanging it.
class LoopbackClient {
 public:
  explicit LoopbackClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    if (fd_ < 0) return;
    struct timeval timeout = {10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LoopbackClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      ASSERT_GT(n, 0) << "write failed mid-request";
      off += static_cast<size_t>(n);
    }
  }

  /// Reads until `count` responses decode (fails the test on timeout,
  /// EOF, or a framing violation).
  std::vector<net::WireResponse> Read(size_t count) {
    std::vector<net::WireResponse> responses;
    while (responses.size() < count) {
      char buffer[65536];
      ssize_t n = ::read(fd_, buffer, sizeof(buffer));
      EXPECT_GT(n, 0) << "connection closed or timed out mid-response";
      if (n <= 0) break;
      EXPECT_TRUE(reader_.Feed(
          std::string_view(buffer, static_cast<size_t>(n)), &responses));
    }
    return responses;
  }

  /// True if the server closes the connection (EOF) within the receive
  /// timeout; drains and ignores any bytes sent before the close.
  bool ReadEof() {
    while (true) {
      char buffer[4096];
      ssize_t n = ::read(fd_, buffer, sizeof(buffer));
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  net::ResponseReader* reader() { return &reader_; }

 private:
  int fd_ = -1;
  bool connected_ = false;
  net::ResponseReader reader_;
};

/// An in-process server over a fresh service, plus the directly-driven
/// twin the network answers are compared against byte for byte.
class ServerFixture {
 public:
  explicit ServerFixture(size_t num_shards,
                         net::ServerOptions net_options = {}) {
    ServiceOptions service_options;
    service_options.num_shards = num_shards;
    service_ = std::make_unique<SimilarityService>(
        BuildWordCorpus(CorpusLines(), &dict_), pred_, service_options);
    server_ = std::make_unique<net::SimilarityServer>(
        service_.get(),
        [this](std::string_view line) {
          std::lock_guard<std::mutex> lock(tokenize_mutex_);
          return BuildWordCorpus({std::string(line)}, &dict_);
        },
        /*before_insert=*/nullptr, net_options);
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_NE(server_->port(), 0);
  }

  uint16_t port() const { return server_->port(); }
  net::SimilarityServer* server() { return server_.get(); }
  SimilarityService* service() { return service_.get(); }

  /// Waits until the server has reaped every closed connection.
  void WaitForActiveConnections(uint64_t want) {
    for (int i = 0; i < 500; ++i) {
      if (server_->net_stats().active_connections == want) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server_->net_stats().active_connections, want);
  }

 private:
  TokenDictionary dict_;
  std::mutex tokenize_mutex_;
  JaccardPredicate pred_{0.5};
  std::unique_ptr<SimilarityService> service_;
  std::unique_ptr<net::SimilarityServer> server_;
};

/// The directly-driven twin: same corpus, its own dictionary and
/// service, commands executed one at a time exactly as the REPL would.
class Twin {
 public:
  Twin() {
    ServiceOptions options;  // shard count is answer-invariant
    service_ = std::make_unique<SimilarityService>(
        BuildWordCorpus(CorpusLines(), &dict_), pred_, options);
    dispatcher_ = std::make_unique<ServiceDispatcher>(
        service_.get(), [this](std::string_view line) {
          return BuildWordCorpus({std::string(line)}, &dict_);
        });
  }

  Response Run(const std::string& line) {
    return dispatcher_->Execute(ParseRequest(line));
  }

 private:
  TokenDictionary dict_;
  JaccardPredicate pred_{0.5};
  std::unique_ptr<SimilarityService> service_;
  std::unique_ptr<ServiceDispatcher> dispatcher_;
};

/// The mutation schedule both sides run: queries (consecutive ones
/// pipelined back to back), inserts, deletes (one hit, one miss, one
/// malformed), top-k, compaction.
std::vector<std::string> MutationSchedule() {
  return {
      "efficient set joins on similarity predicates",
      "set joins on similarity predicates",
      "band partitions for weighted overlap joins",
      "+ a new record about efficient joins",
      "a new record about efficient joins",
      "- 1",
      "efficient set joins on similarity predicates",
      "?k 3 set joins on similarity predicates",
      "! compact",
      "efficient set joins with similarity predicates",
      "- 999999",
      "- bogus",
      "+ another record inserted over the wire",
      "another record inserted over the wire",
  };
}

// -------------------------------------------------------------------

TEST(NetLoopbackTest, PipelinedScheduleIsByteIdenticalAcrossShards) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerFixture fx(shards);
    LoopbackClient client(fx.port());
    ASSERT_TRUE(client.connected());

    // The whole schedule in ONE write: the server sees it as a
    // pipelined burst and must answer in order.
    std::vector<std::string> schedule = MutationSchedule();
    std::string burst;
    for (const std::string& line : schedule) burst += line + "\n";
    client.Send(burst);
    std::vector<net::WireResponse> responses = client.Read(schedule.size());
    ASSERT_EQ(responses.size(), schedule.size());

    Twin twin;
    for (size_t i = 0; i < schedule.size(); ++i) {
      Response expected = twin.Run(schedule[i]);
      EXPECT_EQ(responses[i].ok, expected.ok) << schedule[i];
      EXPECT_EQ(responses[i].payload, expected.payload) << schedule[i];
    }
  }
}

TEST(NetLoopbackTest, StatsCarriesTheNetSection) {
  ServerFixture fx(2);
  LoopbackClient client(fx.port());
  ASSERT_TRUE(client.connected());
  client.Send("? stats\n");
  std::vector<net::WireResponse> responses = client.Read(1);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok);
  EXPECT_NE(responses[0].payload.find("\"point_queries\""),
            std::string::npos);
  for (const char* counter :
       {"\"net\"", "\"connections_accepted\"", "\"active_connections\"",
        "\"requests\"", "\"protocol_errors\""}) {
    EXPECT_NE(responses[0].payload.find(counter), std::string::npos)
        << counter;
  }
}

TEST(NetLoopbackTest, ErrStringsMatchTheReplAndKeepTheConnectionOpen) {
  ServerFixture fx(1);
  LoopbackClient client(fx.port());
  ASSERT_TRUE(client.connected());
  client.Send("- xyz\n");
  std::vector<net::WireResponse> responses = client.Read(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].payload,
            "malformed delete '- xyz' (want '- <id>')");
  // A protocol-level (not framing-level) error is recoverable: the next
  // command still answers.
  client.Send("? stats\n");
  responses = client.Read(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_GE(fx.server()->net_stats().protocol_errors, 1u);
}

TEST(NetLoopbackTest, ConcurrentPipelinedClientsSeeIdenticalAnswers) {
  ServerFixture fx(2);
  // Expected answers computed in-process BEFORE the clients run;
  // queries mutate nothing, so they stay valid throughout.
  std::vector<std::string> queries = CorpusLines();
  Twin twin;
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    Response r = twin.Run(q);
    ASSERT_TRUE(r.ok);
    expected.push_back(r.payload);
  }

  constexpr int kClients = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopbackClient client(fx.port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // Rotate the starting query per client so the batches differ.
        std::string burst;
        for (size_t q = 0; q < queries.size(); ++q) {
          burst += queries[(q + c) % queries.size()] + "\n";
        }
        client.Send(burst);
        std::vector<net::WireResponse> responses =
            client.Read(queries.size());
        if (responses.size() != queries.size()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t q = 0; q < queries.size(); ++q) {
          if (!responses[q].ok ||
              responses[q].payload != expected[(q + c) % queries.size()]) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(fx.server()->net_stats().requests,
            static_cast<uint64_t>(kClients) * kRounds * queries.size());
}

// The TSan stress: pipelined query clients racing a writer connection
// that inserts and deletes through the same front door. Answers may
// change under their feet; the invariants are framing integrity,
// per-connection ordering (the writer's own inserts/deletes must all
// acknowledge) and no data races.
TEST(NetLoopbackTest, QueriesRaceAWriterWithoutTearing) {
  ServerFixture fx(2);
  constexpr int kReaders = 4;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&] {
      LoopbackClient client(fx.port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<std::string> queries = CorpusLines();
      for (int round = 0; round < kRounds; ++round) {
        std::string burst;
        for (const std::string& q : queries) burst += q + "\n";
        client.Send(burst);
        std::vector<net::WireResponse> responses =
            client.Read(queries.size());
        if (responses.size() != queries.size()) {
          failures.fetch_add(1);
          return;
        }
        for (const net::WireResponse& r : responses) {
          if (!r.ok) failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    LoopbackClient writer(fx.port());
    if (!writer.connected()) {
      failures.fetch_add(1);
      return;
    }
    for (int round = 0; round < kRounds; ++round) {
      std::string burst;
      for (int i = 0; i < 4; ++i) {
        burst += "+ transient record number " + std::to_string(round) +
                 " " + std::to_string(i) + "\n";
      }
      writer.Send(burst);
      std::vector<net::WireResponse> acks = writer.Read(4);
      if (acks.size() != 4) {
        failures.fetch_add(1);
        return;
      }
      std::string deletes;
      for (const net::WireResponse& ack : acks) {
        if (!ack.ok || ack.payload.rfind("inserted ", 0) != 0) {
          failures.fetch_add(1);
          return;
        }
        // "inserted <id>\n" -> "- <id>\n"
        deletes += "- " + ack.payload.substr(9, ack.payload.size() - 10) +
                   "\n";
      }
      if (round % 5 == 4) deletes += "! compact\n";
      writer.Send(deletes);
      std::vector<net::WireResponse> dels =
          writer.Read(round % 5 == 4 ? 5 : 4);
      for (const net::WireResponse& del : dels) {
        if (!del.ok) failures.fetch_add(1);
      }
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(NetLoopbackTest, ShutdownDrainsThenClosesConnections) {
  ServerFixture fx(1);
  LoopbackClient client(fx.port());
  ASSERT_TRUE(client.connected());
  client.Send("efficient set joins on similarity predicates\n");
  std::vector<net::WireResponse> responses = client.Read(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok);

  fx.server()->Shutdown();
  // The drained connection is closed from the server side...
  EXPECT_TRUE(client.ReadEof());
  // ...and the listener no longer accepts.
  LoopbackClient late(fx.port());
  if (late.connected()) {
    EXPECT_TRUE(late.ReadEof());
  }
  EXPECT_EQ(fx.server()->net_stats().active_connections, 0u);
}

TEST(NetLoopbackTest, IdleConnectionsAreReaped) {
  net::ServerOptions options;
  options.idle_timeout_ms = 50;
  ServerFixture fx(1, options);
  LoopbackClient client(fx.port());
  ASSERT_TRUE(client.connected());
  // Never send a byte: the reaper must close us.
  EXPECT_TRUE(client.ReadEof());
  fx.WaitForActiveConnections(0);
  EXPECT_GE(fx.server()->net_stats().idle_closes, 1u);
}

TEST(NetLoopbackTest, OversizeRequestGetsOneErrThenClose) {
  net::ServerOptions options;
  options.max_request_bytes = 64;
  ServerFixture fx(1, options);
  LoopbackClient client(fx.port());
  ASSERT_TRUE(client.connected());
  client.Send(std::string(200, 'a'));  // no newline: an unbounded line
  std::vector<net::WireResponse> responses = client.Read(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_NE(responses[0].payload.find("exceeds"), std::string::npos);
  EXPECT_TRUE(client.ReadEof());
  fx.WaitForActiveConnections(0);
  EXPECT_GE(fx.server()->net_stats().protocol_errors, 1u);
}

TEST(NetLoopbackTest, CountersTrackConnectionsAndRequests) {
  ServerFixture fx(1);
  {
    LoopbackClient first(fx.port());
    ASSERT_TRUE(first.connected());
    first.Send("? stats\nefficient set joins on similarity predicates\n");
    EXPECT_EQ(first.Read(2).size(), 2u);
  }
  {
    LoopbackClient second(fx.port());
    ASSERT_TRUE(second.connected());
    second.Send("totally different text entirely\n");
    EXPECT_EQ(second.Read(1).size(), 1u);
  }
  fx.WaitForActiveConnections(0);
  NetStats stats = fx.server()->net_stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_GE(stats.requests, 3u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.bytes_written, 0u);
}

}  // namespace
}  // namespace ssjoin
