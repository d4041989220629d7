// ssjoin_server — the network front door for the serving tier: an epoll
// acceptor + N worker event loops speaking the shared serve/protocol
// grammar over a pipelined, length-delimited line protocol (see
// src/net/wire.h). Same corpus/durability flags as ssjoin_serve, plus
// the listener knobs.
//
//   ssjoin_server --corpus=records.txt --port=7878 --net-threads=4
//   ssjoin_server --corpus=records.txt --port=0           # ephemeral
//
// Startup prints one machine-readable "PORT <n>" line to stdout (the
// ephemeral-port handshake for scripts), then serves until SIGINT or
// SIGTERM: the listener closes, in-flight requests drain, every
// connection flushes and closes, and — when --data-dir is set — the
// final WAL position is logged. A second signal force-exits.

#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/server.h"
#include "serve_common.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::tools;

constexpr const char kUsage[] =
    "usage: ssjoin_server --corpus=FILE [flags]\n"
    "  network flags:\n"
    "  --port=N              TCP port to listen on (0 = kernel-assigned\n"
    "                        ephemeral port, reported on stdout; default 0)\n"
    "  --host=ADDR           IPv4 address or hostname to bind, resolved\n"
    "                        via getaddrinfo (default 127.0.0.1)\n"
    "  --net-threads=N       worker event-loop threads (default\n"
    "                        min(hardware, 4); the acceptor adds one)\n"
    "  --idle-timeout-ms=N   close connections silent for N ms\n"
    "                        (default 0 = never)\n"
    "  --max-request-bytes=N longest accepted request line; longer gets\n"
    "                        one ERR frame, then close (default 1048576)\n"
    "  serving flags (same as ssjoin_serve):\n"
    "  --corpus=FILE --predicate=NAME --threshold=X --tokens=MODE\n"
    "  --topk=K --threads=N --shards=N --memtable-limit=N\n"
    "  --data-dir=DIR --wal-sync=MODE --resident-budget=BYTES\n"
    "  --stats-json\n"
    "  (a --data-dir service serves its segment files mmap'd, each checked\n"
    "  whole when mapped; --resident-budget only steers residency advice,\n"
    "  0 = no cap)\n";

struct ServerCliOptions {
  ServeCliOptions serve;
  std::string host = "127.0.0.1";
  uint64_t port = 0;
  int net_threads = 0;
  uint64_t idle_timeout_ms = 0;
  uint64_t max_request_bytes = uint64_t{1} << 20;
};

std::optional<ServerCliOptions> ParseArgs(int argc, char** argv) {
  ServerCliOptions options;
  for (int i = 1; i < argc; ++i) {
    switch (ParseServeFlag(argv[i], &options.serve)) {
      case FlagOutcome::kMatched:
        continue;
      case FlagOutcome::kInvalid:
        return std::nullopt;
      case FlagOutcome::kUnmatched:
        break;
    }
    std::string value;
    if (ParseFlag(argv[i], "--port", &value)) {
      if (!ParseUint64(value, &options.port) || options.port > 65535) {
        std::fprintf(stderr, "invalid --port=%s (need 0..65535)\n",
                     value.c_str());
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--host", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--host needs an IPv4 address\n");
        return std::nullopt;
      }
      options.host = value;
    } else if (ParseFlag(argv[i], "--net-threads", &value)) {
      uint64_t threads = 0;
      if (!ParseUint64(value, &threads) || threads == 0 || threads > 256) {
        std::fprintf(stderr, "invalid --net-threads=%s (need 1..256)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.net_threads = static_cast<int>(threads);
    } else if (ParseFlag(argv[i], "--idle-timeout-ms", &value)) {
      if (!ParseUint64(value, &options.idle_timeout_ms)) {
        std::fprintf(stderr,
                     "invalid --idle-timeout-ms=%s (need an integer >= 0)\n",
                     value.c_str());
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--max-request-bytes", &value)) {
      if (!ParseUint64(value, &options.max_request_bytes) ||
          options.max_request_bytes < 16) {
        std::fprintf(stderr,
                     "invalid --max-request-bytes=%s (need an integer >= 16)\n",
                     value.c_str());
        return std::nullopt;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return std::nullopt;
    }
  }
  if (!options.serve.queries.empty()) {
    std::fprintf(stderr,
                 "--queries is a batch-mode flag; use ssjoin_serve\n");
    return std::nullopt;
  }
  if (!ValidateServeOptions(options.serve)) return std::nullopt;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<ServerCliOptions> options = ParseArgs(argc, argv);
  if (!options.has_value()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  TokenDictionary dict;
  LineTokenizer tokenizer(options->serve.tokens, &dict);
  std::unique_ptr<Predicate> pred =
      MakePredicate(options->serve.predicate, options->serve.threshold,
                    tokenizer.q());

  DictLog dict_log;
  InstallShutdownSignals();
  std::unique_ptr<SimilarityService> service =
      SetUpService(options->serve, *pred, tokenizer, &dict, &dict_log);
  if (service == nullptr) return 1;

  // Workers tokenize and sync the dictionary sidecar concurrently; the
  // dictionary grows on new tokens, so both go through one mutex. The
  // service itself is internally synchronized.
  std::mutex tokenize_mutex;
  net::ServerOptions server_options;
  server_options.host = options->host;
  server_options.port = static_cast<uint16_t>(options->port);
  server_options.net_threads = options->net_threads;
  server_options.idle_timeout_ms = options->idle_timeout_ms;
  server_options.max_request_bytes =
      static_cast<size_t>(options->max_request_bytes);
  server_options.default_topk = static_cast<size_t>(options->serve.topk);
  net::SimilarityServer server(
      service.get(),
      [&](std::string_view line) {
        std::lock_guard<std::mutex> lock(tokenize_mutex);
        return tokenizer.BuildLine(line);
      },
      [&] {
        std::lock_guard<std::mutex> lock(tokenize_mutex);
        dict_log.Sync(dict);
      },
      server_options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  // The handshake line scripts parse to find an ephemeral port.
  std::printf("PORT %u\n", server.port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "listening on %s:%u (%zu records, %s, %s, %zu shards%s)\n",
               options->host.c_str(), server.port(), service->size(),
               options->serve.predicate.c_str(),
               options->serve.tokens.c_str(), service->num_shards(),
               service->durable() ? ", durable" : "");

  WaitForShutdownSignal();
  std::fprintf(stderr, "draining connections...\n");
  server.Shutdown();
  NetStats net = server.net_stats();
  std::fprintf(stderr,
               "served %llu requests over %llu connections "
               "(%llu protocol errors)\n",
               static_cast<unsigned long long>(net.requests),
               static_cast<unsigned long long>(net.connections_accepted),
               static_cast<unsigned long long>(net.protocol_errors));
  LogCleanShutdown(service.get());
  WarnIfDurabilityDegraded(*service);
  if (options->serve.stats_json) {
    std::fprintf(stderr, "%s\n",
                 AppendNetSection(service->StatsJson(), net).c_str());
  }
  return 0;
}
