// ssjoin_serve — stand up a SimilarityService over a text corpus and
// answer lookups interactively or from a batch file. One record per line.
//
//   ssjoin_serve --corpus=records.txt --predicate=jaccard --threshold=0.8
//   ssjoin_serve --corpus=records.txt --queries=queries.txt --threads=4
//   ssjoin_serve --corpus=records.txt --topk=5 < queries.txt
//
// Interactive commands (stdin, one per line) are the shared
// serve/protocol grammar — the same one ssjoin_server speaks over TCP:
//   <text>        look up the record; prints "id<TAB>score" per match
//   + <text>      insert the record into the corpus (empty text is legal)
//   - <id>        delete record <id> (tombstoned; dropped at compaction)
//   ?k <k> <text> rank the k nearest records for this one query
//   ! compact     fold the memtable into the base index
//   ? stats       print the service stats JSON ("stats" works too)
// A malformed or unknown command prints one "ERR ..." line; when stdin is
// not a terminal (a scripted pipe or file), any ERR also makes the
// process exit nonzero, so driver scripts cannot silently lose commands.
// SIGINT/SIGTERM drain the in-flight command and exit cleanly (logging
// the final WAL position when --data-dir is set); a second signal
// force-exits. (EOF quits; stats JSON also lands on stderr at exit with
// --stats-json)

#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve_common.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::tools;

constexpr const char kUsage[] =
    "usage: ssjoin_serve --corpus=FILE [flags]\n"
    "  --corpus=FILE         corpus file, one record per line (required)\n"
    "  --predicate=NAME      overlap | jaccard | cosine | dice |\n"
    "                        edit-distance (default jaccard)\n"
    "  --threshold=X         predicate threshold (T, f or k); must be > 0,\n"
    "                        at most 1 for a fraction f, whole for k\n"
    "  --tokens=MODE         words (default) | 2gram | 3gram | 4gram\n"
    "  --queries=FILE        batch mode: answer every line of FILE via\n"
    "                        BatchQuery and exit (no REPL)\n"
    "  --topk=K              rank the K nearest records per query instead\n"
    "                        of thresholding\n"
    "  --threads=N           BatchQuery worker threads (default hardware)\n"
    "  --shards=N            token-range shards for the base tier; answers\n"
    "                        are identical for every value (default 1)\n"
    "  --memtable-limit=N    auto-compact at N memtable records\n"
    "                        (default 256; 0 = only on '! compact')\n"
    "  --data-dir=DIR        durable mode: keep a checkpoint + write-ahead\n"
    "                        log under DIR. When DIR already holds a\n"
    "                        checkpoint the service restores from it\n"
    "                        (--corpus is NOT re-read; pass the same\n"
    "                        --predicate/--threshold/--tokens);\n"
    "                        otherwise it starts fresh from --corpus.\n"
    "                        Segments are served from their mmap'd\n"
    "                        files, each checked whole when mapped\n"
    "  --wal-sync=MODE       always (default: fsync each op) | never\n"
    "                        (page cache only: survives a crash of this\n"
    "                        process, not of the machine)\n"
    "  --resident-budget=N   residency advice (needs --data-dir): keep\n"
    "                        about the newest N bytes of segment files\n"
    "                        resident and let the kernel drop the rest\n"
    "                        first; answers are identical for every N\n"
    "                        (default 0 = no cap)\n"
    "  --stats-json          print the stats JSON to stderr at exit\n";

std::optional<ServeCliOptions> ParseArgs(int argc, char** argv) {
  ServeCliOptions options;
  for (int i = 1; i < argc; ++i) {
    switch (ParseServeFlag(argv[i], &options)) {
      case FlagOutcome::kMatched:
        continue;
      case FlagOutcome::kInvalid:
        return std::nullopt;
      case FlagOutcome::kUnmatched:
        std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
        return std::nullopt;
    }
  }
  if (!ValidateServeOptions(options)) return std::nullopt;
  return options;
}

int RunBatch(const SimilarityService& service,
             const ServeCliOptions& options, LineTokenizer& tokenizer) {
  std::optional<std::vector<std::string>> lines = ReadLines(options.queries);
  if (!lines.has_value()) return 1;
  RecordSet queries = tokenizer.Build(*lines);
  if (options.topk > 0) {
    for (RecordId q = 0; q < queries.size(); ++q) {
      for (const QueryMatch& m : service.QueryTopK(
               queries.record(q), options.topk, queries.text(q))) {
        std::printf("%u\t%u\t%.6g\n", q, m.id, m.score);
      }
    }
    return 0;
  }
  std::vector<std::vector<QueryMatch>> results = service.BatchQuery(queries);
  for (RecordId q = 0; q < results.size(); ++q) {
    for (const QueryMatch& m : results[q]) {
      std::printf("%u\t%u\t%.6g\n", q, m.id, m.score);
    }
  }
  return 0;
}

int RunRepl(SimilarityService* service, const ServeCliOptions& options,
            LineTokenizer& tokenizer, const TokenDictionary& dict,
            DictLog* dict_log) {
  // A non-tty stdin means a script is driving the REPL: every ERR line
  // then also fails the exit code, so a typo in a command file cannot be
  // silently ignored. At a terminal the ERR line alone is the feedback.
  const bool scripted = isatty(fileno(stdin)) == 0;
  int rc = 0;
  // The exact session the network front door runs per connection: shared
  // grammar, shared execution, shared output bytes.
  ServiceDispatcher dispatcher(
      service,
      [&tokenizer](std::string_view line) {
        return tokenizer.BuildLine(line);
      },
      static_cast<size_t>(options.topk),
      // New tokens must hit the sidecar before the record hits the WAL.
      [&dict, dict_log] { dict_log->Sync(dict); });
  // std::getline delivers a final line even when the input ends without a
  // trailing newline, so a scripted pipe like `printf '+ a b c'` still
  // executes its last command (tools/CMakeLists.txt smoke-tests this).
  // A first SIGINT/SIGTERM interrupts the blocking read (no SA_RESTART),
  // which lands here as a failed getline — the in-flight command always
  // finishes before the loop is left.
  std::string line;
  while (!ShutdownRequested() && std::getline(std::cin, line)) {
    Request request = ParseRequest(line);
    if (request.type == RequestType::kNone) continue;
    Response response = dispatcher.Execute(request);
    if (response.ok) {
      std::fwrite(response.payload.data(), 1, response.payload.size(),
                  stdout);
    } else {
      std::printf("ERR %s\n", response.payload.c_str());
      if (scripted) rc = 1;
    }
    if (request.type == RequestType::kCompact) {
      WarnIfDurabilityDegraded(*service);
    }
    std::fflush(stdout);
  }
  if (ShutdownRequested()) LogCleanShutdown(service);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<ServeCliOptions> options = ParseArgs(argc, argv);
  if (!options.has_value()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  TokenDictionary dict;
  LineTokenizer tokenizer(options->tokens, &dict);
  std::unique_ptr<Predicate> pred =
      MakePredicate(options->predicate, options->threshold, tokenizer.q());

  DictLog dict_log;
  InstallShutdownSignals();
  std::unique_ptr<SimilarityService> service =
      SetUpService(*options, *pred, tokenizer, &dict, &dict_log);
  if (service == nullptr) return 1;
  std::fprintf(stderr, "serving %zu records (%s, %s, %zu shards%s)\n",
               service->size(), options->predicate.c_str(),
               options->tokens.c_str(), service->num_shards(),
               service->durable() ? ", durable" : "");

  int rc = options->queries.empty()
               ? RunRepl(service.get(), *options, tokenizer, dict, &dict_log)
               : RunBatch(*service, *options, tokenizer);
  WarnIfDurabilityDegraded(*service);
  if (options->stats_json) {
    std::fprintf(stderr, "%s\n", service->StatsJson().c_str());
  }
  return rc;
}
