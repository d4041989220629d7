// Shared plumbing for the serving-tier drivers (ssjoin_serve and
// ssjoin_server): CLI flag parsing for the common serving flags,
// predicate construction, the corpus/query tokenizer, the durable
// token-dictionary sidecar, fresh-vs-restore service setup, and the
// SIGINT/SIGTERM graceful-shutdown plumbing. Header-only; each driver
// includes it once. ssjoin_cli borrows its flag parsers, ReadLines, the
// per-predicate threshold check, the tokens-mode check, the predicate
// factory and the tokenizer; each tool keeps its own list of accepted
// predicate names.
#ifndef SSJOIN_TOOLS_SERVE_COMMON_H_
#define SSJOIN_TOOLS_SERVE_COMMON_H_

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cosine_predicate.h"
#include "core/dice_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/hamming_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/overlap_coefficient_predicate.h"
#include "core/overlap_predicate.h"
#include "data/corpus_builder.h"
#include "serve/checkpoint.h"
#include "serve/similarity_service.h"
#include "text/token_dictionary.h"

namespace ssjoin::tools {

/// The serving flags shared by every driver. Network-only flags live in
/// the server's own options struct.
struct ServeCliOptions {
  std::string corpus;
  std::string queries;
  std::string predicate = "jaccard";
  double threshold = 0.8;
  std::string tokens = "words";
  uint64_t topk = 0;
  int threads = 0;
  uint64_t shards = 1;
  uint64_t memtable_limit = 256;
  std::string data_dir;
  std::string wal_sync = "always";
  uint64_t resident_budget = 0;
  bool stats_json = false;
};

inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

/// Strict double parse: the whole string must be consumed and the value
/// finite. `atof`-style silent zeros are how "--threshold=O.8" typos turn
/// into empty join results.
inline bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

inline bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

/// Outcome of offering one argv entry to the shared serving-flag parser.
enum class FlagOutcome {
  kUnmatched,  // not a shared serving flag; the driver handles it
  kMatched,    // consumed successfully
  kInvalid,    // matched but malformed; an error was printed
};

/// Parses the flags every serving driver shares. Drivers loop over argv,
/// try their own flags on kUnmatched, and fail usage on kInvalid.
inline FlagOutcome ParseServeFlag(const char* arg, ServeCliOptions* options) {
  std::string value;
  if (ParseFlag(arg, "--corpus", &value)) {
    options->corpus = value;
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--queries", &value)) {
    options->queries = value;
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--predicate", &value)) {
    options->predicate = value;
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--threshold", &value)) {
    if (!ParseDouble(value, &options->threshold) ||
        options->threshold <= 0) {
      std::fprintf(stderr, "invalid --threshold=%s (need a number > 0)\n",
                   value.c_str());
      return FlagOutcome::kInvalid;
    }
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--tokens", &value)) {
    options->tokens = value;
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--topk", &value)) {
    if (!ParseUint64(value, &options->topk) || options->topk == 0) {
      std::fprintf(stderr, "invalid --topk=%s (need an integer > 0)\n",
                   value.c_str());
      return FlagOutcome::kInvalid;
    }
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--threads", &value)) {
    uint64_t threads = 0;
    if (!ParseUint64(value, &threads) || threads == 0 || threads > 1024) {
      std::fprintf(stderr, "invalid --threads=%s (need 1..1024)\n",
                   value.c_str());
      return FlagOutcome::kInvalid;
    }
    options->threads = static_cast<int>(threads);
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--shards", &value)) {
    if (!ParseUint64(value, &options->shards) || options->shards == 0 ||
        options->shards > 1024) {
      std::fprintf(stderr, "invalid --shards=%s (need 1..1024)\n",
                   value.c_str());
      return FlagOutcome::kInvalid;
    }
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--memtable-limit", &value)) {
    if (!ParseUint64(value, &options->memtable_limit)) {
      std::fprintf(stderr,
                   "invalid --memtable-limit=%s (need an integer >= 0)\n",
                   value.c_str());
      return FlagOutcome::kInvalid;
    }
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--data-dir", &value)) {
    if (value.empty()) {
      std::fprintf(stderr, "--data-dir needs a directory path\n");
      return FlagOutcome::kInvalid;
    }
    options->data_dir = value;
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--wal-sync", &value)) {
    if (value != "always" && value != "never") {
      std::fprintf(stderr, "invalid --wal-sync=%s (want always | never)\n",
                   value.c_str());
      return FlagOutcome::kInvalid;
    }
    options->wal_sync = value;
    return FlagOutcome::kMatched;
  }
  if (ParseFlag(arg, "--resident-budget", &value)) {
    if (!ParseUint64(value, &options->resident_budget)) {
      std::fprintf(stderr,
                   "invalid --resident-budget=%s (need bytes >= 0; "
                   "0 keeps the base tier fully in memory)\n",
                   value.c_str());
      return FlagOutcome::kInvalid;
    }
    return FlagOutcome::kMatched;
  }
  if (std::strcmp(arg, "--stats-json") == 0) {
    options->stats_json = true;
    return FlagOutcome::kMatched;
  }
  return FlagOutcome::kUnmatched;
}

/// Checks `threshold` against what `predicate` accepts beyond the flag
/// parser's "> 0": the ratio predicates take a fraction in (0, 1], edit
/// distance a whole number of edits (its predicate takes an int k, so a
/// fraction would be truncated). Prints one invalid --threshold line and
/// returns false when it does not fit. Shared with ssjoin_cli.
inline bool ValidateThreshold(const std::string& predicate,
                              double threshold) {
  const char* need = nullptr;
  if ((predicate == "jaccard" || predicate == "cosine" ||
       predicate == "dice" || predicate == "overlap-coefficient") &&
      threshold > 1) {
    need = "a fraction in (0, 1]";
  } else if (predicate == "edit-distance" &&
             (threshold != std::floor(threshold) ||
              threshold > std::numeric_limits<int>::max())) {
    need = "a whole number of edits";
  }
  if (need == nullptr) return true;
  std::fprintf(stderr, "invalid --threshold=%g (%s needs %s)\n", threshold,
               predicate.c_str(), need);
  return false;
}

/// Whether `mode` is a --tokens mode LineTokenizer understands; prints
/// one unknown tokens mode line when it is not.
inline bool ValidateTokens(const std::string& mode) {
  if (mode == "words" || mode == "2gram" || mode == "3gram" ||
      mode == "4gram") {
    return true;
  }
  std::fprintf(stderr, "unknown tokens mode: %s\n", mode.c_str());
  return false;
}

/// Cross-flag validation shared by the drivers; prints and fails like
/// the per-flag parsers. With a data_dir the corpus may come from a
/// previous incarnation's checkpoint instead of a file; service setup
/// enforces that one of the two sources actually exists.
inline bool ValidateServeOptions(const ServeCliOptions& options) {
  if (options.corpus.empty() && options.data_dir.empty()) {
    std::fprintf(stderr, "--corpus=FILE is required\n");
    return false;
  }
  if (options.predicate != "overlap" && options.predicate != "jaccard" &&
      options.predicate != "cosine" && options.predicate != "dice" &&
      options.predicate != "edit-distance") {
    std::fprintf(stderr, "unknown predicate: %s\n",
                 options.predicate.c_str());
    return false;
  }
  if (!ValidateThreshold(options.predicate, options.threshold)) return false;
  if (!ValidateTokens(options.tokens)) return false;
  if (options.resident_budget > 0 && options.data_dir.empty()) {
    std::fprintf(stderr,
                 "--resident-budget needs --data-dir (segments are served "
                 "from their on-disk files)\n");
    return false;
  }
  return true;
}

inline std::optional<std::vector<std::string>> ReadLines(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Builds predicate `name` (already validated by the caller) at threshold
/// `t`; `q` is edit distance's q-gram length (LineTokenizer::q()).
inline std::unique_ptr<Predicate> MakePredicate(const std::string& name,
                                                double t, int q) {
  if (name == "overlap") return std::make_unique<OverlapPredicate>(t);
  if (name == "jaccard") return std::make_unique<JaccardPredicate>(t);
  if (name == "cosine") return std::make_unique<CosinePredicate>(t);
  if (name == "dice") return std::make_unique<DicePredicate>(t);
  if (name == "hamming") return std::make_unique<HammingPredicate>(t);
  if (name == "overlap-coefficient") {
    return std::make_unique<OverlapCoefficientPredicate>(t);
  }
  return std::make_unique<EditDistancePredicate>(static_cast<int>(t), q);
}

/// Append-only sidecar persisting TokenDictionary growth next to the
/// service's checkpoint/WAL: one token per line, in id order (ids are
/// dense first-seen, so line i IS token id i). The checkpoint stores
/// records as token ids only; without the string->id mapping a restored
/// service could not tokenize new queries consistently. The log is
/// synced BEFORE each insert reaches the service, so every id a
/// WAL-logged record references is covered by a complete line; a torn
/// final line (crash mid-append) can only name an id no durable record
/// uses yet, and reload drops it. Growth from queries rides along in the
/// same id-ordered sweep. Writes reach the page cache (process-crash
/// safe, like --wal-sync=never); sidecar failures warn and never stop
/// serving, matching SimilarityService's durability policy.
class DictLog {
 public:
  /// Fresh durable start: truncate and write every token interned so far.
  bool OpenFresh(const std::string& path, const TokenDictionary& dict) {
    path_ = path;
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_) {
      Warn();
      return false;
    }
    return Sync(dict);
  }

  /// Restore: intern every complete line in id order, dropping a torn
  /// final line, then rewrite the file (self-healing the tail).
  bool OpenExisting(const std::string& path, TokenDictionary* dict) {
    {
      std::ifstream in(path, std::ios::binary);
      if (in) {
        std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
        size_t begin = 0;
        while (true) {
          size_t end = contents.find('\n', begin);
          if (end == std::string::npos) break;
          dict->Intern(std::string_view(contents).substr(begin, end - begin));
          begin = end + 1;
        }
      }
    }
    return OpenFresh(path, *dict);
  }

  /// Appends tokens the dictionary has grown since the last sync. A
  /// no-op for non-durable services (never opened).
  bool Sync(const TokenDictionary& dict) {
    if (!out_.is_open() || failed_) return false;
    for (; written_ < dict.size(); ++written_) {
      out_ << dict.ToString(static_cast<TokenId>(written_)) << '\n';
    }
    out_.flush();
    if (!out_) {
      failed_ = true;
      Warn();
      return false;
    }
    return true;
  }

 private:
  void Warn() {
    std::fprintf(stderr,
                 "warning: cannot write token dictionary %s: %s "
                 "(serving continues; restores may mis-tokenize queries)\n",
                 path_.c_str(), std::strerror(errno));
  }

  std::ofstream out_;
  std::string path_;
  size_t written_ = 0;
  bool failed_ = false;
};

/// Tokenizer shared by the corpus, inserts and queries: every text goes
/// through the same builder with the same (growing) dictionary, so query
/// tokens line up with index tokens. The builder's scratch is reused
/// from request to request, so like the dictionary it needs one caller
/// at a time (the server takes its tokenize lock around Build).
class LineTokenizer {
 public:
  /// `mode` is a --tokens mode ValidateTokens accepts.
  LineTokenizer(const std::string& mode, TokenDictionary* dict)
      : q_(mode == "words" ? 3 : mode[0] - '0'),
        builder_(mode == "words" ? CorpusBuilder::Words()
                                 : CorpusBuilder::QGrams(q_)),
        dict_(dict) {}

  /// Edit distance's q-gram length: the mode's q, 3 for words.
  int q() const { return q_; }

  RecordSet Build(const std::vector<std::string>& lines) {
    return builder_.Build(lines, dict_);
  }

 private:
  int q_;
  CorpusBuilder builder_;
  TokenDictionary* dict_;
};

inline void WarnIfDurabilityDegraded(const SimilarityService& service) {
  if (service.durable() && !service.durability_status().ok()) {
    std::fprintf(stderr, "warning: durability degraded: %s\n",
                 service.durability_status().ToString().c_str());
  }
}

/// Builds the service a driver asked for: restore from --data-dir when a
/// checkpoint exists there (the checkpoint + WAL are the source of truth
/// and --corpus is deliberately not re-read — inserting it again would
/// duplicate every record the previous incarnation already made
/// durable), otherwise a fresh start from --corpus. Returns null after
/// printing the failure.
inline std::unique_ptr<SimilarityService> SetUpService(
    const ServeCliOptions& options, const Predicate& pred,
    LineTokenizer& tokenizer, TokenDictionary* dict,
    DictLog* dict_log) {
  ServiceOptions service_options;
  service_options.memtable_limit =
      static_cast<size_t>(options.memtable_limit);
  service_options.num_threads = options.threads;
  service_options.num_shards = static_cast<size_t>(options.shards);
  service_options.data_dir = options.data_dir;
  service_options.wal_sync = options.wal_sync == "never"
                                 ? WalSyncPolicy::kNever
                                 : WalSyncPolicy::kAlways;
  service_options.resident_budget_bytes = options.resident_budget;

  std::unique_ptr<SimilarityService> service;
  if (!options.data_dir.empty() && CheckpointExists(options.data_dir)) {
    dict_log->OpenExisting(options.data_dir + "/dict.log", dict);
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(pred, service_options);
    if (!restored.ok()) {
      std::fprintf(stderr, "cannot restore from %s: %s\n",
                   options.data_dir.c_str(),
                   restored.status().ToString().c_str());
      return nullptr;
    }
    service = std::move(restored).value();
    std::fprintf(stderr, "restored %zu records from %s (epoch %llu)\n",
                 service->size(), options.data_dir.c_str(),
                 static_cast<unsigned long long>(service->epoch()));
  } else {
    if (options.corpus.empty()) {
      std::fprintf(stderr,
                   "no checkpoint in %s and no --corpus to start from\n",
                   options.data_dir.c_str());
      return nullptr;
    }
    std::optional<std::vector<std::string>> corpus_lines =
        ReadLines(options.corpus);
    if (!corpus_lines.has_value()) return nullptr;
    RecordSet corpus = tokenizer.Build(*corpus_lines);
    if (!options.data_dir.empty()) {
      // The dictionary must be on disk before the constructor writes the
      // initial checkpoint: a crash between the two must never leave a
      // restorable checkpoint without its token mapping.
      if (Status made = EnsureDataDir(options.data_dir); !made.ok()) {
        std::fprintf(stderr, "warning: %s\n", made.ToString().c_str());
      }
      dict_log->OpenFresh(options.data_dir + "/dict.log", *dict);
    }
    service = std::make_unique<SimilarityService>(std::move(corpus), pred,
                                                  service_options);
  }
  WarnIfDurabilityDegraded(*service);
  return service;
}

// ---------------------------------------------------------------------
// Graceful shutdown signals. The first SIGINT/SIGTERM requests a drain
// (the driver finishes in-flight work, closes listeners, and — when
// durable — logs its final WAL position); a second signal force-exits.
// sigaction installs WITHOUT SA_RESTART so a blocking read (the REPL's
// stdin, the server's signal pipe) returns EINTR instead of resuming.

inline std::atomic<int> g_shutdown_signals{0};
inline int g_shutdown_pipe[2] = {-1, -1};

inline void ShutdownSignalHandler(int) {
  // Async-signal-safe: counter + one pipe write, nothing else.
  int seen = g_shutdown_signals.fetch_add(1, std::memory_order_relaxed) + 1;
  if (seen >= 2) _exit(130);
  if (g_shutdown_pipe[1] >= 0) {
    char byte = 1;
    [[maybe_unused]] ssize_t n = write(g_shutdown_pipe[1], &byte, 1);
  }
}

inline bool ShutdownRequested() {
  return g_shutdown_signals.load(std::memory_order_relaxed) > 0;
}

inline void InstallShutdownSignals() {
  if (pipe2(g_shutdown_pipe, O_CLOEXEC) != 0) {
    g_shutdown_pipe[0] = g_shutdown_pipe[1] = -1;
  }
  struct sigaction action = {};
  action.sa_handler = ShutdownSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // A client hanging up mid-write must be an EPIPE, not a process kill.
  signal(SIGPIPE, SIG_IGN);
}

/// Blocks until the first shutdown signal arrives.
inline void WaitForShutdownSignal() {
  char byte;
  while (!ShutdownRequested()) {
    ssize_t n = read(g_shutdown_pipe[0], &byte, 1);
    if (n < 0 && errno != EINTR) break;
  }
}

/// The shutdown log line: drain done, durable position for operators.
inline void LogCleanShutdown(SimilarityService* service) {
  if (service->durable()) {
    std::fprintf(stderr,
                 "shut down cleanly; final WAL position %llu (epoch %llu)\n",
                 static_cast<unsigned long long>(service->wal_sequence() - 1),
                 static_cast<unsigned long long>(service->epoch()));
  } else {
    std::fprintf(stderr, "shut down cleanly (epoch %llu)\n",
                 static_cast<unsigned long long>(service->epoch()));
  }
}

}  // namespace ssjoin::tools

#endif  // SSJOIN_TOOLS_SERVE_COMMON_H_
