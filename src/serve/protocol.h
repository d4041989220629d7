#ifndef SSJOIN_SERVE_PROTOCOL_H_
#define SSJOIN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "data/record_set.h"
#include "serve/similarity_service.h"

namespace ssjoin {

/// The serving command grammar, shared verbatim by the ssjoin_serve REPL
/// and the ssjoin_server network front door so the two paths cannot
/// drift. One request per line:
///
///   + <text>        insert the record (empty text is legal)
///   - <id>          delete record <id>
///   ! [compact]     fold the memtable into the base index
///   ?k <k> <text>   rank the k nearest records (threshold ignored)
///   ? [stats]       print the service stats JSON
///   ? <text>        look up <text> (explicit query form)
///   stats           print the service stats JSON
///   <text>          look up the record (bare query form)
///
/// The bare word "stats" is the stats command in both paths — a query for
/// the literal text "stats" must use the explicit `? ...` form with some
/// other spelling, a deliberate corner traded for one shared grammar.
/// Parse errors carry REPL-identical ERR details; execution errors (an
/// unknown delete id) are produced by the dispatcher with the same
/// strings the REPL has always printed.
enum class RequestType : uint8_t {
  kNone,       // blank line: no-op, produces no response
  kQuery,      // text lookup (threshold or the session's default top-k)
  kTopK,       // explicit `?k <k> <text>` ranked lookup
  kInsert,     // `+ <text>`
  kDelete,     // `- <id>`
  kCompact,    // `!` / `! compact`
  kStats,      // `stats` / `?` / `? stats`
  kMalformed,  // unparseable; `error` holds the ERR detail
};

struct Request {
  RequestType type = RequestType::kNone;
  /// Query/insert text (trimmed for the sigil forms, the raw line for a
  /// bare query, exactly as the REPL has always tokenized them). For
  /// kDelete this is the id as the client spelled it, so miss errors can
  /// echo it back unchanged.
  std::string text;
  RecordId id = 0;  // kDelete target
  uint64_t k = 0;   // kTopK rank count
  /// kMalformed detail, without the "ERR " prefix.
  std::string error;
};

/// Strict decimal uint64 parse (no sign, no trailing junk).
bool ParseUint64Text(std::string_view text, uint64_t* out);

/// Strips leading/trailing spaces, tabs and carriage returns.
std::string TrimCopy(std::string_view text);

/// Parses one request line (without its newline terminator).
Request ParseRequest(std::string_view line);

/// The exact bytes the REPL prints for a match list: "id\tscore\n" per
/// match with %.6g scores. The network path ships the same bytes as an OK
/// frame payload, which is what makes "byte-identical over the wire"
/// testable.
std::string FormatMatches(const std::vector<QueryMatch>& matches);
std::string FormatInserted(RecordId id);
std::string FormatDeleted(RecordId id);
std::string FormatCompacted(size_t records, uint64_t epoch);

/// One executed request: `payload` is the exact success output (what the
/// REPL prints to stdout), or the ERR detail when !ok.
struct Response {
  bool ok = true;
  std::string payload;
};

/// Executes parsed Requests against a SimilarityService — the
/// session/dispatcher half of the protocol split: parsing (above) knows
/// nothing about services, and this knows nothing about line framing or
/// sockets, so the REPL and every network worker drive the same code.
///
/// Thread-safe to the extent its collaborators are: SimilarityService is
/// internally synchronized, and the tokenize/before-insert callbacks are
/// expected to carry their own lock when shared across connections (the
/// token dictionary grows on new tokens).
class ServiceDispatcher {
 public:
  /// Builds the one-record RecordSet of a request's text with the
  /// session's shared (growing) token dictionary — a tool-owned
  /// CorpusBuilder.
  using TokenizeFn = std::function<RecordSet(std::string_view)>;
  /// Runs after tokenization and before SimilarityService::Insert — the
  /// REPL uses it to sync the token-dictionary sidecar ahead of the WAL.
  using HookFn = std::function<void()>;
  /// Decorates the stats JSON (the network server splices its `net`
  /// counter section in here); identity when empty.
  using StatsDecoratorFn = std::function<std::string(std::string)>;

  /// `default_topk` > 0 makes kQuery rank like the REPL's --topk flag.
  ServiceDispatcher(SimilarityService* service, TokenizeFn tokenize,
                    size_t default_topk = 0, HookFn before_insert = {},
                    StatsDecoratorFn stats_decorator = {});

  /// Executes one request. kNone yields an empty OK response.
  Response Execute(const Request& request) const;

 private:
  Response ExecuteQuery(const Request& request) const;

  SimilarityService* service_;
  TokenizeFn tokenize_;
  size_t default_topk_;
  HookFn before_insert_;
  StatsDecoratorFn stats_decorator_;
};

}  // namespace ssjoin

#endif  // SSJOIN_SERVE_PROTOCOL_H_
