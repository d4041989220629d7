#include "serve/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ssjoin {

bool ParseUint64Text(std::string_view text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  *out = value;
  return true;
}

std::string TrimCopy(std::string_view text) {
  size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return "";
  size_t end = text.find_last_not_of(" \t\r");
  return std::string(text.substr(begin, end - begin + 1));
}

namespace {

Request Malformed(std::string error) {
  Request request;
  request.type = RequestType::kMalformed;
  request.error = std::move(error);
  return request;
}

Request ParseTopK(std::string_view line) {
  Request request;
  request.type = RequestType::kTopK;
  // Skip "?k", then split "<k> <text>" on the first whitespace run.
  std::string_view rest = line.substr(2);
  size_t k_begin = rest.find_first_not_of(" \t\r");
  if (k_begin == std::string_view::npos) {
    return Malformed("malformed top-k '" + std::string(line) +
                     "' (want '?k <k> <text>')");
  }
  size_t k_end = rest.find_first_of(" \t\r", k_begin);
  std::string_view k_text = rest.substr(
      k_begin, (k_end == std::string_view::npos ? rest.size() : k_end) -
                   k_begin);
  if (!ParseUint64Text(k_text, &request.k) || request.k == 0) {
    return Malformed("malformed top-k '" + std::string(line) +
                     "' (want '?k <k> <text>')");
  }
  request.text =
      k_end == std::string_view::npos ? "" : TrimCopy(rest.substr(k_end));
  return request;
}

}  // namespace

Request ParseRequest(std::string_view line) {
  Request request;
  const std::string trimmed = TrimCopy(line);
  if (trimmed.empty()) return request;  // kNone
  // Like the REPL, the sigil is the line's FIRST byte: a line that
  // leads with whitespace is a bare query even if a sigil follows.
  const char op = line[0];
  if (op == '!') {
    const std::string arg = TrimCopy(line.substr(1));
    if (!arg.empty() && arg != "compact") {
      return Malformed("unknown command '" + std::string(line) +
                       "' (want '! compact')");
    }
    request.type = RequestType::kCompact;
    return request;
  }
  if (op == '?') {
    if (line.size() >= 2 && line[1] == 'k' &&
        (line.size() == 2 || line[2] == ' ' || line[2] == '\t')) {
      return ParseTopK(line);
    }
    const std::string arg = TrimCopy(line.substr(1));
    if (arg.empty() || arg == "stats") {
      request.type = RequestType::kStats;
      return request;
    }
    request.type = RequestType::kQuery;
    request.text = arg;
    return request;
  }
  if (op == '+') {
    request.type = RequestType::kInsert;
    request.text = TrimCopy(line.substr(1));
    return request;
  }
  if (op == '-') {
    const std::string arg = TrimCopy(line.substr(1));
    uint64_t id = 0;
    if (!ParseUint64Text(arg, &id) || id > UINT32_MAX) {
      return Malformed("malformed delete '" + std::string(line) +
                       "' (want '- <id>')");
    }
    request.type = RequestType::kDelete;
    request.id = static_cast<RecordId>(id);
    request.text = arg;
    return request;
  }
  if (trimmed == "stats") {
    request.type = RequestType::kStats;
    return request;
  }
  request.type = RequestType::kQuery;
  request.text = std::string(line);  // bare queries keep the raw line
  return request;
}

std::string FormatMatches(const std::vector<QueryMatch>& matches) {
  std::string out;
  char buffer[64];
  for (const QueryMatch& m : matches) {
    int n = std::snprintf(buffer, sizeof(buffer), "%u\t%.6g\n", m.id,
                          m.score);
    out.append(buffer, static_cast<size_t>(n));
  }
  return out;
}

std::string FormatInserted(RecordId id) {
  char buffer[32];
  int n = std::snprintf(buffer, sizeof(buffer), "inserted %u\n", id);
  return std::string(buffer, static_cast<size_t>(n));
}

std::string FormatDeleted(RecordId id) {
  char buffer[32];
  int n = std::snprintf(buffer, sizeof(buffer), "deleted %llu\n",
                        static_cast<unsigned long long>(id));
  return std::string(buffer, static_cast<size_t>(n));
}

std::string FormatCompacted(size_t records, uint64_t epoch) {
  char buffer[64];
  int n = std::snprintf(buffer, sizeof(buffer),
                        "compacted; %zu records, epoch %llu\n", records,
                        static_cast<unsigned long long>(epoch));
  return std::string(buffer, static_cast<size_t>(n));
}

ServiceDispatcher::ServiceDispatcher(SimilarityService* service,
                                     TokenizeFn tokenize, size_t default_topk,
                                     HookFn before_insert,
                                     StatsDecoratorFn stats_decorator)
    : service_(service),
      tokenize_(std::move(tokenize)),
      default_topk_(default_topk),
      before_insert_(std::move(before_insert)),
      stats_decorator_(std::move(stats_decorator)) {}

Response ServiceDispatcher::ExecuteQuery(const Request& request) const {
  RecordSet staged = tokenize_(request.text);
  std::vector<QueryMatch> matches;
  if (request.type == RequestType::kTopK) {
    matches = service_->QueryTopK(staged.record(0), request.k,
                                  staged.text(0));
  } else if (default_topk_ > 0) {
    matches =
        service_->QueryTopK(staged.record(0), default_topk_, staged.text(0));
  } else {
    matches = service_->Query(staged.record(0), staged.text(0));
  }
  return Response{true, FormatMatches(matches)};
}

Response ServiceDispatcher::Execute(const Request& request) const {
  switch (request.type) {
    case RequestType::kNone:
      return Response{true, ""};
    case RequestType::kQuery:
    case RequestType::kTopK:
      return ExecuteQuery(request);
    case RequestType::kInsert: {
      RecordSet staged = tokenize_(request.text);
      if (before_insert_) before_insert_();
      RecordId id = service_->Insert(staged.record(0), staged.text(0));
      return Response{true, FormatInserted(id)};
    }
    case RequestType::kDelete:
      if (service_->Delete(request.id)) {
        return Response{true, FormatDeleted(request.id)};
      }
      return Response{false, "no live record with id " + request.text};
    case RequestType::kCompact: {
      service_->Compact();
      return Response{true,
                      FormatCompacted(service_->size(), service_->epoch())};
    }
    case RequestType::kStats: {
      std::string json = service_->StatsJson();
      if (stats_decorator_) json = stats_decorator_(std::move(json));
      json.push_back('\n');
      return Response{true, std::move(json)};
    }
    case RequestType::kMalformed:
      return Response{false, request.error};
  }
  return Response{false, "internal: unhandled request type"};
}

}  // namespace ssjoin
