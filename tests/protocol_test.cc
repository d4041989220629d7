// Unit tests for the shared serve/protocol grammar and the net/wire
// framing: every command form parses the way the REPL documents, every
// malformed input produces the REPL's exact ERR string, the dispatcher's
// output bytes match the service's own format helpers, and both wire
// codecs survive a pipelined stream split at EVERY byte boundary.

#include "serve/protocol.h"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard_predicate.h"
#include "data/corpus_builder.h"
#include "net/wire.h"
#include "serve/similarity_service.h"
#include "text/token_dictionary.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

// -------------------------------------------------------------------
// ParseRequest: the grammar, command by command.

TEST(ParseRequestTest, BlankLinesAreNone) {
  EXPECT_EQ(ParseRequest("").type, RequestType::kNone);
  EXPECT_EQ(ParseRequest("   \t  ").type, RequestType::kNone);
  EXPECT_EQ(ParseRequest("\r").type, RequestType::kNone);
}

TEST(ParseRequestTest, BareTextIsAQueryKeepingTheRawLine) {
  Request request = ParseRequest("set joins on similarity");
  EXPECT_EQ(request.type, RequestType::kQuery);
  EXPECT_EQ(request.text, "set joins on similarity");
}

TEST(ParseRequestTest, LeadingWhitespaceSuppressesTheSigil) {
  // The sigil is the line's FIRST byte, exactly like the REPL: a line
  // that leads with whitespace is a bare query even if a sigil follows.
  Request request = ParseRequest(" + not an insert");
  EXPECT_EQ(request.type, RequestType::kQuery);
  EXPECT_EQ(request.text, " + not an insert");
}

TEST(ParseRequestTest, ExplicitQueryTrimsItsArgument) {
  Request request = ParseRequest("?   padded text \t");
  EXPECT_EQ(request.type, RequestType::kQuery);
  EXPECT_EQ(request.text, "padded text");
}

TEST(ParseRequestTest, StatsForms) {
  EXPECT_EQ(ParseRequest("?").type, RequestType::kStats);
  EXPECT_EQ(ParseRequest("? stats").type, RequestType::kStats);
  EXPECT_EQ(ParseRequest("?  stats  ").type, RequestType::kStats);
  EXPECT_EQ(ParseRequest("stats").type, RequestType::kStats);
  EXPECT_EQ(ParseRequest("  stats  ").type, RequestType::kStats);
}

TEST(ParseRequestTest, InsertTrimsText) {
  Request request = ParseRequest("+  new record text ");
  EXPECT_EQ(request.type, RequestType::kInsert);
  EXPECT_EQ(request.text, "new record text");
  // Empty text is legal (the REPL documents it).
  EXPECT_EQ(ParseRequest("+").type, RequestType::kInsert);
  EXPECT_EQ(ParseRequest("+").text, "");
}

TEST(ParseRequestTest, DeleteParsesTheId) {
  Request request = ParseRequest("- 17");
  EXPECT_EQ(request.type, RequestType::kDelete);
  EXPECT_EQ(request.id, 17u);
  EXPECT_EQ(request.text, "17");
}

TEST(ParseRequestTest, MalformedDeletesCarryTheReplErrString) {
  for (const char* line :
       {"- not-a-number", "-", "- -3", "- +3", "- 12x", "- 4294967296"}) {
    Request request = ParseRequest(line);
    EXPECT_EQ(request.type, RequestType::kMalformed) << line;
    EXPECT_EQ(request.error, "malformed delete '" + std::string(line) +
                                 "' (want '- <id>')")
        << line;
  }
  // Largest 32-bit id still parses.
  EXPECT_EQ(ParseRequest("- 4294967295").type, RequestType::kDelete);
}

TEST(ParseRequestTest, TopKParsesKAndText) {
  Request request = ParseRequest("?k 3 some query text");
  EXPECT_EQ(request.type, RequestType::kTopK);
  EXPECT_EQ(request.k, 3u);
  EXPECT_EQ(request.text, "some query text");
  // Tab separators work too.
  request = ParseRequest("?k\t5\tother");
  EXPECT_EQ(request.type, RequestType::kTopK);
  EXPECT_EQ(request.k, 5u);
  EXPECT_EQ(request.text, "other");
}

TEST(ParseRequestTest, MalformedTopKCarriesTheReplErrString) {
  for (const char* line : {"?k", "?k ", "?k abc text", "?k 0 text"}) {
    Request request = ParseRequest(line);
    EXPECT_EQ(request.type, RequestType::kMalformed) << line;
    EXPECT_EQ(request.error, "malformed top-k '" + std::string(line) +
                                 "' (want '?k <k> <text>')")
        << line;
  }
  // "?kxyz" is not the top-k form: it queries for "kxyz".
  Request request = ParseRequest("?kxyz");
  EXPECT_EQ(request.type, RequestType::kQuery);
  EXPECT_EQ(request.text, "kxyz");
}

TEST(ParseRequestTest, CompactForms) {
  EXPECT_EQ(ParseRequest("!").type, RequestType::kCompact);
  EXPECT_EQ(ParseRequest("! compact").type, RequestType::kCompact);
  Request request = ParseRequest("! compactify");
  EXPECT_EQ(request.type, RequestType::kMalformed);
  EXPECT_EQ(request.error,
            "unknown command '! compactify' (want '! compact')");
}

// -------------------------------------------------------------------
// ServiceDispatcher: output bytes match the service's own formatting.

std::vector<std::string> TestCorpusLines() {
  return {
      "efficient set joins on similarity predicates",
      "efficient set joins with similarity predicates",
      "an unrelated record about inverted indexes",
      "set joins on similarity predicates",
      "totally different text entirely",
  };
}

struct DispatcherFixture {
  DispatcherFixture()
      : pred(0.5),
        service(BuildWordCorpus(TestCorpusLines(), &dict), pred),
        dispatcher(&service, [this](std::string_view line) {
          return BuildWordCorpus({std::string(line)}, &dict);
        }) {}

  Response Run(const std::string& line) {
    return dispatcher.Execute(ParseRequest(line));
  }

  TokenDictionary dict;
  JaccardPredicate pred;
  SimilarityService service;
  ServiceDispatcher dispatcher;
};

TEST(ServiceDispatcherTest, QueryMatchesTheServiceFormatting) {
  DispatcherFixture fx;
  // Interning is idempotent, so probing through the same dictionary the
  // dispatcher uses leaves it unchanged.
  RecordSet staged = BuildWordCorpus(
      {"efficient set joins on similarity predicates"}, &fx.dict);
  std::string expected =
      FormatMatches(fx.service.Query(staged.record(0), staged.text(0)));
  Response response = fx.Run("efficient set joins on similarity predicates");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.payload, expected);
  EXPECT_FALSE(response.payload.empty());  // self-match at least
}

TEST(ServiceDispatcherTest, InsertDeleteCompactAcknowledge) {
  DispatcherFixture fx;
  Response inserted = fx.Run("+ a brand new record about set joins");
  ASSERT_TRUE(inserted.ok);
  EXPECT_EQ(inserted.payload, FormatInserted(5));

  Response deleted = fx.Run("- 5");
  ASSERT_TRUE(deleted.ok);
  EXPECT_EQ(deleted.payload, FormatDeleted(5));

  Response missing = fx.Run("- 5");
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.payload, "no live record with id 5");

  Response compacted = fx.Run("! compact");
  ASSERT_TRUE(compacted.ok);
  EXPECT_EQ(compacted.payload,
            FormatCompacted(fx.service.size(), fx.service.epoch()));
}

TEST(ServiceDispatcherTest, StatsIsTheServiceJsonPlusNewline) {
  DispatcherFixture fx;
  Response response = fx.Run("? stats");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.payload, fx.service.StatsJson() + "\n");
}

TEST(ServiceDispatcherTest, StatsDecoratorRuns) {
  TokenDictionary dict;
  JaccardPredicate pred(0.5);
  SimilarityService service(BuildWordCorpus(TestCorpusLines(), &dict), pred);
  ServiceDispatcher dispatcher(
      &service,
      [&dict](std::string_view line) {
        return BuildWordCorpus({std::string(line)}, &dict);
      },
      /*default_topk=*/0, /*before_insert=*/{},
      [](std::string json) {
        return AppendNetSection(std::move(json), NetStats{});
      });
  Response response = dispatcher.Execute(ParseRequest("stats"));
  ASSERT_TRUE(response.ok);
  EXPECT_NE(response.payload.find("\"net\""), std::string::npos);
  EXPECT_EQ(response.payload.back(), '\n');
}

TEST(ServiceDispatcherTest, MalformedRequestsEchoTheError) {
  DispatcherFixture fx;
  Response response = fx.Run("- nope");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.payload, "malformed delete '- nope' (want '- <id>')");
}

TEST(ServiceDispatcherTest, BeforeInsertHookRunsPerInsert) {
  TokenDictionary dict;
  JaccardPredicate pred(0.5);
  SimilarityService service(BuildWordCorpus(TestCorpusLines(), &dict), pred);
  int hook_runs = 0;
  ServiceDispatcher dispatcher(
      &service,
      [&dict](std::string_view line) {
        return BuildWordCorpus({std::string(line)}, &dict);
      },
      /*default_topk=*/0, [&hook_runs] { ++hook_runs; });
  dispatcher.Execute(ParseRequest("+ one record"));
  dispatcher.Execute(ParseRequest("+ two records"));
  dispatcher.Execute(ParseRequest("some query"));
  EXPECT_EQ(hook_runs, 2);
}

// -------------------------------------------------------------------
// LineFramer: pipelined request framing, split at every byte boundary.

std::vector<std::string> FrameAll(net::LineFramer* framer,
                                  std::string_view data) {
  std::vector<std::string> lines;
  EXPECT_TRUE(framer->Feed(
      data, [&lines](std::string_view line) { lines.emplace_back(line); }));
  return lines;
}

TEST(LineFramerTest, SplitAtEveryByteBoundary) {
  const std::string stream = "+ first record\r\n- 12\n\n? stats\nquery text\n";
  const std::vector<std::string> expected = {"+ first record", "- 12", "",
                                             "? stats", "query text"};
  for (size_t split = 0; split <= stream.size(); ++split) {
    net::LineFramer framer(1 << 16);
    std::vector<std::string> lines = FrameAll(&framer, stream.substr(0, split));
    std::vector<std::string> tail = FrameAll(&framer, stream.substr(split));
    lines.insert(lines.end(), tail.begin(), tail.end());
    EXPECT_EQ(lines, expected) << "split at byte " << split;
    EXPECT_EQ(framer.pending_bytes(), 0u) << "split at byte " << split;
  }
}

TEST(LineFramerTest, ByteAtATime) {
  const std::string stream = "abc\ndef\r\nghi\n";
  net::LineFramer framer(1 << 16);
  std::vector<std::string> lines;
  for (char byte : stream) {
    ASSERT_TRUE(framer.Feed(std::string_view(&byte, 1),
                            [&lines](std::string_view line) {
                              lines.emplace_back(line);
                            }));
  }
  EXPECT_EQ(lines, (std::vector<std::string>{"abc", "def", "ghi"}));
}

TEST(LineFramerTest, OversizeLinePoisons) {
  net::LineFramer framer(8);
  // 9 bytes without a newline: over the limit, poisoned for good.
  EXPECT_FALSE(framer.Feed("123456789", [](std::string_view) {
    FAIL() << "no line should be emitted";
  }));
  EXPECT_TRUE(framer.poisoned());
  EXPECT_FALSE(framer.Feed("\n", [](std::string_view) {}));

  // Exactly the limit is fine.
  net::LineFramer exact(8);
  std::vector<std::string> lines = FrameAll(&exact, "12345678\n");
  EXPECT_EQ(lines, (std::vector<std::string>{"12345678"}));

  // The limit also applies across buffered chunks.
  net::LineFramer split(8);
  EXPECT_TRUE(split.Feed("12345", [](std::string_view) {}));
  EXPECT_FALSE(split.Feed("6789\n", [](std::string_view) {
    FAIL() << "no line should be emitted";
  }));
  EXPECT_TRUE(split.poisoned());
}

// -------------------------------------------------------------------
// ResponseReader: the client-side decoder for "OK <n>\n<payload>" /
// "ERR <msg>\n" frames, split at every byte boundary.

TEST(ResponseReaderTest, SplitAtEveryByteBoundary) {
  const std::string payload = "0\t1\n3\t0.75\n";
  const std::string stream = net::OkFrame(payload) + net::ErrFrame("boom") +
                             net::OkFrame("") +
                             net::OkFrame("ends without newline");
  for (size_t split = 0; split <= stream.size(); ++split) {
    net::ResponseReader reader;
    std::vector<net::WireResponse> responses;
    ASSERT_TRUE(reader.Feed(stream.substr(0, split), &responses));
    ASSERT_TRUE(reader.Feed(stream.substr(split), &responses));
    ASSERT_EQ(responses.size(), 4u) << "split at byte " << split;
    EXPECT_TRUE(responses[0].ok);
    EXPECT_EQ(responses[0].payload, payload);
    EXPECT_FALSE(responses[1].ok);
    EXPECT_EQ(responses[1].payload, "boom");
    EXPECT_TRUE(responses[2].ok);
    EXPECT_EQ(responses[2].payload, "");
    EXPECT_TRUE(responses[3].ok);
    EXPECT_EQ(responses[3].payload, "ends without newline");
    EXPECT_TRUE(reader.idle()) << "split at byte " << split;
  }
}

TEST(ResponseReaderTest, RejectsGarbageHeaders) {
  net::ResponseReader reader;
  std::vector<net::WireResponse> responses;
  EXPECT_FALSE(reader.Feed("WAT 12\n", &responses));

  net::ResponseReader bad_length;
  EXPECT_FALSE(bad_length.Feed("OK nope\n", &responses));
}

TEST(ResponseReaderTest, BoundsThePayload) {
  net::ResponseReader reader(/*max_payload_bytes=*/16);
  std::vector<net::WireResponse> responses;
  EXPECT_FALSE(reader.Feed("OK 17\n", &responses));
}

// A header over the bound is refused whether it arrives whole or split:
// the unterminated-header guard must not make the outcome depend on the
// split point.
TEST(ResponseReaderTest, BoundsTheHeaderWholeOrSplit) {
  const std::string stream = "ERR " + std::string(20, 'x') + "\n";
  for (size_t split = 0; split <= stream.size(); ++split) {
    net::ResponseReader reader(/*max_payload_bytes=*/16);
    std::vector<net::WireResponse> responses;
    const bool ok = reader.Feed(stream.substr(0, split), &responses) &&
                    reader.Feed(stream.substr(split), &responses);
    EXPECT_FALSE(ok) << "split at byte " << split;
    EXPECT_TRUE(responses.empty()) << "split at byte " << split;
  }
}

// -------------------------------------------------------------------
// Mutation fuzz of both wire codecs: valid streams with 1-4 bytes
// overwritten (deterministic PCG32 draws), fed in two chunks split at a
// random byte. The decoder must yield frames, or refuse (false, or a
// poisoned framer), exactly as it does for the same bytes in one chunk
// — and never crash or read past the input (this suite runs under
// ASan/UBSan).

std::string MutateBytes(std::string bytes, Rng& rng) {
  const int count = rng.UniformInt(1, 4);
  for (int i = 0; i < count; ++i) {
    const size_t pos = rng.UniformU32(static_cast<uint32_t>(bytes.size()));
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng.UniformU32(255)));
  }
  return bytes;
}

struct FramedLines {
  std::vector<std::string> lines;
  bool ok = true;
  bool poisoned = false;
  size_t pending = 0;
};

FramedLines FrameChunks(const std::vector<std::string_view>& chunks,
                        size_t max_line_bytes) {
  net::LineFramer framer(max_line_bytes);
  FramedLines out;
  for (std::string_view chunk : chunks) {
    out.ok = framer.Feed(chunk, [&out](std::string_view line) {
      out.lines.emplace_back(line);
    });
    if (!out.ok) break;
  }
  out.poisoned = framer.poisoned();
  out.pending = framer.pending_bytes();
  return out;
}

TEST(WireFuzzTest, MutatedRequestStreamsFrameOrPoison) {
  const std::string stream =
      "+ a record\r\n- 12\n\n? stats\nquery text\n!\ntopk 3 x\n";
  const size_t kMaxLine = 12;
  Rng rng(0x11e5);
  int poisoned = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string mutated = MutateBytes(stream, rng);
    const size_t split =
        rng.UniformU32(static_cast<uint32_t>(mutated.size() + 1));
    const std::string_view bytes(mutated);
    FramedLines whole = FrameChunks({bytes}, kMaxLine);
    FramedLines halves =
        FrameChunks({bytes.substr(0, split), bytes.substr(split)}, kMaxLine);
    EXPECT_EQ(halves.lines, whole.lines) << "mutation " << i;
    EXPECT_EQ(halves.ok, whole.ok) << "mutation " << i;
    EXPECT_EQ(halves.poisoned, whole.poisoned) << "mutation " << i;
    EXPECT_EQ(halves.pending, whole.pending) << "mutation " << i;
    EXPECT_EQ(whole.ok, !whole.poisoned) << "mutation " << i;
    for (const std::string& line : whole.lines) {
      EXPECT_EQ(line.find('\n'), std::string::npos) << "mutation " << i;
      EXPECT_LE(line.size(), kMaxLine) << "mutation " << i;
    }
    if (whole.poisoned) ++poisoned;
  }
  // Fusing two lines by overwriting a newline trips the size guard.
  EXPECT_GT(poisoned, 0);
  EXPECT_LT(poisoned, 400);
}

struct DecodedResponses {
  std::vector<net::WireResponse> responses;
  bool ok = true;
};

DecodedResponses DecodeChunks(const std::vector<std::string_view>& chunks,
                              size_t max_payload_bytes) {
  net::ResponseReader reader(max_payload_bytes);
  DecodedResponses out;
  for (std::string_view chunk : chunks) {
    out.ok = reader.Feed(chunk, &out.responses);
    if (!out.ok) break;  // the stream is unrecoverable
  }
  return out;
}

TEST(WireFuzzTest, MutatedResponseStreamsDecodeOrFail) {
  const std::string stream = net::OkFrame("0\t1\n3\t0.75\n") +
                             net::ErrFrame("unknown id 12") +
                             net::OkFrame("") + net::OkFrame("compacted\n");
  const size_t kMaxPayload = 24;
  Rng rng(0x7e5d);
  int refused = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string mutated = MutateBytes(stream, rng);
    const size_t split =
        rng.UniformU32(static_cast<uint32_t>(mutated.size() + 1));
    const std::string_view bytes(mutated);
    DecodedResponses whole = DecodeChunks({bytes}, kMaxPayload);
    DecodedResponses halves =
        DecodeChunks({bytes.substr(0, split), bytes.substr(split)},
                     kMaxPayload);
    EXPECT_EQ(halves.ok, whole.ok) << "mutation " << i;
    ASSERT_EQ(halves.responses.size(), whole.responses.size())
        << "mutation " << i;
    size_t payload_bytes = 0;
    for (size_t r = 0; r < whole.responses.size(); ++r) {
      EXPECT_EQ(halves.responses[r].ok, whole.responses[r].ok)
          << "mutation " << i;
      EXPECT_EQ(halves.responses[r].payload, whole.responses[r].payload)
          << "mutation " << i;
      if (whole.responses[r].ok) {
        EXPECT_LE(whole.responses[r].payload.size(), kMaxPayload)
            << "mutation " << i;
      }
      payload_bytes += whole.responses[r].payload.size();
    }
    EXPECT_LE(payload_bytes, mutated.size()) << "mutation " << i;
    if (!whole.ok) ++refused;
  }
  EXPECT_GT(refused, 0);
  EXPECT_LT(refused, 400);
}

}  // namespace
}  // namespace ssjoin
