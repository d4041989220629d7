#include "text/tokenizer.h"

#include <array>
#include <charconv>
#include <cstdint>

#include "util/logging.h"

namespace ssjoin {

namespace {

constexpr char kPad = '$';
constexpr size_t kNoWord = SIZE_MAX;

/// kNormalized[b]: the byte normalized text keeps for input byte b (an
/// ASCII letter lowercased, or a digit), or 0 when b separates words.
constexpr std::array<char, 256> kNormalized = [] {
  std::array<char, 256> table{};
  for (int b = '0'; b <= '9'; ++b) table[b] = static_cast<char>(b);
  for (int b = 'a'; b <= 'z'; ++b) table[b] = static_cast<char>(b);
  for (int b = 'A'; b <= 'Z'; ++b) table[b] = static_cast<char>(b - 'A' + 'a');
  return table;
}();

/// kRawSeparator[b]: whether b separates words in text kept as given.
constexpr std::array<bool, 256> kRawSeparator = [] {
  std::array<bool, 256> table{};
  for (char c : {' ', '\t', '\n', '\r'}) {
    table[static_cast<unsigned char>(c)] = true;
  }
  return table;
}();

/// Appends the normalized form of `text` to `*out`, calling
/// `word(begin, end)` with each word's offsets in `*out` as it ends.
template <typename WordFn>
void AppendNormalized(std::string_view text, std::string* out, WordFn word) {
  const size_t base = out->size();
  // Never longer than `text`: each kept byte maps one input byte, and
  // each space stands for at least one separator byte.
  out->resize(base + text.size());
  char* const data = out->data();
  size_t end = base;
  size_t word_begin = kNoWord;
  for (char raw : text) {
    const char c = kNormalized[static_cast<unsigned char>(raw)];
    if (c == 0) {
      if (word_begin != kNoWord) word(word_begin, end);
      word_begin = kNoWord;
      continue;
    }
    if (word_begin == kNoWord) {
      if (end != base) data[end++] = ' ';
      word_begin = end;
    }
    data[end++] = c;
  }
  if (word_begin != kNoWord) word(word_begin, end);
  out->resize(end);
}

}  // namespace

std::string_view WordTokenizer::Tokenize(std::string_view text,
                                         TokenDictionary* dict,
                                         std::vector<TokenId>* ids) {
  ids->clear();
  ids->reserve(text.size() / 2 + 1);  // at most one word per two bytes
  if (normalize_) {
    normalized_.clear();
    AppendNormalized(text, &normalized_, [&](size_t begin, size_t end) {
      ids->push_back(dict->Intern(
          std::string_view(normalized_).substr(begin, end - begin)));
    });
    return normalized_;
  }
  size_t word_begin = kNoWord;
  for (size_t i = 0; i <= text.size(); ++i) {
    const bool separator =
        i == text.size() || kRawSeparator[static_cast<unsigned char>(text[i])];
    if (separator && word_begin != kNoWord) {
      ids->push_back(dict->Intern(text.substr(word_begin, i - word_begin)));
      word_begin = kNoWord;
    } else if (!separator && word_begin == kNoWord) {
      word_begin = i;
    }
  }
  return text;
}

QGramTokenizer::QGramTokenizer(int q, bool tag_occurrences, bool normalize)
    : q_(q), tag_occurrences_(tag_occurrences), normalize_(normalize) {
  SSJOIN_CHECK(q >= 1);
}

std::string_view QGramTokenizer::Tokenize(std::string_view text,
                                          TokenDictionary* dict,
                                          std::vector<TokenId>* ids) {
  const size_t q = static_cast<size_t>(q_);
  padded_.assign(q - 1, kPad);
  if (normalize_) {
    AppendNormalized(text, &padded_, [](size_t, size_t) {});
  } else {
    padded_.append(text);
  }
  const size_t length = padded_.size() - (q - 1);
  padded_.append(q - 1, kPad);

  const std::string_view padded(padded_);
  ids->clear();
  ids->reserve(padded.size());
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    const std::string_view gram = padded.substr(i, q);
    const TokenId id = dict->Intern(gram);
    ids->push_back(tag_occurrences_ ? TagRepeat(id, gram, dict) : id);
  }
  if (tag_occurrences_) {
    // Every counted gram's first window pushed the gram's own id; the
    // tagged ids in between have zero counts already.
    for (TokenId id : *ids) {
      if (id < repeats_.size()) repeats_[id] = 0;
    }
  }
  return padded.substr(q - 1, length);
}

TokenId QGramTokenizer::TagRepeat(TokenId gram_id, std::string_view gram,
                                  TokenDictionary* dict) {
  if (gram_id >= repeats_.size()) repeats_.resize(dict->size());
  const uint32_t repeat = repeats_[gram_id]++;
  if (repeat == 0) return gram_id;
  // A tagged name is longer than q, so it never equals a real gram.
  tagged_.assign(gram);
  tagged_.push_back('\x01');
  char digits[10];
  tagged_.append(digits,
                 std::to_chars(digits, digits + sizeof(digits), repeat).ptr);
  return dict->Intern(tagged_);
}

}  // namespace ssjoin
