#include "common/text_match.h"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace textjoin {

namespace {

bool IsTokenByte(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

char LowerByte(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/// The one tokenizer (TokenizeTextViews splits its output): appends
/// " t1 t2 ... tn " to `out`. With `split_values`, every kValueSeparator
/// also closes the current value and opens the next (" t1 \x1f t2 ");
/// otherwise it only ends a token, like any other non-alphanumeric byte.
void AppendPrepared(std::string_view text, bool split_values,
                    std::string& out) {
  out.push_back(' ');
  bool in_token = false;
  for (char c : text) {
    if (IsTokenByte(c)) {
      out.push_back(LowerByte(c));
      in_token = true;
      continue;
    }
    if (in_token) {
      out.push_back(' ');
      in_token = false;
    }
    if (split_values && c == kValueSeparator) {
      out.push_back(kValueSeparator);
      out.push_back(' ');
    }
  }
  if (in_token) out.push_back(' ');
}

}  // namespace

std::vector<std::string_view> TokenizeTextViews(std::string_view text,
                                                std::string& buffer) {
  // The prepared form, split at its spaces: the analyzer and the
  // relational-side matcher share one tokenizer.
  const size_t start = buffer.size();
  AppendPrepared(text, /*split_values=*/false, buffer);
  const std::string_view prepared(buffer.data() + start, buffer.size() - start);
  // " t1 ... tn " holds n + 1 spaces.
  const auto spaces = std::count(prepared.begin(), prepared.end(), ' ');
  std::vector<std::string_view> tokens;
  tokens.reserve(static_cast<size_t>(spaces - 1));
  size_t begin = 1;  // Past the leading space.
  for (size_t i = begin; i < prepared.size(); ++i) {
    if (prepared[i] != ' ') continue;
    tokens.push_back(prepared.substr(begin, i - begin));
    begin = i + 1;
  }
  return tokens;
}

std::vector<std::string> TokenizeText(std::string_view text) {
  std::string buffer;
  std::vector<std::string> tokens;
  for (std::string_view v : TokenizeTextViews(text, buffer)) {
    tokens.emplace_back(v);
  }
  return tokens;
}

void AppendPreparedTerm(std::string_view term, std::string& out) {
  const size_t start = out.size();
  AppendPrepared(term, /*split_values=*/false, out);
  // A term without tokens prepared to a lone " ": drop it, so the empty
  // prepared term is the never-matching one.
  if (out.size() == start + 1) out.resize(start);
}

std::string PrepareFieldValues(const std::vector<std::string>& values) {
  // JoinFieldValues of no values is "", which prepares to " ".
  if (values.empty()) return " ";
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(kValueSeparator);
    AppendPrepared(values[i], /*split_values=*/true, out);
  }
  return out;
}

bool PreparedTermMatches(std::string_view prepared_term,
                         std::string_view prepared_field) {
  return !prepared_term.empty() &&
         prepared_field.find(prepared_term) != std::string_view::npos;
}

bool TermMatchesFieldText(std::string_view term,
                          std::string_view field_text) {
  std::string prepared_term;
  AppendPreparedTerm(term, prepared_term);
  if (prepared_term.empty()) return false;
  std::string prepared_field;
  AppendPrepared(field_text, /*split_values=*/true, prepared_field);
  return PreparedTermMatches(prepared_term, prepared_field);
}

bool TokensContainPhrase(const std::vector<std::string>& value_tokens,
                         const std::vector<std::string>& term_tokens) {
  if (term_tokens.empty() || term_tokens.size() > value_tokens.size()) {
    return false;
  }
  const size_t last_start = value_tokens.size() - term_tokens.size();
  for (size_t start = 0; start <= last_start; ++start) {
    bool match = true;
    for (size_t i = 0; i < term_tokens.size(); ++i) {
      if (value_tokens[start + i] != term_tokens[i]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::vector<std::string> SplitFieldValues(std::string_view field_text) {
  std::vector<std::string> values;
  size_t start = 0;
  for (size_t i = 0; i <= field_text.size(); ++i) {
    if (i == field_text.size() || field_text[i] == kValueSeparator) {
      values.emplace_back(field_text.substr(start, i - start));
      start = i + 1;
    }
  }
  return values;
}

std::string JoinFieldValues(const std::vector<std::string>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(kValueSeparator);
    out.append(values[i]);
  }
  return out;
}

}  // namespace textjoin
