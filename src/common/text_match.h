#ifndef TEXTJOIN_COMMON_TEXT_MATCH_H_
#define TEXTJOIN_COMMON_TEXT_MATCH_H_

#include <string>
#include <string_view>
#include <vector>

/// \file
/// Shared word/phrase matching semantics.
///
/// The paper requires that the relational engine's string functions have
/// semantics *consistent* with the text retrieval system (Section 3.2): the
/// RTP join method evaluates text predicates on the relational side, and the
/// results must agree with the text system evaluating the same predicates.
/// Both the text analyzer (src/text/analyzer.h) and the relational side are
/// built on the prepared form below, which is what guarantees that
/// agreement: it is the one implementation of tokenization and matching.
/// The analyzer indexes TokenizeTextViews tokens — the prepared form split
/// at its spaces — and every relational-side match (the RTP-family match
/// stage in src/core/pipeline.h, TermMatchesFieldText) compares prepared
/// forms.
///
/// Semantics: a field value is tokenized into lowercase alphanumeric words;
/// a term (word or phrase) matches iff its token sequence occurs
/// consecutively within a single field value. Multi-valued fields are
/// represented on the relational side as one string whose values are
/// separated by kValueSeparator; phrase matches never cross the separator.
///
/// Prepared form (DESIGN.md §14): a term or field is tokenized once into a
/// string in which every token is preceded and followed by a space, and a
/// field's values are joined by kValueSeparator — " belief update " or
/// " john smith \x1f mary jones ". A prepared term occurs as a substring of
/// a prepared field exactly when its token sequence occurs consecutively
/// within one value: the spaces pin both ends of the term to token
/// boundaries, and a term never contains the separator. Matching many terms
/// against one field (or one term against many fields) then costs one
/// tokenization per side plus a substring search per pair.

namespace textjoin {

/// Separator used when flattening a multi-valued text field (e.g. the
/// author list of a bibliographic record) into one relational string.
inline constexpr char kValueSeparator = '\x1f';

/// Tokenizes `text` into lowercase maximal alphanumeric runs. The value
/// separator terminates a token like any other non-alphanumeric byte.
std::vector<std::string> TokenizeText(std::string_view text);

/// Tokenizes `text` like TokenizeText, but appends the text's prepared
/// form (its lowercased tokens, space-separated) to `buffer` and returns
/// views of the tokens in it — one buffer append per call instead of one
/// string per token. The views are valid until the caller next modifies
/// `buffer`; clearing and reusing one buffer across calls is the intended
/// pattern (invalidates earlier views).
std::vector<std::string_view> TokenizeTextViews(std::string_view text,
                                                std::string& buffer);

/// Appends the prepared form of `term` (" t1 t2 ") to `out`. Appends
/// nothing when the term has no tokens: the empty prepared term never
/// matches (mirrors a Boolean text system rejecting empty searches).
void AppendPreparedTerm(std::string_view term, std::string& out);

/// The prepared form of a multi-valued field's values: equal to preparing
/// JoinFieldValues(values), so a value that itself contains
/// kValueSeparator splits the same way, without the flattened copy.
std::string PrepareFieldValues(const std::vector<std::string>& values);

/// True if the prepared term occurs within a single value of the prepared
/// field. The empty prepared term never matches.
bool PreparedTermMatches(std::string_view prepared_term,
                         std::string_view prepared_field);

/// True if the token sequence of `term` occurs consecutively within a single
/// kValueSeparator-delimited value of `field_text`. An empty-token term
/// never matches. One-off form of the prepared match above.
bool TermMatchesFieldText(std::string_view term, std::string_view field_text);

/// True if the token sequence `term_tokens` occurs consecutively in
/// `value_tokens` (a single field value, already tokenized). The
/// token-by-token statement of the semantics; tests check the prepared
/// form against it.
bool TokensContainPhrase(const std::vector<std::string>& value_tokens,
                         const std::vector<std::string>& term_tokens);

/// Splits flattened multi-value field text back into its individual values.
std::vector<std::string> SplitFieldValues(std::string_view field_text);

/// Joins individual field values into the flattened relational
/// representation.
std::string JoinFieldValues(const std::vector<std::string>& values);

}  // namespace textjoin

#endif  // TEXTJOIN_COMMON_TEXT_MATCH_H_
