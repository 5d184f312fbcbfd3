#include "tests/support/random_text.h"

#include <utility>
#include <vector>

namespace textjoin::testing {

namespace {

constexpr const char* kVocab[] = {"alpha", "beta", "gamma", "delta",
                                  "epsilon", "zeta", "eta", "theta",
                                  "iota", "kappa"};
constexpr const char* kFields[] = {"title", "author"};

}  // namespace

Document RandomDocument(Rng& rng, std::string docid) {
  Document doc;
  doc.docid = std::move(docid);
  for (const char* field : kFields) {
    const int64_t values = rng.Uniform(0, 2);
    std::vector<std::string> list;
    for (int64_t v = 0; v < values; ++v) {
      std::string value;
      const int64_t words = rng.Uniform(1, 4);
      for (int64_t w = 0; w < words; ++w) {
        if (w != 0) value += " ";
        value += kVocab[rng.Uniform(0, 9)];
      }
      list.push_back(std::move(value));
    }
    if (!list.empty()) doc.fields[field] = std::move(list);
  }
  return doc;
}

TextQueryPtr RandomQuery(Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.4)) {
    const int64_t kind = rng.Uniform(0, 9);
    std::string term = kVocab[rng.Uniform(0, 9)];
    TermKind term_kind = TermKind::kWordOrPhrase;
    if (kind < 3) {
      // Phrase of two words.
      term += " ";
      term += kVocab[rng.Uniform(0, 9)];
    } else if (kind == 3) {
      // Prefix of a vocabulary word.
      term = term.substr(0, static_cast<size_t>(rng.Uniform(1, 3)));
      term_kind = TermKind::kPrefix;
    }
    return TextQuery::Term(kFields[rng.Uniform(0, 1)], std::move(term),
                           term_kind);
  }
  const int64_t connector = rng.Uniform(0, 3);
  if (connector == 2) {
    return TextQuery::Not(RandomQuery(rng, depth - 1));
  }
  if (connector == 3) {
    // Proximity between two random terms (possibly different fields).
    TextQueryPtr l = RandomQuery(rng, 0);
    TextQueryPtr r = RandomQuery(rng, 0);
    return TextQuery::Near(std::move(l), std::move(r),
                           static_cast<uint32_t>(rng.Uniform(0, 6)));
  }
  std::vector<TextQueryPtr> children;
  const int64_t arity = rng.Uniform(2, 3);
  for (int64_t i = 0; i < arity; ++i) {
    children.push_back(RandomQuery(rng, depth - 1));
  }
  return connector == 0 ? TextQuery::And(std::move(children))
                        : TextQuery::Or(std::move(children));
}

}  // namespace textjoin::testing
