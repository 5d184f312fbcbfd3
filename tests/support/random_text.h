#ifndef TEXTJOIN_TESTS_SUPPORT_RANDOM_TEXT_H_
#define TEXTJOIN_TESTS_SUPPORT_RANDOM_TEXT_H_

#include <string>

#include "common/random.h"
#include "text/document.h"
#include "text/query.h"

/// \file
/// Seeded random documents and Boolean query trees over one small
/// vocabulary (test support), so conjunctions, phrases, prefixes and
/// proximity hit often. engine_fuzz_test runs them against a brute-force
/// matcher and the reference evaluator; live_corpus_test runs them against
/// live snapshots and their frozen replays.

namespace textjoin::testing {

/// A document with 0-2 values in each of the `title` and `author` fields,
/// each value 1-4 vocabulary words.
Document RandomDocument(Rng& rng, std::string docid);

/// A random query tree of at most `depth` connector levels: words, two-word
/// phrases and prefixes under AND, OR, NOT and NEAR.
TextQueryPtr RandomQuery(Rng& rng, int depth);

}  // namespace textjoin::testing

#endif  // TEXTJOIN_TESTS_SUPPORT_RANDOM_TEXT_H_
