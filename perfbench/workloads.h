#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

/// \file
/// The inputs of each workload, generated from the workload seed: the SQL
/// texts and the order in which clients issue them. The service only ever
/// sees these generated inputs.

namespace perfbench {

/// The ~90 distinct SQL texts of serve_hot and live_churn over the
/// university schema: the eight title topics crossed with year and
/// sponsor predicates, output lists, and the student and project
/// relations, plus two-join and student-faculty shapes whose plans
/// probe. Fixed order; rank r of the Zipf draw is text r.
std::vector<std::string> UniversitySql();

/// Hands one client its next query index.
class QueryPicker {
 public:
  enum class Mode {
    kZipf,     ///< Zipf(theta = 1) over the texts in rank order.
    kUniform,  ///< Uniform over the texts.
    kCycle,    ///< Every text once per cycle, each cycle freshly shuffled.
  };
  QueryPicker(Mode mode, size_t num_queries, uint64_t seed);
  size_t Next();

 private:
  Mode mode_;
  size_t n_;
  DrawRng rng_;
  Zipf zipf_;
  std::vector<size_t> cycle_;
  size_t cursor_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
