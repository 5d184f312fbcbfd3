#include "workloads.h"

namespace perfbench {

namespace {

// The university generator's title vocabulary (workload/university.cc).
const char* const kTopics[] = {
    "query optimization", "text retrieval",  "belief update",
    "concurrency control", "caching", "replication",
    "information filtering", "semantic indexing"};
const char* const kSponsors[] = {"NSF", "DARPA", "ONR"};
const char* const kAreas[] = {"databases", "distributed systems",
                              "information retrieval", "ai",
                              "operating systems", "graphics"};

}  // namespace

std::vector<std::string> UniversitySql() {
  std::vector<std::string> sql;
  // Students by topic: 8 topics x 3 year cut-offs x 2 output lists (docid
  // only, or the title, which needs document fetches).
  const char* const kStudentOutputs[] = {"student.name, mercury.docid",
                                         "student.name, mercury.title"};
  for (const char* topic : kTopics) {
    for (int year : {1, 3, 4}) {
      for (const char* output : kStudentOutputs) {
        sql.push_back(std::string("select ") + output +
                      " from student, mercury where student.year > " +
                      std::to_string(year) + " and '" + topic +
                      "' in mercury.title and student.name in mercury.author");
      }
    }
  }
  // Project members by topic: 8 topics x 3 sponsors.
  for (const char* topic : kTopics) {
    for (const char* sponsor : kSponsors) {
      sql.push_back(std::string("select project.member, mercury.docid from "
                                "project, mercury where project.sponsor = '") +
                    sponsor + "' and '" + topic +
                    "' in mercury.title and project.member in mercury.author");
    }
  }
  // Two correlated join predicates: no sponsor filter or one of two
  // sponsors x 2 output lists x with and without a year selection on the
  // text side. Unfiltered and without the year they plan as P+RTP.
  const char* const kProjectOutputs[] = {
      "project.member, project.name, mercury.docid",
      "project.name, mercury.title"};
  for (const char* sponsor : {"", "NSF", "DARPA"}) {
    for (const char* output : kProjectOutputs) {
      for (bool with_year : {false, true}) {
        std::string where = *sponsor == '\0'
                                ? std::string()
                                : std::string("project.sponsor = '") +
                                      sponsor + "' and ";
        if (with_year) where += "'1993' in mercury.year and ";
        sql.push_back(std::string("select ") + output +
                      " from project, mercury where " + where +
                      "project.name in mercury.title"
                      " and project.member in mercury.author");
      }
    }
  }
  // Students and faculty of other areas who publish (the paper's Example
  // 6.1 shape), one per faculty department: a probe reduces the students
  // before the relational join.
  for (const char* area : kAreas) {
    sql.push_back(std::string("select student.name, faculty.name, "
                              "mercury.docid from student, faculty, mercury "
                              "where faculty.dept = '") +
                  area +
                  "' and student.area <> faculty.dept"
                  " and student.name in mercury.author"
                  " and faculty.name in mercury.author");
  }
  return sql;
}

QueryPicker::QueryPicker(Mode mode, size_t num_queries, uint64_t seed)
    : mode_(mode), n_(num_queries), rng_(seed), zipf_(num_queries, 1.0) {}

size_t QueryPicker::Next() {
  switch (mode_) {
    case Mode::kZipf:
      return zipf_.Draw(rng_);
    case Mode::kUniform:
      return rng_.Below(n_);
    case Mode::kCycle:
      if (cursor_ == cycle_.size()) {
        cycle_ = Permutation(n_, rng_);
        cursor_ = 0;
      }
      return cycle_[cursor_++];
  }
  return 0;
}

}  // namespace perfbench
