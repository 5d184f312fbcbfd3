// The paper's running example: a university database loosely integrated
// with a CSTR-style bibliographic server. Runs the four single-join
// queries Q1-Q4 of the paper under every applicable join method and prints
// a Table-2-style comparison of simulated execution times.
//
//   $ ./examples/university_library

#include <cstdio>
#include <string>
#include <vector>

#include "connector/remote_text_source.h"
#include "core/join_methods.h"
#include "core/single_join_optimizer.h"
#include "sql/parser.h"
#include "workload/university.h"

namespace {

using namespace textjoin;  // Example code; the library never does this.

struct QuerySpec {
  const char* label;
  std::string sql;
};

/// Builds the foreign-join spec for a parsed single-relation query and
/// returns the filtered outer rows.
Result<std::pair<ForeignJoinSpec, std::vector<Row>>> Prepare(
    const FederatedQuery& query, const Catalog& catalog) {
  TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                            catalog.GetTable(query.relations[0].table_name));
  ForeignJoinSpec spec;
  spec.left_schema =
      table->schema().WithQualifier(query.relations[0].name());
  spec.selections = query.text_selections;
  spec.joins = query.text_joins;
  spec.text = query.text;
  spec.need_document_fields = query.NeedsDocumentFields();
  bool needs_left = query.output_columns.empty();
  for (const std::string& ref : query.output_columns) {
    if (spec.left_schema.Resolve(ref).ok()) needs_left = true;
  }
  spec.left_columns_needed = needs_left;

  // Push the relational selections down onto the scan.
  TEXTJOIN_ASSIGN_OR_RETURN(
      std::vector<size_t> kept,
      SelectRows(spec.left_schema, table->rows(), query.relational_predicates));
  std::vector<Row> rows;
  for (size_t r : kept) rows.push_back(table->row(r));
  return std::make_pair(std::move(spec), std::move(rows));
}

int Run() {
  UniversityConfig config;
  config.num_students = 150;
  config.num_documents = 4000;
  Result<UniversityWorkload> workload = BuildUniversity(config);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  RemoteTextSource source(workload->engine.get());
  const CostParams params;

  const std::vector<QuerySpec> queries = {
      {"Q1 (selective selection)",
       "select * from student, mercury "
       "where student.year > 3 and 'belief update' in mercury.title "
       "and student.name in mercury.author"},
      {"Q2 (docid-only semi-join)",
       "select mercury.docid from student, mercury "
       "where student.year > 2 and 'retrieval' in mercury.title "
       "and student.name in mercury.author"},
      {"Q3 (two join predicates)",
       "select project.member, project.name, mercury.docid "
       "from project, mercury where project.sponsor = 'NSF' "
       "and project.name in mercury.title "
       "and project.member in mercury.author"},
      {"Q4 (advisor co-authorship)",
       "select student.name, mercury.docid from student, mercury "
       "where student.area = 'distributed systems' "
       "and student.advisor in mercury.author "
       "and student.name in mercury.author"},
  };

  for (const QuerySpec& qs : queries) {
    Result<FederatedQuery> query = ParseQuery(qs.sql, workload->text);
    if (!query.ok()) {
      std::fprintf(stderr, "parse %s: %s\n", qs.label,
                   query.status().ToString().c_str());
      return 1;
    }
    auto prepared = Prepare(*query, *workload->catalog);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
      return 1;
    }
    const ForeignJoinSpec& spec = prepared->first;
    const std::vector<Row>& rows = prepared->second;

    std::printf("%s\n  %s\n  outer tuples after selections: %zu\n",
                qs.label, query->ToString().c_str(), rows.size());
    std::printf("  %-8s %12s %8s %s\n", "method", "sim-time(s)", "rows",
                "meter");

    struct Alt {
      JoinMethodKind method;
      PredicateMask mask;
    };
    std::vector<Alt> alts = {{JoinMethodKind::kTS, 0},
                             {JoinMethodKind::kRTP, 0},
                             {JoinMethodKind::kSJ, 0},
                             {JoinMethodKind::kSJRTP, 0}};
    const size_t k = spec.joins.size();
    for (PredicateMask m = 1; m < (1u << k); ++m) {
      alts.push_back({JoinMethodKind::kPTS, m});
      alts.push_back({JoinMethodKind::kPRTP, m});
    }
    for (const Alt& alt : alts) {
      source.ResetMeter();
      Result<ForeignJoinResult> result =
          ExecuteForeignJoin(alt.method, spec, rows, source, alt.mask);
      std::string name = JoinMethodName(alt.method);
      if (alt.mask != 0) name += MaskToString(alt.mask);
      if (!result.ok()) {
        std::printf("  %-8s %12s\n", name.c_str(), "n/a");
        continue;
      }
      std::printf("  %-8s %12.2f %8zu %s\n", name.c_str(),
                  source.meter().SimulatedSeconds(params),
                  result->rows.size(), source.meter().ToString().c_str());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
