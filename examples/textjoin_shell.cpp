// An interactive SQL shell over the university federation — the kind of
// front door a downstream user of the library would build first. Reads one
// query per line; meta-commands:
//
//   \tables            list relations and the text relation
//   \explain <sql>     show the optimized plan without executing
//   \analyze <sql>     execute and show per-node actuals (EXPLAIN ANALYZE)
//   \meter             cumulative access-meter and simulated seconds
//   \demo              run a canned tour of queries
//   \quit              exit
//
// When stdin is not a terminal (e.g. in CI), runs the demo and exits, so
// the binary is safe to execute unattended.

#include <cstdio>
#include <string>

#include <unistd.h>

#include "common/string_util.h"
#include "sql/federation_service.h"
#include "workload/university.h"

namespace {

using namespace textjoin;  // Example code; the library never does this.

void PrintResult(const ExecutionResult& result) {
  // Header.
  for (size_t c = 0; c < result.schema.num_columns(); ++c) {
    std::printf("%s%s", c == 0 ? "" : " | ",
                result.schema.column(c).QualifiedName().c_str());
  }
  std::printf("\n");
  const size_t shown = std::min<size_t>(result.rows.size(), 25);
  for (size_t r = 0; r < shown; ++r) {
    const Row& row = result.rows[r];
    for (size_t c = 0; c < row.size(); ++c) {
      std::string cell = row[c].ToString();
      if (cell.size() > 42) cell = cell.substr(0, 39) + "...";
      std::printf("%s%s", c == 0 ? "" : " | ", cell.c_str());
    }
    std::printf("\n");
  }
  if (result.rows.size() > shown) {
    std::printf("... (%zu rows total)\n", result.rows.size());
  } else {
    std::printf("(%zu rows)\n", result.rows.size());
  }
}

class Shell {
 public:
  explicit Shell(UniversityWorkload workload)
      : workload_(std::move(workload)),
        service_(workload_.catalog.get(), workload_.engine.get(),
                 MakeOptions(workload_)) {}

  static FederationService::Options MakeOptions(
      const UniversityWorkload& workload) {
    FederationService::Options options;
    options.text = workload.text;
    options.parallelism = 4;
    return options;
  }

  void HandleLine(const std::string& raw) {
    const std::string line = std::string(Trim(raw));
    if (line.empty()) return;
    if (line == "\\quit" || line == "\\q") {
      done_ = true;
      return;
    }
    if (line == "\\tables") {
      for (const std::string& name : workload_.catalog->TableNames()) {
        Table* table = *workload_.catalog->GetTable(name);
        std::printf("  %-10s %6zu rows  %s\n", name.c_str(),
                    table->num_rows(), table->schema().ToString().c_str());
      }
      std::printf("  %-10s %6zu docs  fields: %s (external text source)\n",
                  workload_.text.alias.c_str(),
                  workload_.engine->num_documents(),
                  Join(workload_.text.fields, ", ").c_str());
      return;
    }
    if (line == "\\meter") {
      const CostParams params;
      std::printf("  %s => %.2f simulated seconds\n",
                  service_.meter().ToString().c_str(),
                  service_.meter().SimulatedSeconds(params));
      return;
    }
    if (line == "\\demo") {
      RunDemo();
      return;
    }
    if (StartsWith(line, "\\explain ")) {
      auto text = service_.Explain(line.substr(9));
      if (!text.ok()) {
        std::printf("error: %s\n", text.status().ToString().c_str());
        return;
      }
      std::printf("%s", text->c_str());
      return;
    }
    if (StartsWith(line, "\\analyze ")) {
      Analyze(line.substr(9));
      return;
    }
    if (line[0] == '\\') {
      std::printf("unknown command; try \\tables \\explain \\analyze "
                  "\\meter \\demo \\quit\n");
      return;
    }
    auto outcome = service_.Run(line);
    if (!outcome.ok()) {
      std::printf("error: %s\n", outcome.status().ToString().c_str());
      return;
    }
    PrintResult(outcome->rows);
    const CostParams params;
    std::printf("cost: %.2f simulated seconds [%s]\n",
                outcome->meter_delta.SimulatedSeconds(params),
                outcome->meter_delta.ToString().c_str());
  }

  bool done() const { return done_; }

  void RunDemo() {
    const char* queries[] = {
        "\\tables",
        "select student.name, student.advisor from student "
        "where student.year >= 5 order by student.name limit 5",
        "\\explain select student.name, mercury.docid from student, mercury "
        "where 'query optimization' in mercury.title "
        "and student.name in mercury.author",
        "select distinct student.name from student, mercury "
        "where student.advisor in mercury.author "
        "and student.name in mercury.author order by student.name",
        "\\analyze select mercury.docid from student, mercury "
        "where 'filtering' in mercury.title "
        "and student.name in mercury.author",
        "\\meter",
    };
    for (const char* q : queries) {
      std::printf("textjoin> %s\n", q);
      HandleLine(q);
      std::printf("\n");
    }
  }

 private:
  void Analyze(const std::string& sql) {
    // Every Run() outcome carries its plan, parsed query and per-node
    // profile, so it renders its own EXPLAIN ANALYZE.
    auto outcome = service_.Run(sql);
    if (!outcome.ok()) {
      std::printf("error: %s\n", outcome.status().ToString().c_str());
      return;
    }
    std::printf("%s", ExplainAnalyze(*outcome).c_str());
    PrintResult(outcome->rows);
  }

  UniversityWorkload workload_;
  FederationService service_;
  bool done_ = false;
};

int Run() {
  UniversityConfig config;
  config.num_students = 100;
  config.num_documents = 2000;
  auto workload = BuildUniversity(config);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  Shell shell(std::move(*workload));

  if (isatty(fileno(stdin)) == 0) {
    // Unattended: run the demo tour and also drain any piped input.
    shell.RunDemo();
    std::string line;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), stdin) != nullptr && !shell.done()) {
      shell.HandleLine(buf);
    }
    return 0;
  }

  std::printf("textjoin shell — SQL over a federated university database.\n"
              "Try \\demo, \\tables, or a query; \\quit exits.\n");
  char buf[4096];
  for (;;) {
    std::printf("textjoin> ");
    std::fflush(stdout);
    if (std::fgets(buf, sizeof(buf), stdin) == nullptr) break;
    shell.HandleLine(buf);
    if (shell.done()) break;
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
