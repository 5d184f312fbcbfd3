#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/thread_pool.h"
#include "connector/chaos.h"
#include "connector/remote_text_source.h"
#include "connector/resilience.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "text/storage.h"
#include "workload/university.h"

namespace textjoin {
namespace {

using textjoin::testing::DocidSet;
using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;
using textjoin::testing::PairSet;

std::vector<std::string> RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

// ---------------------------------------------------------------------------
// Backoff

TEST(BackoffTest, ScheduleIsDeterministicAndBounded) {
  const auto base = std::chrono::microseconds(100);
  const auto cap = std::chrono::microseconds(5000);
  DecorrelatedJitterBackoff a(base, cap, 3.0, /*seed=*/99);
  DecorrelatedJitterBackoff b(base, cap, 3.0, /*seed=*/99);
  DecorrelatedJitterBackoff other(base, cap, 3.0, /*seed=*/100);
  std::vector<int64_t> sa, sb, so;
  for (int i = 0; i < 20; ++i) {
    const auto da = a.NextDelay();
    sa.push_back(da.count());
    sb.push_back(b.NextDelay().count());
    so.push_back(other.NextDelay().count());
    EXPECT_GE(da, base) << "delay " << i;
    EXPECT_LE(da, cap) << "delay " << i;
  }
  EXPECT_EQ(sa, sb);   // Same seed, same schedule.
  EXPECT_NE(sa, so);   // Different seed decorrelates.
}

// ---------------------------------------------------------------------------
// Circuit breaker (fake clock drives the cooldown deterministically)

class CircuitBreakerTest : public ::testing::Test {
 protected:
  CircuitBreakerTest() {
    options_.failure_threshold = 3;
    options_.cooldown = std::chrono::milliseconds(100);
    options_.half_open_successes = 1;
  }

  CircuitBreaker MakeBreaker() {
    return CircuitBreaker(options_, [this] { return now_; });
  }
  void Advance(std::chrono::milliseconds d) { now_ += d; }

  CircuitBreakerOptions options_;
  CircuitBreaker::TimePoint now_{};
};

TEST_F(CircuitBreakerTest, TripsAtThresholdAndRejectsWhileOpen) {
  CircuitBreaker breaker = MakeBreaker();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed) << i;
  }
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // Third consecutive failure trips it.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);

  // Open within the cooldown: every call fails fast.
  Advance(std::chrono::milliseconds(99));
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.rejections(), 2u);
}

TEST_F(CircuitBreakerTest, SuccessResetsConsecutiveFailureCount) {
  CircuitBreaker breaker = MakeBreaker();
  // threshold-1 failures, a success, then threshold-1 more: never trips.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(breaker.Allow());
      breaker.RecordFailure();
    }
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.times_opened(), 0u);
}

TEST_F(CircuitBreakerTest, CooldownAdmitsOneProbeThatCloses) {
  CircuitBreaker breaker = MakeBreaker();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  Advance(std::chrono::milliseconds(100));
  EXPECT_TRUE(breaker.Allow());  // The probe.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // Only one probe in flight at a time.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST_F(CircuitBreakerTest, FailedProbeReopens) {
  CircuitBreaker breaker = MakeBreaker();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  Advance(std::chrono::milliseconds(150));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // Probe failed: still down.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  EXPECT_FALSE(breaker.Allow());  // New cooldown started from the re-open.
  Advance(std::chrono::milliseconds(100));
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST_F(CircuitBreakerTest, MultipleProbeSuccessesRequiredToClose) {
  options_.half_open_successes = 2;
  CircuitBreaker breaker = MakeBreaker();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  Advance(std::chrono::milliseconds(100));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.Allow());  // Next probe admitted after the first.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// Chaos injection

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() : engine_(MakeSmallEngine()), remote_(engine_.get()) {}

  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource remote_;
};

TEST_F(ChaosTest, PeriodicFailuresAreExact) {
  ChaosOptions options;
  options.failure_period = 3;
  ChaosTextSource chaos(&remote_, options);
  TextQueryPtr query = TextQuery::Term("title", "belief");
  int failures = 0;
  for (int i = 1; i <= 9; ++i) {
    auto result = chaos.Search(*query);
    if (!result.ok()) {
      ++failures;
      EXPECT_EQ(i % 3, 0) << "failure at op " << i;
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(chaos.stats().search_failures, 3u);
  EXPECT_EQ(chaos.stats().operations, 9u);
}

TEST_F(ChaosTest, SeededDrawsAreReproducible) {
  ChaosOptions options;
  options.seed = 17;
  options.search_failure_rate = 0.3;
  options.fetch_failure_rate = 0.3;
  TextQueryPtr query = TextQuery::Term("title", "belief");

  auto run = [&] {
    ChaosTextSource chaos(&remote_, options);
    std::vector<bool> outcomes;
    for (int i = 0; i < 25; ++i) {
      outcomes.push_back(chaos.Search(*query).ok());
      outcomes.push_back(chaos.Fetch("d1").ok());
    }
    return std::make_pair(outcomes, chaos.stats().search_failures +
                                        chaos.stats().fetch_failures);
  };
  const auto [first, first_failures] = run();
  const auto [second, second_failures] = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_failures, second_failures);
  EXPECT_GT(first_failures, 0u);  // 50 ops at 30%: some must fail.
}

TEST_F(ChaosTest, TruncationLosesTailOfSuccessfulSearches) {
  ChaosOptions options;
  options.truncate_rate = 1.0;
  ChaosTextSource chaos(&remote_, options);
  // "gravano or kao" matches d2, d3, d4 in the small corpus.
  auto query = ParseTextQuery("author='gravano' or author='kao'");
  ASSERT_TRUE(query.ok());
  auto full = remote_.Search(**query);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 1u);
  auto truncated = chaos.Search(**query);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->size(), full->size() / 2);
  EXPECT_EQ(chaos.stats().truncated_searches, 1u);
}

// ---------------------------------------------------------------------------
// Resilient source

/// Fails the first `failures` operations (searches and fetches share the
/// counter) with `code`, then forwards; counts inner calls it let through.
class FailNTimesSource final : public TextSourceDecorator {
 public:
  FailNTimesSource(TextSource* inner, int failures, StatusCode code)
      : TextSourceDecorator(inner), failures_(failures), code_(code) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    if (calls_.fetch_add(1) < failures_) return Status(code_, "injected");
    forwarded_.fetch_add(1);
    return inner_->Search(query);
  }
  Result<Document> Fetch(const std::string& docid) const override {
    if (calls_.fetch_add(1) < failures_) return Status(code_, "injected");
    forwarded_.fetch_add(1);
    return inner_->Fetch(docid);
  }

  int calls() const { return calls_.load(); }
  int forwarded() const { return forwarded_.load(); }

 private:
  const int failures_;
  const StatusCode code_;
  mutable std::atomic<int> calls_{0};
  mutable std::atomic<int> forwarded_{0};
};

class ResilientSourceTest : public ::testing::Test {
 protected:
  ResilientSourceTest() : engine_(MakeSmallEngine()), remote_(engine_.get()) {
    options_.retry.max_attempts = 5;
    options_.sleeper = [this](std::chrono::microseconds d) {
      slept_.push_back(d.count());
    };
  }

  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource remote_;
  ResilienceOptions options_;
  std::vector<int64_t> slept_;
};

TEST_F(ResilientSourceTest, RetriesTransientFailuresUntilSuccess) {
  FailNTimesSource flaky(&remote_, 2, StatusCode::kUnavailable);
  ResilientTextSource resilient(&flaky, options_);
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = resilient.Search(*query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->empty());
  EXPECT_EQ(flaky.calls(), 3);  // 2 failed attempts + the success.
  EXPECT_EQ(resilient.stats().retries, 2u);
  EXPECT_EQ(resilient.stats().exhausted, 0u);
  EXPECT_EQ(slept_.size(), 2u);  // One backoff sleep per retry.
}

TEST_F(ResilientSourceTest, PermanentErrorsAreNeverRetried) {
  FailNTimesSource broken(&remote_, 1, StatusCode::kInvalidArgument);
  ResilientTextSource resilient(&broken, options_);
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = resilient.Search(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(broken.calls(), 1);  // No second attempt.
  EXPECT_EQ(resilient.stats().retries, 0u);
  // Permanent errors say nothing about server health: breaker untouched.
  ASSERT_NE(resilient.breaker(), nullptr);
  EXPECT_EQ(resilient.breaker()->state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(slept_.empty());
}

TEST_F(ResilientSourceTest, ExhaustedAttemptsPropagateTheFailure) {
  options_.retry.max_attempts = 3;
  options_.enable_breaker = false;
  FailNTimesSource dead(&remote_, 1 << 20, StatusCode::kUnavailable);
  ResilientTextSource resilient(&dead, options_);
  auto result = resilient.Fetch("d1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("after 3 attempts"),
            std::string::npos);
  EXPECT_EQ(dead.calls(), 3);
  EXPECT_EQ(resilient.stats().retries, 2u);
  EXPECT_EQ(resilient.stats().exhausted, 1u);
}

TEST_F(ResilientSourceTest, RetryScheduleIsDeterministic) {
  auto run = [&] {
    std::vector<int64_t> delays;
    ResilienceOptions options;
    options.retry.max_attempts = 4;
    options.retry.jitter_seed = 7;
    options.enable_breaker = false;
    options.sleeper = [&delays](std::chrono::microseconds d) {
      delays.push_back(d.count());
    };
    FailNTimesSource flaky(&remote_, 6, StatusCode::kUnavailable);
    ResilientTextSource resilient(&flaky, options);
    TextQueryPtr query = TextQuery::Term("title", "belief");
    (void)resilient.Search(*query);  // 4 attempts, exhausted.
    (void)resilient.Search(*query);  // 2 failures + 1 success.
    return delays;
  };
  const std::vector<int64_t> first = run();
  const std::vector<int64_t> second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 5u);  // 3 sleeps for op 1, 2 for op 2.
}

TEST_F(ResilientSourceTest, BreakerFailsFastAfterConsecutiveFailures) {
  options_.retry.max_attempts = 1;  // Each op is a single attempt.
  options_.breaker.failure_threshold = 2;
  options_.breaker.cooldown = std::chrono::hours(1);
  FailNTimesSource dead(&remote_, 1 << 20, StatusCode::kUnavailable);
  ResilientTextSource resilient(&dead, options_);
  TextQueryPtr query = TextQuery::Term("title", "belief");
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(resilient.Search(*query).ok());
  }
  // Two real attempts tripped the breaker; the other three failed fast
  // without touching the remote.
  EXPECT_EQ(dead.calls(), 2);
  EXPECT_EQ(resilient.stats().breaker_opens, 1u);
  EXPECT_EQ(resilient.stats().breaker_rejections, 3u);
  EXPECT_EQ(resilient.breaker()->state(), CircuitBreaker::State::kOpen);
}

TEST_F(ResilientSourceTest, DeadlineDiscardsSlowAttempts) {
  ChaosOptions slow;
  slow.search_latency = std::chrono::microseconds(2000);
  ChaosTextSource slow_remote(&remote_, slow);
  options_.retry.max_attempts = 2;
  options_.enable_breaker = false;
  options_.search_deadline = std::chrono::microseconds(100);
  ResilientTextSource resilient(&slow_remote, options_);
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = resilient.Search(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The first attempt blew the whole operation budget, so it is discarded
  // AND no retry is attempted: a second attempt could only come back too
  // late as well, and backing off first would make it later still.
  EXPECT_EQ(resilient.stats().deadline_hits, 1u);
  EXPECT_EQ(resilient.stats().exhausted, 1u);
  // The slow attempt really happened: its traffic was charged.
  EXPECT_EQ(remote_.meter().invocations, 1u);
}

// ---------------------------------------------------------------------------
// Graceful degradation through the join methods

class DegradationTest : public ::testing::Test {
 protected:
  DegradationTest() : engine_(MakeSmallEngine()), table_(MakeStudentTable()) {
    spec_.left_schema = table_->schema();
    spec_.text = MercuryDecl();
    spec_.selections = {{"belief", "title"}};
    spec_.joins = {{"student.name", "author"}, {"student.advisor", "author"}};
    sj_spec_ = spec_;
    sj_spec_.left_columns_needed = false;
    sj_spec_.need_document_fields = false;
  }

  struct Case {
    JoinMethodKind method;
    PredicateMask mask;
    const ForeignJoinSpec* spec;
  };
  std::vector<Case> AllMethods() const {
    return {{JoinMethodKind::kTS, 0, &spec_},
            {JoinMethodKind::kRTP, 0, &spec_},
            {JoinMethodKind::kSJ, 0, &sj_spec_},
            {JoinMethodKind::kSJRTP, 0, &spec_},
            {JoinMethodKind::kPTS, 0b01, &spec_},
            {JoinMethodKind::kPRTP, 0b10, &spec_}};
  }

  std::unique_ptr<TextEngine> engine_;
  std::unique_ptr<Table> table_;
  ForeignJoinSpec spec_;
  ForeignJoinSpec sj_spec_;
};

/// The acceptance bar of the resilience layer: under seeded 10% transient
/// chaos with retry-then-fail, every method's rows AND meter totals are
/// byte-identical to the fault-free run. (Injected failures short-circuit
/// before the engine, and every retried operation re-issues the identical
/// request, so full recovery charges exactly the fault-free meter.)
TEST_F(DegradationTest, RetryThenFailMatchesFaultFreeRunExactly) {
  uint64_t total_retries = 0;
  for (const Case& c : AllMethods()) {
    RemoteTextSource clean(engine_.get());
    auto truth = ExecuteForeignJoin(c.method, *c.spec, table_->rows(), clean,
                                    c.mask);
    ASSERT_TRUE(truth.ok()) << JoinMethodName(c.method);

    RemoteTextSource remote(engine_.get());
    ChaosOptions chaos_options;
    // Seed 12 draws an injected failure at ordinal 1, so every method's
    // very first operation fails and must be retried.
    chaos_options.seed = 12;
    chaos_options.search_failure_rate = 0.1;
    chaos_options.fetch_failure_rate = 0.1;
    ChaosTextSource chaos(&remote, chaos_options);
    ResilienceOptions resilience;
    resilience.retry.max_attempts = 8;
    resilience.enable_breaker = false;
    resilience.sleeper = [](std::chrono::microseconds) {};
    ResilientTextSource resilient(&chaos, resilience);

    AtomicDegradation sink;
    FaultPolicy policy;
    policy.mode = FailureMode::kRetryThenFail;
    policy.degradation = &sink;
    auto result = ExecuteForeignJoin(c.method, *c.spec, table_->rows(),
                                     resilient, c.mask, nullptr, policy);
    ASSERT_TRUE(result.ok())
        << JoinMethodName(c.method) << ": " << result.status().ToString();
    EXPECT_EQ(RenderRows(result->rows), RenderRows(truth->rows))
        << JoinMethodName(c.method);
    EXPECT_EQ(remote.meter(), clean.meter())
        << JoinMethodName(c.method) << " chaotic=" << remote.meter().ToString()
        << " clean=" << clean.meter().ToString();
    EXPECT_TRUE(sink.Snapshot().complete) << JoinMethodName(c.method);
    total_retries += resilient.stats().retries;
  }
  EXPECT_GT(total_retries, 0u);  // The chaos was not a no-op.
}

/// Best-effort mode never fails on transient errors; its report is honest:
/// complete == rows equal the truth, incomplete == rows are a strict
/// subset with non-zero skip counters.
TEST_F(DegradationTest, BestEffortReportsCompletenessHonestly) {
  bool saw_incomplete = false;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Case& c : AllMethods()) {
      RemoteTextSource clean(engine_.get());
      auto truth = ExecuteForeignJoin(c.method, *c.spec, table_->rows(),
                                      clean, c.mask);
      ASSERT_TRUE(truth.ok());
      const auto expected = PairSet(*truth, spec_.left_schema.num_columns());

      RemoteTextSource remote(engine_.get());
      ChaosOptions chaos_options;
      chaos_options.seed = seed;
      chaos_options.search_failure_rate = 0.35;
      chaos_options.fetch_failure_rate = 0.35;
      ChaosTextSource chaos(&remote, chaos_options);
      ResilienceOptions resilience;
      resilience.retry.max_attempts = 2;
      resilience.enable_breaker = false;
      resilience.sleeper = [](std::chrono::microseconds) {};
      ResilientTextSource resilient(&chaos, resilience);

      AtomicDegradation sink;
      FaultPolicy policy;
      policy.mode = FailureMode::kBestEffort;
      policy.degradation = &sink;
      auto result = ExecuteForeignJoin(c.method, *c.spec, table_->rows(),
                                       resilient, c.mask, nullptr, policy);
      ASSERT_TRUE(result.ok())
          << JoinMethodName(c.method) << " seed " << seed << ": "
          << result.status().ToString();
      const auto got = PairSet(*result, spec_.left_schema.num_columns());
      const DegradationReport report = sink.Snapshot();
      if (report.complete) {
        EXPECT_EQ(got, expected)
            << JoinMethodName(c.method) << " seed " << seed;
      } else {
        saw_incomplete = true;
        // A subset of the truth, and the report says why.
        for (const auto& pair : got) {
          EXPECT_TRUE(expected.count(pair) > 0)
              << JoinMethodName(c.method) << " seed " << seed
              << " spurious row " << pair.first << "/" << pair.second;
        }
        EXPECT_GT(report.skipped_operations + report.skipped_batches, 0u)
            << JoinMethodName(c.method) << " seed " << seed;
      }
    }
  }
  EXPECT_TRUE(saw_incomplete);  // 35% chaos with 2 attempts must bite.
}

/// Models a remote that transiently rejects big OR-batches: any search
/// with more than `limit` basic terms fails Unavailable. Semi-join
/// recovery must re-split the batch until each piece fits.
class TermLimitedSource final : public TextSourceDecorator {
 public:
  TermLimitedSource(TextSource* inner, size_t limit)
      : TextSourceDecorator(inner), limit_(limit) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    if (query.CountTerms() > limit_) {
      rejected_.fetch_add(1);
      return Status::Unavailable("batch too large for the remote");
    }
    return inner_->Search(query);
  }
  Result<Document> Fetch(const std::string& docid) const override {
    return inner_->Fetch(docid);
  }
  int rejected() const { return rejected_.load(); }

 private:
  const size_t limit_;
  mutable std::atomic<int> rejected_{0};
};

TEST_F(DegradationTest, SemiJoinResplitsBatchesTheRemoteRejects) {
  RemoteTextSource clean(engine_.get());
  auto truth = ExecuteForeignJoin(JoinMethodKind::kSJ, sj_spec_,
                                  table_->rows(), clean);
  ASSERT_TRUE(truth.ok());

  // 5 distinct (name, advisor) groups x 2 terms + 1 selection = 11 terms;
  // a limit of 6 rejects the full batch and its first half.
  RemoteTextSource remote(engine_.get());
  TermLimitedSource limited(&remote, 6);
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kRetryThenFail;
  policy.degradation = &sink;
  auto result = ExecuteForeignJoin(JoinMethodKind::kSJ, sj_spec_,
                                   table_->rows(), limited, 0, nullptr,
                                   policy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DocidSet(*result, spec_.left_schema.num_columns()),
            DocidSet(*truth, spec_.left_schema.num_columns()));
  const DegradationReport report = sink.Snapshot();
  EXPECT_TRUE(report.complete) << report.ToString();
  EXPECT_GT(report.batch_resplits, 0u);
  EXPECT_GT(limited.rejected(), 0);

  // Fail-fast has no recovery: the same source aborts the join.
  RemoteTextSource remote2(engine_.get());
  TermLimitedSource limited2(&remote2, 6);
  auto failed = ExecuteForeignJoin(JoinMethodKind::kSJ, sj_spec_,
                                   table_->rows(), limited2);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

/// Concurrent chaos + resilience + best-effort under a shared pool: the
/// stress target for TSan builds. Assertions are the same honesty
/// contract; the point is that no run, however scheduled, races.
TEST_F(DegradationTest, ConcurrentChaosStressIsRaceFree) {
  ThreadPool pool(7);
  RemoteTextSource clean(engine_.get());
  auto truth = ExecuteForeignJoin(JoinMethodKind::kTS, spec_, table_->rows(),
                                  clean);
  ASSERT_TRUE(truth.ok());
  const auto expected = PairSet(*truth, spec_.left_schema.num_columns());

  for (uint64_t iter = 0; iter < 4; ++iter) {
    RemoteTextSource remote(engine_.get());
    ChaosOptions chaos_options;
    chaos_options.seed = 1000 + iter;
    chaos_options.search_failure_rate = 0.2;
    chaos_options.fetch_failure_rate = 0.2;
    ChaosTextSource chaos(&remote, chaos_options);
    ResilienceOptions resilience;
    resilience.retry.max_attempts = 3;
    resilience.breaker.failure_threshold = 1000;  // Stay closed.
    resilience.sleeper = [](std::chrono::microseconds) {};
    ResilientTextSource resilient(&chaos, resilience);

    AtomicDegradation sink;
    FaultPolicy policy;
    policy.mode = FailureMode::kBestEffort;
    policy.degradation = &sink;
    auto result = ExecuteForeignJoin(JoinMethodKind::kTS, spec_,
                                     table_->rows(), resilient, 0, &pool,
                                     policy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto got = PairSet(*result, spec_.left_schema.num_columns());
    for (const auto& pair : got) {
      EXPECT_TRUE(expected.count(pair) > 0) << "iter " << iter;
    }
    if (sink.Snapshot().complete) {
      EXPECT_EQ(got, expected) << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// DiskTextEngine concurrency (the shared-file-handle fix)

TEST(DiskEngineConcurrencyTest, ParallelJoinMatchesSerialExecution) {
  auto engine = MakeSmallEngine();
  auto table = MakeStudentTable();
  const std::string cpath = ::testing::TempDir() + "/resilience_disk.tjc";
  const std::string ipath = ::testing::TempDir() + "/resilience_disk.tji";
  ASSERT_TRUE(WriteCorpusFile(*engine, cpath).ok());
  ASSERT_TRUE(WriteIndexFile(*engine, ipath).ok());
  auto disk = DiskTextEngine::Open(cpath, ipath, /*max_search_terms=*/70);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  ForeignJoinSpec spec;
  spec.left_schema = table->schema();
  spec.text = MercuryDecl();
  spec.selections = {{"belief", "title"}};
  spec.joins = {{"student.name", "author"}, {"student.advisor", "author"}};

  // Concurrent searches hammer the shared index file handle; before the
  // ReadList fix this raced on the seek+read pair. Several iterations give
  // TSan schedules to bite on.
  ThreadPool pool(7);
  for (const JoinMethodKind method :
       {JoinMethodKind::kTS, JoinMethodKind::kSJRTP}) {
    for (int iter = 0; iter < 3; ++iter) {
      RemoteTextSource serial_source(disk->get());
      auto serial = ExecuteForeignJoin(method, spec, table->rows(),
                                       serial_source);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      RemoteTextSource parallel_source(disk->get());
      auto parallel = ExecuteForeignJoin(method, spec, table->rows(),
                                         parallel_source, 0, &pool);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(RenderRows(serial->rows), RenderRows(parallel->rows))
          << JoinMethodName(method);
      EXPECT_EQ(serial_source.meter(), parallel_source.meter())
          << JoinMethodName(method);
    }
  }
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}

// ---------------------------------------------------------------------------
// Service-level wiring

/// Advertises a concurrency cap and records the in-flight high-water mark,
/// proving the executor honors max_concurrency end to end.
class ConcurrencyTrackingSource final : public TextSourceDecorator {
 public:
  ConcurrencyTrackingSource(TextSource* inner, int cap,
                            std::atomic<int>* high_water)
      : TextSourceDecorator(inner), cap_(cap), high_water_(high_water) {}

  int max_concurrency() const override { return cap_; }

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    Enter();
    auto result = inner_->Search(query);
    in_flight_.fetch_sub(1);
    return result;
  }
  Result<Document> Fetch(const std::string& docid) const override {
    Enter();
    auto result = inner_->Fetch(docid);
    in_flight_.fetch_sub(1);
    return result;
  }

 private:
  void Enter() const {
    const int current = in_flight_.fetch_add(1) + 1;
    int seen = high_water_->load();
    while (current > seen &&
           !high_water_->compare_exchange_weak(seen, current)) {
    }
  }

  const int cap_;
  std::atomic<int>* high_water_;
  mutable std::atomic<int> in_flight_{0};
};

class ResilienceServiceTest : public ::testing::Test {
 protected:
  ResilienceServiceTest() {
    UniversityConfig config;
    config.num_students = 40;
    config.num_faculty = 10;
    config.num_projects = 8;
    config.num_documents = 200;
    auto built = BuildUniversity(config);
    TEXTJOIN_CHECK(built.ok(), "%s", built.status().ToString().c_str());
    workload_ = std::move(*built);
  }

  FederationService MakeService(FederationService::Options options) {
    options.text = workload_.text;
    return FederationService(workload_.catalog.get(), workload_.engine.get(),
                             options);
  }

  UniversityWorkload workload_;
};

const char* const kStudentSql =
    "select student.name, mercury.docid from student, mercury "
    "where student.year > 2 and student.name in mercury.author";

TEST_F(ResilienceServiceTest, ChaoticServiceRecoversByteIdentically) {
  FederationService clean = MakeService(FederationService::Options{});
  auto truth = clean.Run(kStudentSql);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_FALSE(truth->degradation.degraded());

  FederationService::Options options;
  options.parallelism = 4;
  options.chain.resilience.emplace();
  options.chain.resilience->retry.max_attempts = 8;
  options.chain.resilience->enable_breaker = false;
  options.chain.resilience->sleeper = [](std::chrono::microseconds) {};
  options.failure_mode = FailureMode::kRetryThenFail;
  options.execution_source_decorator = [](TextSource* inner) {
    ChaosOptions chaos;
    chaos.seed = 5;
    chaos.search_failure_rate = 0.15;
    chaos.fetch_failure_rate = 0.15;
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
  FederationService chaotic = MakeService(options);
  auto outcome = chaotic.Run(kStudentSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(RenderRows(outcome->rows.rows), RenderRows(truth->rows.rows));
  EXPECT_EQ(outcome->meter_delta, truth->meter_delta)
      << "chaotic=" << outcome->meter_delta.ToString()
      << " clean=" << truth->meter_delta.ToString();
  EXPECT_TRUE(outcome->degradation.complete);
  EXPECT_GT(outcome->degradation.resilience.retries, 0u)
      << outcome->degradation.ToString();
}

TEST_F(ResilienceServiceTest, DeadRemoteTripsTheSharedBreaker) {
  FederationService::Options options;
  options.chain.resilience.emplace();
  // Fail-fast aborts after the first operation exhausts its 2 attempts, so
  // the threshold must be reachable within those 2 recorded failures.
  options.chain.resilience->retry.max_attempts = 2;
  options.chain.resilience->breaker.failure_threshold = 2;
  options.chain.resilience->breaker.cooldown = std::chrono::hours(1);
  options.chain.resilience->sleeper = [](std::chrono::microseconds) {};
  options.execution_source_decorator = [](TextSource* inner) {
    ChaosOptions chaos;
    chaos.failure_period = 1;  // A dead server: every call fails.
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
  FederationService service = MakeService(options);
  auto first = service.Run(kStudentSql);
  ASSERT_FALSE(first.ok());
  ASSERT_NE(service.breaker(), nullptr);
  EXPECT_EQ(service.breaker()->state(), CircuitBreaker::State::kOpen);
  EXPECT_GE(service.breaker()->times_opened(), 1u);
  // The breaker is service-wide: the next query fails fast, without the
  // cooldown having elapsed.
  const uint64_t rejections_before = service.breaker()->rejections();
  auto second = service.Run(kStudentSql);
  ASSERT_FALSE(second.ok());
  EXPECT_GT(service.breaker()->rejections(), rejections_before);
}

TEST_F(ResilienceServiceTest, ReportCountsTheBreakerOpensOfThisQueryOnly) {
  // The breaker is shared across queries, so its own open count is a
  // lifetime total; each report carries the delta over its query.
  FederationService::Options options;
  options.failure_mode = FailureMode::kBestEffort;
  options.chain.resilience.emplace();
  options.chain.resilience->retry.max_attempts = 2;
  options.chain.resilience->breaker.failure_threshold = 2;
  options.chain.resilience->breaker.cooldown = std::chrono::hours(1);
  options.chain.resilience->sleeper = [](std::chrono::microseconds) {};
  options.execution_source_decorator = [](TextSource* inner) {
    ChaosOptions chaos;
    chaos.failure_period = 1;  // A dead server: every call fails.
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
  FederationService service = MakeService(options);
  auto first = service.Run(kStudentSql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->degradation.complete);
  EXPECT_EQ(first->degradation.resilience.breaker_opens, 1u);
  // Still open (the cooldown never elapses): the next query is only
  // rejected, and opens nothing new.
  auto second = service.Run(kStudentSql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->degradation.resilience.breaker_opens, 0u);
  EXPECT_GT(second->degradation.resilience.breaker_rejections, 0u);
  EXPECT_EQ(service.breaker()->times_opened(), 1u);
}

TEST_F(ResilienceServiceTest, ExecutorClampsParallelismToSourceCap) {
  std::atomic<int> high_water{0};
  FederationService::Options options;
  options.parallelism = 8;
  options.execution_source_decorator = [&high_water](TextSource* inner) {
    return std::make_unique<ConcurrencyTrackingSource>(inner, /*cap=*/2,
                                                       &high_water);
  };
  FederationService clamped = MakeService(options);
  auto outcome = clamped.Run(kStudentSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_LE(high_water.load(), 2);
  EXPECT_GE(high_water.load(), 1);

  // Same query, same answer as an unconstrained service.
  FederationService clean = MakeService(FederationService::Options{});
  auto truth = clean.Run(kStudentSql);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(RenderRows(outcome->rows.rows), RenderRows(truth->rows.rows));
}

TEST_F(ResilienceServiceTest, ConcurrentChaoticQueriesStaySane) {
  FederationService::Options options;
  options.parallelism = 2;
  options.chain.resilience.emplace();
  options.chain.resilience->retry.max_attempts = 6;
  options.chain.resilience->breaker.failure_threshold = 1000;
  options.chain.resilience->sleeper = [](std::chrono::microseconds) {};
  options.failure_mode = FailureMode::kBestEffort;
  std::atomic<uint64_t> next_seed{1};
  options.execution_source_decorator = [&next_seed](TextSource* inner) {
    ChaosOptions chaos;
    chaos.seed = next_seed.fetch_add(1);
    chaos.search_failure_rate = 0.15;
    chaos.fetch_failure_rate = 0.15;
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
  FederationService service = MakeService(options);

  FederationService clean = MakeService(FederationService::Options{});
  auto truth = clean.Run(kStudentSql);
  ASSERT_TRUE(truth.ok());
  std::set<std::string> expected;
  for (const Row& row : truth->rows.rows) expected.insert(RowToString(row));

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 3;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto outcome = service.Run(kStudentSql);
        if (!outcome.ok()) {
          violations.fetch_add(1);
          continue;
        }
        for (const Row& row : outcome->rows.rows) {
          if (expected.count(RowToString(row)) == 0) violations.fetch_add(1);
        }
        if (outcome->degradation.complete &&
            outcome->rows.rows.size() != truth->rows.rows.size()) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace textjoin
