#include "common/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "connector/chaos.h"
#include "connector/overload.h"
#include "connector/remote_text_source.h"
#include "connector/resilience.h"
#include "connector/text_cache.h"
#include "core/admission.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "core/pipeline.h"
#include "core/statistics.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace textjoin {
namespace {

using pipeline::StageKind;
using pipeline::StageScheduler;
using textjoin::testing::FakeClock;
using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

const char* const kSql =
    "select student.name, mercury.docid from student, mercury "
    "where 'belief' in mercury.title and student.name in mercury.author";

HedgeOptions ForceHedgeOptions(int pool_threads = 2) {
  HedgeOptions options;
  options.min_samples = 0;
  options.min_delay = std::chrono::microseconds(0);
  options.max_delay = std::chrono::microseconds(0);
  options.pool_threads = pool_threads;
  return options;
}

/// Always fails with a transient error; counts the calls it absorbed.
class FailingSource final : public TextSource {
 public:
  Result<std::vector<std::string>> Search(const TextQuery&) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected outage");
  }
  Result<Document> Fetch(const std::string&) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected outage");
  }
  size_t max_search_terms() const override { return 70; }
  size_t num_documents() const override { return 0; }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<uint64_t> calls_{0};
};

/// Every operation parks on the ambient token until `gate` opens (or the
/// token fires). A never-opened gate models a wedged remote that only
/// cancellation can unstick; the long per-wait slices keep a BROKEN
/// cancellation path failing via the ctest TIMEOUT instead of hanging CI.
class GatedSource final : public TextSourceDecorator {
 public:
  GatedSource(TextSource* inner, std::atomic<bool>* gate,
              std::atomic<int>* entered)
      : TextSourceDecorator(inner), gate_(gate), entered_(entered) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    TEXTJOIN_RETURN_IF_ERROR(Park());
    return inner_->Search(query);
  }
  Result<Document> Fetch(const std::string& docid) const override {
    TEXTJOIN_RETURN_IF_ERROR(Park());
    return inner_->Fetch(docid);
  }

 private:
  Status Park() const {
    entered_->fetch_add(1, std::memory_order_release);
    const CancelToken& token = CurrentCancelToken();
    while (!gate_->load(std::memory_order_acquire)) {
      if (token.SleepFor(std::chrono::milliseconds(1))) {
        return token.status();
      }
    }
    return Status::OK();
  }

  std::atomic<bool>* gate_;
  std::atomic<int>* entered_;
};

// ---------------------------------------------------------------------------
// CancelToken unit semantics

TEST(CancelTokenTest, NullTokenIsInert) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_TRUE(token.status().ok());
  token.Cancel(CancelReason::kClient, "ignored");
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_FALSE(token.SleepFor(std::chrono::microseconds(1)));
}

TEST(CancelTokenTest, FirstCancelWinsAndMapsToCancelledStatus) {
  CancelToken token = CancelToken::Make();
  EXPECT_TRUE(token.valid());
  EXPECT_TRUE(token.Check().ok());

  CancelToken copy = token;  // Copies share one state.
  copy.Cancel(CancelReason::kClient, "caller hung up");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kClient);
  Status status = token.Check();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("caller hung up"), std::string::npos);

  // Later cancellations (any reason) are no-ops: the first reason sticks.
  token.Cancel(CancelReason::kShutdown, "too late");
  EXPECT_EQ(token.reason(), CancelReason::kClient);
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ShutdownReasonAlsoMapsToCancelled) {
  CancelToken token = CancelToken::Make();
  token.Cancel(CancelReason::kShutdown, "drain");
  EXPECT_EQ(token.reason(), CancelReason::kShutdown);
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, DeadlineExpiryArmsTheTokenAsDeadlineExceeded) {
  FakeClock clock;
  CancelToken token = CancelToken::Make();
  token.SetDeadline(clock.Now() + std::chrono::milliseconds(10),
                    clock.clock());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.cancelled());

  clock.Advance(std::chrono::milliseconds(20));
  Status status = token.Check();  // The Check() notices and arms.
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, SleepForWakesPromptlyOnCancel) {
  CancelToken token = CancelToken::Make();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel(CancelReason::kClient, "wake up");
  });
  const auto start = std::chrono::steady_clock::now();
  const bool cancelled = token.SleepFor(std::chrono::seconds(30));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_TRUE(cancelled);
  // Interrupted long before the requested duration (generous bound for
  // loaded CI machines).
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(CancelTokenTest, OnCancelFiresOnceAndInlineWhenAlreadyCancelled) {
  CancelToken token = CancelToken::Make();
  std::atomic<int> fired{0};
  CancelToken::Registration reg =
      token.OnCancel([&] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 0);
  token.Cancel(CancelReason::kClient, "x");
  EXPECT_EQ(fired.load(), 1);
  token.Cancel(CancelReason::kClient, "again");  // Idempotent: no re-fire.
  EXPECT_EQ(fired.load(), 1);

  // Registering on an already-cancelled token fires inline.
  std::atomic<int> late{0};
  CancelToken::Registration late_reg =
      token.OnCancel([&] { late.fetch_add(1); });
  EXPECT_EQ(late.load(), 1);
}

TEST(CancelTokenTest, ReleasedRegistrationDoesNotFire) {
  CancelToken token = CancelToken::Make();
  std::atomic<int> fired{0};
  { CancelToken::Registration reg = token.OnCancel([&] { fired++; }); }
  token.Cancel(CancelReason::kClient, "x");
  EXPECT_EQ(fired.load(), 0);
}

TEST(CancelTokenTest, LinkChildPropagatesReasonAndMessage) {
  CancelToken parent = CancelToken::Make();
  CancelToken child = CancelToken::Make();
  CancelToken::Registration link = parent.LinkChild(child);
  parent.Cancel(CancelReason::kShutdown, "drain budget exhausted");
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.reason(), CancelReason::kShutdown);
  EXPECT_NE(child.status().message().find("drain budget"), std::string::npos);

  // An already-cancelled parent cancels a newly-linked child inline.
  CancelToken late_child = CancelToken::Make();
  CancelToken::Registration late = parent.LinkChild(late_child);
  EXPECT_TRUE(late_child.cancelled());

  // A released link no longer propagates.
  CancelToken parent2 = CancelToken::Make();
  CancelToken child2 = CancelToken::Make();
  { CancelToken::Registration r = parent2.LinkChild(child2); }
  parent2.Cancel(CancelReason::kClient, "x");
  EXPECT_FALSE(child2.cancelled());
}

TEST(CancelTokenTest, CancelScopeInstallsAndRestoresTheAmbientToken) {
  EXPECT_FALSE(CurrentCancelToken().valid());
  CancelToken outer = CancelToken::Make();
  {
    CancelScope outer_scope(outer);
    EXPECT_TRUE(CurrentCancelToken().valid());
    outer.Cancel(CancelReason::kClient, "outer");
    EXPECT_EQ(CurrentCancelToken().status().code(), StatusCode::kCancelled);
    CancelToken inner = CancelToken::Make();
    {
      CancelScope inner_scope(inner);
      EXPECT_TRUE(CurrentCancelToken().Check().ok());  // Inner shadows.
    }
    EXPECT_EQ(CurrentCancelToken().status().code(), StatusCode::kCancelled);
  }
  EXPECT_FALSE(CurrentCancelToken().valid());
}

// ---------------------------------------------------------------------------
// Observability: cancelled counters render only when non-zero, so
// pre-cancellation EXPLAIN ANALYZE / report output is byte-identical.

TEST(ObservabilityTest, CancelledCountersRenderOnlyWhenNonZero) {
  // The overload line takes its cancelled= field from the report.
  OverloadActivity activity;
  activity.limit = 4;
  DegradationReport report;
  EXPECT_EQ(activity.ToString(report).find("cancelled="), std::string::npos);
  EXPECT_EQ(report.ToString().find("cancelled="), std::string::npos);
  report.cancelled_operations = 3;
  EXPECT_NE(activity.ToString(report).find(" cancelled=3"),
            std::string::npos);
  EXPECT_NE(report.ToString().find(" cancelled=3"), std::string::npos);
  EXPECT_TRUE(report.degraded());
  activity.hedge.losers_cancelled = 2;
  EXPECT_NE(activity.ToString(report).find(" losers_cancelled=2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Deterministic chaos cancellation-point injection

TEST(ChaosCancelInjectionTest, CancelBeforeOpAbortsThatOpWithoutCharging) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  ChaosOptions options;
  options.cancel_before_op = 2;
  ChaosTextSource chaos(&metered, options);

  CancelToken token = CancelToken::Make();
  CancelScope scope(token);
  TextQueryPtr query = TextQuery::Term("title", "belief");
  ASSERT_TRUE(chaos.Search(*query).ok());  // Op 1 runs normally.
  auto second = chaos.Search(*query);      // Op 2 fires + observes the token.
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kClient);

  // The cancelled op never reached the inner source: one charge only.
  EXPECT_EQ(metered.meter().invocations, 1u);
  const ChaosStats stats = chaos.stats();
  EXPECT_EQ(stats.operations, 2u);
  EXPECT_EQ(stats.cancelled_operations, 1u);
}

TEST(ChaosCancelInjectionTest, CancelAfterOpLetsThatOpCompleteFirst) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  ChaosOptions options;
  options.cancel_after_op = 1;
  ChaosTextSource chaos(&metered, options);

  CancelToken token = CancelToken::Make();
  CancelScope scope(token);
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto first = chaos.Search(*query);  // Op 1 completes, then the token fires.
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 2u);
  EXPECT_TRUE(token.cancelled());

  auto second = chaos.Fetch("d1");  // Op 2 is the first to observe it.
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(metered.meter().invocations, 1u);
}

TEST(ChaosCancelInjectionTest, InjectedShutdownReasonFlowsThrough) {
  auto engine = MakeSmallEngine();
  RemoteTextSource remote(engine.get());
  ChaosOptions options;
  options.cancel_before_op = 1;
  options.cancel_reason = CancelReason::kShutdown;
  ChaosTextSource chaos(&remote, options);

  CancelToken token = CancelToken::Make();
  CancelScope scope(token);
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = chaos.Search(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.reason(), CancelReason::kShutdown);
}

// ---------------------------------------------------------------------------
// Resilience layer: cancellation interrupts backoff and stops retrying

TEST(ResilienceCancelTest, CancelInterruptsBackoffAndStopsRetrying) {
  FailingSource failing;
  ResilienceOptions options;
  options.retry.max_attempts = 100;
  options.retry.initial_backoff = std::chrono::seconds(30);
  options.retry.max_backoff = std::chrono::seconds(30);
  options.enable_breaker = false;
  ResilientTextSource resilient(&failing, options);

  CancelToken token = CancelToken::Make();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel(CancelReason::kClient, "abandoned mid-backoff");
  });
  Status status;
  const auto start = std::chrono::steady_clock::now();
  {
    CancelScope scope(token);
    TextQueryPtr query = TextQuery::Term("title", "belief");
    status = resilient.Search(*query).status();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();

  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  // The 30s backoff was interrupted and no further attempt was issued
  // against a source nobody is waiting on.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_EQ(failing.calls(), 1u);
}

// ---------------------------------------------------------------------------
// Limiter permit waits and admission queue waits are interruptible

TEST(LimiterCancelTest, CancelledTokenInterruptsThePermitWait) {
  AdaptiveLimiterOptions options;
  options.min_limit = options.max_limit = options.initial_limit = 1;
  AdaptiveLimiter limiter(options);
  Result<bool> holder = limiter.Acquire();
  ASSERT_TRUE(holder.ok());

  CancelToken token = CancelToken::Make();
  Status blocked_status;
  std::thread blocked([&] {
    blocked_status = limiter.Acquire(token).status();
  });
  while (limiter.stats().waiters == 0) std::this_thread::yield();
  token.Cancel(CancelReason::kClient, "abort while queued");
  blocked.join();

  ASSERT_FALSE(blocked_status.ok());
  EXPECT_EQ(blocked_status.code(), StatusCode::kCancelled);
  // The shed waiter holds NO permit: only the original holder is in flight.
  AdaptiveLimiterStats stats = limiter.stats();
  EXPECT_EQ(stats.in_flight, 1);
  EXPECT_EQ(stats.waiters, 0);
  limiter.Release(std::chrono::milliseconds(1), false);
  EXPECT_EQ(limiter.stats().in_flight, 0);
}

TEST(LimiterCancelTest, AlreadyCancelledTokenShedsBeforeWaiting) {
  AdaptiveLimiter limiter;
  CancelToken token = CancelToken::Make();
  token.Cancel(CancelReason::kShutdown, "drained");
  auto permit = limiter.Acquire(token);
  ASSERT_FALSE(permit.ok());
  EXPECT_EQ(permit.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(limiter.stats().in_flight, 0);
}

TEST(AdmissionCancelTest, QueuedEntryShedsImmediatelyOnCancel) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  AdmissionController admission(options);
  auto holder = admission.Admit(0.0, AdmissionController::TimePoint::max(), 0);
  ASSERT_TRUE(holder.ok());

  CancelToken token = CancelToken::Make();
  Status queued_status;
  std::thread queued([&] {
    queued_status = admission
                        .Admit(0.0, AdmissionController::TimePoint::max(), 0,
                               token)
                        .status();
  });
  while (admission.stats().waits < 1) std::this_thread::yield();
  token.Cancel(CancelReason::kClient, "client gave up in the queue");
  queued.join();

  ASSERT_FALSE(queued_status.ok());
  EXPECT_EQ(queued_status.code(), StatusCode::kCancelled);
  AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.shed_cancelled, 1u);
  EXPECT_EQ(stats.queued, 0u);  // The queue entry was removed, not leaked.
  EXPECT_EQ(stats.running, 1);
  *holder = AdmissionTicket{};
  stats = admission.stats();
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(AdmissionCancelTest, AlreadyCancelledTokenNeverTakesASlot) {
  AdmissionController admission;
  CancelToken token = CancelToken::Make();
  token.Cancel(CancelReason::kShutdown, "drained");
  auto ticket =
      admission.Admit(0.0, AdmissionController::TimePoint::max(), 0, token);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kCancelled);
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.shed_cancelled, 1u);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.admitted, 0u);
}

// ---------------------------------------------------------------------------
// Hedge-loser cancellation: the losing duplicate is cancelled mid-run and
// reclaims the backend cost it would have burned.

/// Primaries take `primary_delay` (so a forced hedge always launches a
/// duplicate); duplicates park on their ambient child token for
/// `duplicate_delay`. With loser cancellation on, the duplicate is
/// cancelled the moment the primary wins and never reaches the inner
/// source; with it off, the duplicate rides out the delay and charges the
/// waste meter.
class HedgeRaceSource final : public TextSourceDecorator {
 public:
  HedgeRaceSource(TextSource* inner, std::chrono::milliseconds primary_delay,
                  std::chrono::milliseconds duplicate_delay)
      : TextSourceDecorator(inner),
        primary_delay_(primary_delay),
        duplicate_delay_(duplicate_delay) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    TEXTJOIN_RETURN_IF_ERROR(Race());
    return inner_->Search(query);
  }
  Result<Document> Fetch(const std::string& docid) const override {
    TEXTJOIN_RETURN_IF_ERROR(Race());
    return inner_->Fetch(docid);
  }

 private:
  Status Race() const {
    if (InHedgeAttempt()) {
      if (CurrentCancelToken().SleepFor(duplicate_delay_)) {
        return CurrentCancelToken().status();
      }
    } else {
      std::this_thread::sleep_for(primary_delay_);
    }
    return Status::OK();
  }

  std::chrono::milliseconds primary_delay_;
  std::chrono::milliseconds duplicate_delay_;
};

TEST(HedgeCancelTest, LosingDuplicateIsCancelledAndChargesNothing) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  // The duplicate would park 30s: only loser cancellation can reclaim it.
  HedgeRaceSource slow(&metered, std::chrono::milliseconds(30),
                       std::chrono::seconds(30));
  HedgeController controller(ForceHedgeOptions(/*pool_threads=*/4));
  HedgedTextSource hedged(&slow, &controller);

  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = hedged.Search(*query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  hedged.Quiesce();  // The loser unwinds promptly — no 30s ride-out.

  const HedgeActivity activity = hedged.activity();
  EXPECT_EQ(activity.hedges, 1u);
  EXPECT_EQ(activity.losers_cancelled, 1u);
  EXPECT_EQ(controller.stats().losers_cancelled, 1u);
  // The cancelled duplicate never reached the inner source: no waste, and
  // the main meter carries exactly the unhedged charge.
  EXPECT_EQ(activity.waste, AccessMeter{});
  EXPECT_EQ(metered.meter().invocations, 1u);
}

TEST(HedgeCancelTest, CancelLosersOffRidesOutTheDuplicate) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  // Short duplicate delay: with cancellation off it really waits it out.
  HedgeRaceSource slow(&metered, std::chrono::milliseconds(30),
                       std::chrono::milliseconds(150));
  HedgeOptions options = ForceHedgeOptions(/*pool_threads=*/4);
  options.cancel_losers = false;  // The pre-cancellation ablation knob.
  HedgeController controller(options);
  HedgedTextSource hedged(&slow, &controller);

  TextQueryPtr query = TextQuery::Term("title", "belief");
  ASSERT_TRUE(hedged.Search(*query).ok());
  hedged.Quiesce();

  const HedgeActivity activity = hedged.activity();
  EXPECT_EQ(activity.hedges, 1u);
  EXPECT_EQ(activity.losers_cancelled, 0u);
  // The loser ran to completion and its full charge landed on the waste
  // meter (never the main meter).
  EXPECT_GT(activity.waste.invocations, 0u);
  EXPECT_EQ(metered.meter().invocations, 1u);
}

// ---------------------------------------------------------------------------
// Cache coalescing under cancellation: a cancelled leader hands leadership
// to a follower instead of hanging it (the satellite-1 regression wall).

TEST(CacheCoalescingCancelTest, AbandonedFlightHandsLeadershipToAFollower) {
  using Docids = TextCache::Docids;
  TextCache cache;
  TextCache::Ticket<Docids> leader = cache.Begin<Docids>("k");
  ASSERT_TRUE(leader.leader);

  std::latch follower_joined{1};
  std::vector<std::string> follower_rows;
  bool follower_ok = false;
  std::thread follower([&] {
    TextCache::Ticket<Docids> ticket = cache.Begin<Docids>("k");
    EXPECT_FALSE(ticket.leader);  // Coalesced onto the leader's flight.
    follower_joined.count_down();
    auto waited = TextCache::Wait(ticket);
    // The leader abandoned: the follower must NOT inherit kCancelled.
    EXPECT_FALSE(waited.has_value());
    TextCache::Ticket<Docids> retry = cache.Begin<Docids>("k");
    EXPECT_TRUE(retry.leader);  // Leadership handed off.
    Result<Docids> produced(Docids{"d1", "d4"});
    follower_ok = retry.leader;
    cache.Finish(retry, produced, {});
    follower_rows = *produced;
  });
  follower_joined.wait();

  // The leader was cancelled before producing anything usable.
  cache.Finish(leader,
               Result<Docids>(Status(StatusCode::kCancelled, "leader aborted")),
               {}, /*abandoned=*/true);
  follower.join();
  ASSERT_TRUE(follower_ok);
  EXPECT_EQ(follower_rows, (Docids{"d1", "d4"}));

  // The handed-off leader's publish is live: the next lookup hits.
  TextCache::Ticket<Docids> hit = cache.Begin<Docids>("k");
  ASSERT_TRUE(hit.cached.has_value());
  EXPECT_EQ(*hit.cached, (Docids{"d1", "d4"}));
}

TEST(CacheCoalescingCancelTest, FollowerOwnCancellationUnblocksItsWait) {
  using Docids = TextCache::Docids;
  TextCache cache;
  TextCache::Ticket<Docids> leader = cache.Begin<Docids>("k");
  ASSERT_TRUE(leader.leader);
  TextCache::Ticket<Docids> follower = cache.Begin<Docids>("k");
  ASSERT_FALSE(follower.leader);

  // A follower whose OWN query is cancelled leaves the flight immediately
  // with its token's status — it does not wait out a leader that may be
  // minutes away.
  CancelToken token = CancelToken::Make();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel(CancelReason::kClient, "follower abort");
  });
  auto waited = TextCache::Wait(follower, token);
  canceller.join();
  ASSERT_TRUE(waited.has_value());
  ASSERT_FALSE(waited->ok());
  EXPECT_EQ(waited->status().code(), StatusCode::kCancelled);

  // The leader is unaffected and still publishes normally.
  cache.Finish(leader, Result<Docids>(Docids{"d1"}), {});
  EXPECT_TRUE(cache.Begin<Docids>("k").cached.has_value());
}

TEST(CacheCoalescingCancelTest, EndToEndFollowerTakesOverACancelledLeader) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  GatedSource gated(&metered, &gate, &entered);
  auto cache = std::make_shared<TextCache>();
  CachingTextSource caching(&gated, cache);
  TextQueryPtr query = TextQuery::Term("title", "belief");

  CancelToken leader_token = CancelToken::Make();
  Status leader_status;
  std::thread leader([&] {
    CancelScope scope(leader_token);
    leader_status = caching.Search(*query).status();
  });
  while (entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Result<std::vector<std::string>> follower_result(
      Status::Unavailable("not run"));
  std::thread follower([&] {
    CancelToken token = CancelToken::Make();
    CancelScope scope(token);
    follower_result = caching.Search(*query);
  });
  // Wait until the follower is coalesced onto the leader's flight, so the
  // cancellation really exercises the handoff (not a fresh leadership).
  while (cache->Stats().coalesced == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  gate.store(true, std::memory_order_release);  // Let the takeover finish...
  gate.store(false, std::memory_order_release);
  gate.store(true, std::memory_order_release);
  leader_token.Cancel(CancelReason::kClient, "leader abandoned");
  leader.join();
  follower.join();

  // The leader may have been cancelled mid-flight or may have squeaked
  // through once the gate opened; either way the follower must end up with
  // the REAL result — never a hang, never an inherited kCancelled.
  ASSERT_TRUE(follower_result.ok()) << follower_result.status().ToString();
  EXPECT_EQ(follower_result->size(), 2u);
  if (!leader_status.ok()) {
    EXPECT_EQ(leader_status.code(), StatusCode::kCancelled);
  }
}

TEST(CacheCoalescingCancelTest, CancelledLeaderNeverHangsFollowers) {
  // The deterministic variant: the gate NEVER opens, so the leader can only
  // leave via cancellation — and the follower must take over, get cancelled
  // itself, and unwind. No path may deadlock.
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  GatedSource gated(&metered, &gate, &entered);
  auto cache = std::make_shared<TextCache>();
  CachingTextSource caching(&gated, cache);
  TextQueryPtr query = TextQuery::Term("title", "belief");

  CancelToken leader_token = CancelToken::Make();
  CancelToken follower_token = CancelToken::Make();
  Status leader_status, follower_status;
  std::thread leader([&] {
    CancelScope scope(leader_token);
    leader_status = caching.Search(*query).status();
  });
  while (entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread follower([&] {
    CancelScope scope(follower_token);
    follower_status = caching.Search(*query).status();
  });
  while (cache->Stats().coalesced == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  leader_token.Cancel(CancelReason::kClient, "leader abandoned");
  leader.join();  // Unblocks via its token — leadership abandoned.
  // The follower took over leadership and is now parked in the source
  // itself; its own cancellation unwinds it.
  follower_token.Cancel(CancelReason::kClient, "follower abandoned");
  follower.join();

  EXPECT_EQ(leader_status.code(), StatusCode::kCancelled);
  EXPECT_EQ(follower_status.code(), StatusCode::kCancelled);
  // Nothing reached the inner engine, and no flight entry leaked: a fresh
  // caller becomes a fresh leader instantly.
  EXPECT_EQ(metered.meter().invocations, 0u);
  TextCache::Ticket<TextCache::Docids> fresh =
      cache->Begin<TextCache::Docids>(query->CanonicalKey());
  EXPECT_TRUE(fresh.leader);
  cache->Finish(fresh,
                Result<TextCache::Docids>(Status::Unavailable("cleanup")), {},
                /*abandoned=*/true);
}

// ---------------------------------------------------------------------------
// Scheduler: cancellation stops dispatch and drains pending units as
// cancelled — an honest account, never a torn row set.

TEST(SchedulerCancelTest, CancelledTokenStopsDispatchBeforeTheSource) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kBestEffort;
  policy.degradation = &sink;
  CancelToken token = CancelToken::Make();
  token.Cancel(CancelReason::kClient, "gone");
  CancelScope scope(token);  // The scheduler adopts the ambient token.
  StageScheduler sched(nullptr, source, policy);

  auto stage = sched.AddStage({StageKind::kSearchDispatch, "s"});
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = sched.Search(stage, *query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(source.meter().invocations, 0u);  // Never touched the source.

  const DegradationReport report = sink.Snapshot();
  EXPECT_EQ(report.cancelled_operations, 1u);
  EXPECT_EQ(report.shed_operations, 0u);
  EXPECT_FALSE(report.complete);  // Honest: work was dropped.
}

TEST(SchedulerCancelTest, PendingUnitsDrainWithoutRunningAfterCancel) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kBestEffort;
  policy.degradation = &sink;
  CancelToken token = CancelToken::Make();
  CancelScope scope(token);
  StageScheduler sched(nullptr, source, policy);

  auto stage = sched.AddStage({StageKind::kFetch, "f"});
  std::atomic<int> ran{0};
  for (uint64_t i = 0; i < 8; ++i) {
    sched.Spawn(stage, i, [&ran] {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  token.Cancel(CancelReason::kClient, "abandoned with units pending");
  Status status = sched.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(ran.load(), 0);  // Captures released, bodies never ran.
  EXPECT_EQ(sink.Snapshot().cancelled_operations, 8u);
}

TEST(SchedulerCancelTest, DeadlineArmedTokenTakesTheShedPathInstead) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  FakeClock clock;
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kBestEffort;
  policy.degradation = &sink;
  CancelToken token = CancelToken::Make();
  token.SetDeadline(clock.Now(), clock.clock());
  clock.Advance(std::chrono::milliseconds(1));
  CancelScope scope(token);
  StageScheduler sched(nullptr, source, policy);

  auto stage = sched.AddStage({StageKind::kSearchDispatch, "s"});
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = sched.Search(stage, *query);
  ASSERT_FALSE(result.ok());
  // Deadline expiry is a SHED, not a cancel: best-effort execution keeps
  // the rows it has, exactly as deadline semantics always worked.
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const DegradationReport report = sink.Snapshot();
  EXPECT_EQ(report.shed_operations, 1u);
  EXPECT_EQ(report.cancelled_operations, 0u);
}

// ---------------------------------------------------------------------------
// Executor: the ambient query token reaches the scheduler and the report

TEST(ExecutorCancelTest, PreCancelledTokenAbortsWithoutSourceTraffic) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  auto query = ParseQuery(kSql, MercuryDecl());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(*query, catalog, *engine, registry).ok());
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(*query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  CancelToken token = CancelToken::Make();
  token.Cancel(CancelReason::kClient, "pre-cancelled");
  CancelScope scope(token);
  PlanExecutor executor(&catalog, &source);
  ExecutionProfile profile;
  DegradationReport degradation;
  auto result = executor.Execute(**plan, *query, &profile, &degradation);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(source.meter().invocations, 0u);
  EXPECT_GT(degradation.cancelled_operations, 0u);
  EXPECT_FALSE(degradation.complete);
}

// ---------------------------------------------------------------------------
// The public probe reducer builds its own scheduler, which adopts the
// caller's ambient token — so no pool worker probes for a cancelled query.

TEST(ProbeReducerCancelTest, PreCancelledAmbientTokenSendsNoProbes) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Schema schema;
  schema.AddColumn(Column{"student", "name", ValueType::kString});
  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back(Row{Value::Str("author" + std::to_string(i))});
  }
  ForeignJoinSpec spec;
  spec.left_schema = schema;
  spec.text = MercuryDecl();
  spec.joins = {{"student.name", "author"}};

  ThreadPool pool(3);
  ParallelFor(&pool, 64, [](size_t) {});  // Warm: every worker is running.
  CancelToken token = CancelToken::Make();
  token.Cancel(CancelReason::kClient, "pre-cancelled");
  CancelScope scope(token);
  auto survivors =
      ProbeSemiJoinReduce(spec, rows, source, /*probe_mask=*/0b1, &pool);
  ASSERT_FALSE(survivors.ok());
  EXPECT_EQ(survivors.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(source.meter().invocations, 0u);  // Not one probe was sent.
}

// ---------------------------------------------------------------------------
// The cancellation grid: six methods x parallelism {1,4,8} x injection
// points. Uncancelled queries stay byte-identical; cancelled queries
// return kCancelled without hanging and never publish a torn row set.

struct MethodCase {
  JoinMethodKind method;
  PredicateMask mask;
};

struct GridOutput {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> rows;
  AccessMeter meter;
  DegradationReport degradation;
  uint64_t chaos_ops = 0;
  uint64_t chaos_cancelled = 0;
};

class CancellationGridTest : public ::testing::TestWithParam<int> {
 protected:
  CancellationGridTest()
      : engine_(MakeSmallEngine()), table_(MakeStudentTable()) {}

  ForeignJoinSpec MakeSpec(const MethodCase& mc) const {
    ForeignJoinSpec spec;
    spec.left_schema = table_->schema();
    spec.text = MercuryDecl();
    spec.selections = {{"belief", "title"}};
    spec.joins = {{"student.name", "author"}, {"student.advisor", "author"}};
    if (mc.method == JoinMethodKind::kSJ) {
      spec.left_columns_needed = false;
      spec.need_document_fields = false;
    }
    return spec;
  }

  /// Runs chaos(resilient) under a fresh token at `par`-way parallelism,
  /// firing the token at the given chaos injection point (0/0 = never).
  GridOutput RunCase(const MethodCase& mc, int par, int64_t cancel_before,
                     int64_t cancel_after) const {
    RemoteTextSource metered(engine_.get());
    ChaosOptions chaos_options;
    chaos_options.cancel_before_op = cancel_before;
    chaos_options.cancel_after_op = cancel_after;
    ChaosTextSource chaos(&metered, chaos_options);
    ResilienceOptions resilience_options;
    resilience_options.retry.max_attempts = 2;
    resilience_options.enable_breaker = false;
    resilience_options.sleeper = [](std::chrono::microseconds) {};
    ResilientTextSource resilient(&chaos, resilience_options);

    AtomicDegradation sink;
    FaultPolicy policy;
    policy.mode = FailureMode::kBestEffort;
    policy.degradation = &sink;
    std::unique_ptr<ThreadPool> pool;
    if (par > 1) pool = std::make_unique<ThreadPool>(par - 1);

    CancelToken token = CancelToken::Make();
    GridOutput out;
    {
      CancelScope scope(token);
      auto result =
          ExecuteForeignJoin(mc.method, MakeSpec(mc), table_->rows(),
                             resilient, mc.mask, pool.get(), policy);
      out.ok = result.ok();
      out.code = result.ok() ? StatusCode::kOk : result.status().code();
      if (result.ok()) {
        for (const Row& row : result->rows) {
          out.rows.push_back(RowToString(row));
        }
      }
    }
    out.meter = metered.meter();
    out.degradation = sink.Snapshot();
    const ChaosStats stats = chaos.stats();
    out.chaos_ops = stats.operations;
    out.chaos_cancelled = stats.cancelled_operations;
    return out;
  }

  std::unique_ptr<TextEngine> engine_;
  std::unique_ptr<Table> table_;
};

TEST_P(CancellationGridTest, EveryMethodEveryInjectionPointUnwindsCleanly) {
  const int parallelism = GetParam();
  const std::vector<MethodCase> cases = {
      {JoinMethodKind::kTS, 0},     {JoinMethodKind::kRTP, 0},
      {JoinMethodKind::kSJ, 0},     {JoinMethodKind::kSJRTP, 0},
      {JoinMethodKind::kPTS, 0b01}, {JoinMethodKind::kPRTP, 0b10},
  };
  for (const MethodCase& mc : cases) {
    const std::string label = std::string(JoinMethodName(mc.method)) +
                              " par=" + std::to_string(parallelism);
    // The fault-free serial reference (a valid, never-fired token).
    const GridOutput baseline = RunCase(mc, 1, 0, 0);
    ASSERT_TRUE(baseline.ok) << label;
    ASSERT_GE(baseline.chaos_ops, 1u) << label;

    // Byte identity: a never-cancelled token at any parallelism changes
    // neither rows nor meter totals (token-check overhead only).
    const GridOutput clean = RunCase(mc, parallelism, 0, 0);
    ASSERT_TRUE(clean.ok) << label;
    EXPECT_EQ(clean.rows, baseline.rows) << label;
    EXPECT_EQ(clean.meter, baseline.meter)
        << label << "\n  clean:    " << clean.meter.ToString()
        << "\n  baseline: " << baseline.meter.ToString();
    EXPECT_TRUE(clean.degradation.complete) << label;
    EXPECT_EQ(clean.degradation.cancelled_operations, 0u) << label;

    const auto ops = static_cast<int64_t>(baseline.chaos_ops);
    struct Point {
      int64_t before;
      int64_t after;
    };
    // Cancel before the very first operation, at ~50% progress, and AFTER
    // a mid-query op completed (single-op methods like SJ only have the
    // first point).
    std::vector<Point> points = {{1, 0}};
    if (ops >= 2) {
      const int64_t mid = std::max<int64_t>(2, ops / 2);
      points.push_back({mid, 0});
      points.push_back({0, std::min(mid, ops - 1)});
    }
    for (const Point& point : points) {
      const GridOutput run =
          RunCase(mc, parallelism, point.before, point.after);
      const std::string plabel =
          label + " before=" + std::to_string(point.before) +
          " after=" + std::to_string(point.after);
      if (run.ok) {
        // Under parallelism the remaining in-flight operations can race
        // past the firing; a run that completes anyway must be the EXACT
        // fault-free answer — a torn subset is the one forbidden outcome.
        EXPECT_EQ(run.rows, baseline.rows) << plabel;
      } else {
        EXPECT_EQ(run.code, StatusCode::kCancelled) << plabel;
        EXPECT_TRUE(run.rows.empty()) << plabel;
        EXPECT_FALSE(run.degradation.complete) << plabel;
        EXPECT_GT(run.chaos_cancelled + run.degradation.cancelled_operations,
                  0u)
            << plabel;
      }
      // A cancelled run never charges MORE than the fault-free run.
      EXPECT_LE(run.meter.invocations, baseline.meter.invocations) << plabel;
      if (parallelism == 1 && point.before == 1) {
        // Serial, cancelled before op 1: nothing may reach the source.
        EXPECT_FALSE(run.ok) << plabel;
        EXPECT_EQ(run.meter.invocations, 0u) << plabel;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CancellationGridTest,
                         ::testing::Values(1, 4, 8));

// ---------------------------------------------------------------------------
// Service level: RunOptions.cancel, QueryHandle, Drain/Shutdown

TEST(ServiceCancelTest, PreCancelledRunReturnsCancelledWithoutExecuting) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  FederationService::Options options;
  options.text = MercuryDecl();
  FederationService service(&catalog, engine.get(), options);

  FederationService::RunOptions run;
  run.cancel = CancelToken::Make();
  run.cancel.Cancel(CancelReason::kClient, "caller already gone");
  auto outcome = service.Run(kSql, run);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.meter().invocations, 0u);

  // The service is untouched: the same query still runs to completion.
  auto healthy = service.Run(kSql);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_FALSE(healthy->rows.rows.empty());
}

TEST(ServiceCancelTest, InjectedMidQueryCancelNeverPublishesTornRows) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  std::atomic<int64_t> inject_at{0};
  FederationService::Options options;
  options.text = MercuryDecl();
  options.failure_mode = FailureMode::kBestEffort;  // Must NOT absorb this.
  options.execution_source_decorator = [&inject_at](TextSource* inner) {
    ChaosOptions chaos;
    chaos.cancel_before_op = inject_at.load();
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
  FederationService service(&catalog, engine.get(), options);

  auto baseline = service.Run(kSql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const uint64_t baseline_invocations = baseline->meter_delta.invocations;
  ASSERT_GE(baseline_invocations, 1u);

  // Cancel the query's own token mid-query (or at the first op when the
  // chosen plan needs only one).
  inject_at.store(baseline_invocations >= 2 ? 2 : 1);
  auto cancelled = service.Run(kSql);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  inject_at.store(0);  // And the service keeps serving afterwards.
  auto after = service.Run(kSql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->meter_delta.invocations, baseline_invocations);
}

TEST(ServiceCancelTest, QueryHandleCancelAbortsABlockedQuery) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  FederationService::Options options;
  options.text = MercuryDecl();
  options.execution_source_decorator = [&](TextSource* inner) {
    return std::make_unique<GatedSource>(inner, &gate, &entered);
  };
  FederationService service(&catalog, engine.get(), options);

  FederationService::QueryHandle handle = service.Launch(kSql);
  while (entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.Cancel("user pressed ^C");
  auto outcome = handle.Await();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.meter().invocations, 0u);  // Aborted before the source.
}

TEST(ServiceCancelTest, ExternalRunTokenLinksIntoTheQuery) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  FederationService::Options options;
  options.text = MercuryDecl();
  options.execution_source_decorator = [&](TextSource* inner) {
    return std::make_unique<GatedSource>(inner, &gate, &entered);
  };
  FederationService service(&catalog, engine.get(), options);

  FederationService::RunOptions run;
  run.cancel = CancelToken::Make();
  FederationService::QueryHandle handle = service.Launch(kSql, run);
  while (entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Cancelling the caller's external token (not the handle) aborts too.
  run.cancel.Cancel(CancelReason::kClient, "external abort");
  auto outcome = handle.Await();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
}

TEST(ServiceCancelTest, AwaitOnEmptyHandleIsAnError) {
  FederationService::QueryHandle empty;
  auto outcome = empty.Await();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  empty.Cancel();  // Harmless no-op.
}

TEST(ServiceDrainTest, DrainRefusesNewQueriesAndIsIdempotent) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  FederationService::Options options;
  options.text = MercuryDecl();
  FederationService service(&catalog, engine.get(), options);
  EXPECT_FALSE(service.draining());

  const FederationService::DrainReport report = service.Shutdown();
  EXPECT_EQ(report.in_flight, 0u);
  EXPECT_EQ(report.finished, 0u);
  EXPECT_EQ(report.cancelled, 0u);
  EXPECT_TRUE(service.draining());

  auto refused = service.Run(kSql);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  auto launched = service.Launch(kSql).Await();
  ASSERT_FALSE(launched.ok());
  EXPECT_EQ(launched.status().code(), StatusCode::kUnavailable);

  // A second drain observes what the first left.
  const FederationService::DrainReport again = service.Shutdown();
  EXPECT_EQ(again.in_flight, 0u);
  EXPECT_TRUE(service.draining());
}

TEST(ServiceDrainTest, InFlightQueriesFinishInsideTheBudget) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  FederationService::Options options;
  options.text = MercuryDecl();
  options.execution_source_decorator = [&](TextSource* inner) {
    return std::make_unique<GatedSource>(inner, &gate, &entered);
  };
  FederationService service(&catalog, engine.get(), options);

  auto reference_rows = [&] {
    gate.store(true);
    auto reference = service.Run(kSql);
    gate.store(false);
    EXPECT_TRUE(reference.ok()) << reference.status().ToString();
    std::vector<std::string> rows;
    if (reference.ok()) {
      for (const Row& row : reference->rows.rows) {
        rows.push_back(RowToString(row));
      }
    }
    return rows;
  }();
  entered.store(0);

  FederationService::QueryHandle handle = service.Launch(kSql);
  while (entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FederationService::DrainReport report;
  std::thread drainer([&] {
    report = service.Drain(std::chrono::seconds(30));
  });
  while (!service.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.store(true, std::memory_order_release);  // Let it finish gracefully.
  drainer.join();

  EXPECT_EQ(report.in_flight, 1u);
  EXPECT_EQ(report.finished, 1u);
  EXPECT_EQ(report.cancelled, 0u);
  auto outcome = handle.Await();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::vector<std::string> rows;
  for (const Row& row : outcome->rows.rows) rows.push_back(RowToString(row));
  EXPECT_EQ(rows, reference_rows);  // Drained-but-finished is a full answer.
}

TEST(ServiceDrainTest, StragglersAreHardCancelledAtTheBudget) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  std::atomic<bool> gate{false};  // Never opens: the query can only cancel.
  std::atomic<int> entered{0};
  FederationService::Options options;
  options.text = MercuryDecl();
  options.execution_source_decorator = [&](TextSource* inner) {
    return std::make_unique<GatedSource>(inner, &gate, &entered);
  };
  FederationService service(&catalog, engine.get(), options);

  FederationService::QueryHandle handle = service.Launch(kSql);
  while (entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const FederationService::DrainReport report =
      service.Drain(std::chrono::milliseconds(5));
  EXPECT_EQ(report.in_flight, 1u);
  EXPECT_EQ(report.finished, 0u);
  EXPECT_EQ(report.cancelled, 1u);

  auto outcome = handle.Await();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  EXPECT_NE(outcome.status().message().find("drain"), std::string::npos)
      << outcome.status().ToString();
}

// ---------------------------------------------------------------------------
// The storm: concurrent Run/Cancel/Drain against one service (TSan leg),
// plus the resource-return property — every admission slot, queue entry
// and limiter permit is back after the dust settles.

TEST(CancelStormTest, ConcurrentRunCancelDrainLeaksNothing) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  FederationService::Options options;
  options.text = MercuryDecl();
  options.parallelism = 2;
  options.chain.limiter.emplace();
  options.admission_control.emplace();
  options.admission_control->max_concurrent = 2;
  options.admission_control->max_queue = 32;
  options.execution_source_decorator = [](TextSource* inner) {
    ChaosOptions chaos;  // Real (interruptible) latency so queries overlap.
    chaos.search_latency = std::chrono::microseconds(2000);
    chaos.fetch_latency = std::chrono::microseconds(1000);
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
  FederationService service(&catalog, engine.get(), options);

  auto reference = service.Run(kSql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::string> expected;
  for (const Row& row : reference->rows.rows) {
    expected.push_back(RowToString(row));
  }

  constexpr int kQueries = 12;
  std::vector<FederationService::QueryHandle> handles;
  handles.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    handles.push_back(service.Launch(kSql));
    if (i % 2 == 1) handles.back().Cancel("storm abort");
  }
  // Drain concurrently with the in-flight storm: whatever finishes inside
  // the budget finishes, the rest is hard-cancelled.
  const FederationService::DrainReport report =
      service.Drain(std::chrono::milliseconds(50));
  EXPECT_EQ(report.finished + report.cancelled, report.in_flight);

  int ok_count = 0, cancelled_count = 0;
  for (FederationService::QueryHandle& handle : handles) {
    auto outcome = handle.Await();
    if (outcome.ok()) {
      ++ok_count;
      std::vector<std::string> rows;
      for (const Row& row : outcome->rows.rows) {
        rows.push_back(RowToString(row));
      }
      // The one forbidden outcome: success with a torn row set.
      EXPECT_EQ(rows, expected);
      EXPECT_TRUE(outcome->degradation.complete);
    } else {
      const StatusCode code = outcome.status().code();
      EXPECT_TRUE(code == StatusCode::kCancelled ||
                  code == StatusCode::kUnavailable)
          << outcome.status().ToString();
      if (code == StatusCode::kCancelled) ++cancelled_count;
    }
  }
  EXPECT_EQ(ok_count + cancelled_count +
                (kQueries - ok_count - cancelled_count),
            kQueries);

  // The resource-return property: no leaked slots, queue entries, permits.
  const AdmissionStats admission = service.admission()->stats();
  EXPECT_EQ(admission.running, 0);
  EXPECT_EQ(admission.queued, 0u);
  const AdaptiveLimiterStats limiter = service.limiter()->stats();
  EXPECT_EQ(limiter.in_flight, 0);
  EXPECT_EQ(limiter.waiters, 0);

  // And the drained service refuses further work.
  EXPECT_EQ(service.Run(kSql).status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace textjoin
