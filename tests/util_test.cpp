#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "util/thread_pool.h"

#include <stdexcept>
#include <vector>

#include "util/fault_inject.h"
#include "util/rng.h"
#include "util/run_control.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace gatest {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const std::uint64_t first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000007ull}) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t v = rng.below(bound);
      EXPECT_LT(v, bound);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.between(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.chance(0.25)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(29);
  Rng child = a.fork();
  // The child stream should differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == child.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, WorksWithStdShuffle) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  std::shuffle(v.begin(), v.end(), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample stddev of that classic data set: sqrt(32/7).
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroStddev) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.mean(), 42.0);
}

TEST(P2Quantile, ExactForFirstFiveSamples) {
  P2Quantile median(0.5);
  EXPECT_EQ(median.value(), 0.0);  // empty
  median.add(9.0);
  EXPECT_EQ(median.value(), 9.0);
  median.add(1.0);
  median.add(5.0);
  EXPECT_EQ(median.value(), 5.0);  // nearest-rank of {1,5,9}
  median.add(3.0);
  median.add(7.0);
  EXPECT_EQ(median.value(), 5.0);  // nearest-rank of {1,3,5,7,9}
}

TEST(P2Quantile, ConvergesOnShuffledRamp) {
  // 1..1000 in a deterministic shuffled order: the true median is ~500.5 and
  // the true p95 is ~950.  P² is an estimate, so allow a few percent.
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(static_cast<double>(i));
  Rng rng(12345);
  std::shuffle(xs.begin(), xs.end(), rng);
  P2Quantile median(0.5), p95(0.95);
  for (double x : xs) {
    median.add(x);
    p95.add(x);
  }
  EXPECT_NEAR(median.value(), 500.5, 25.0);
  EXPECT_NEAR(p95.value(), 950.0, 25.0);
}

TEST(RunningStats, QuantilesExactForSmallSamples) {
  RunningStats s;
  for (double x : {5.0, 1.0, 4.0, 2.0, 3.0}) s.add(x);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.p50(), 3.0);
  EXPECT_EQ(s.p95(), 5.0);
}

TEST(Stats, FormatDurationQuantiles) {
  RunningStats s;
  for (double x : {5.9, 6.0, 6.2, 6.3, 6.1}) s.add(x);
  EXPECT_EQ(format_duration_quantiles(s), "5.90s/6.10s/6.30s/6.30s");
}

TEST(Stats, FormatMeanStddev) {
  RunningStats s;
  s.add(264.0);
  s.add(265.4);
  EXPECT_EQ(format_mean_stddev(s, 1, 1), "264.7(1.0)");
}

TEST(Stats, FormatDuration) {
  EXPECT_EQ(format_duration(5.0), "5.00s");
  EXPECT_EQ(format_duration(363.0), "6.05m");
  EXPECT_EQ(format_duration(10188.0), "2.83h");
  EXPECT_EQ(format_duration(-1.0), "0.00s");
}

TEST(Stats, MeanOf) {
  EXPECT_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t({"Circuit", "Det"});
  t.add_row({"s298", "264.7"});
  t.add_row({"s35932", "35009"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Circuit  Det"), std::string::npos);
  EXPECT_NE(out.find("-------  -----"), std::string::npos);
  EXPECT_NE(out.find("s35932   35009"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(AsciiTable, PadsShortRows) {
  AsciiTable t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find('x'), std::string::npos);
}

TEST(Strprintf, FormatsLikePrintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i, unsigned) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndSingle) {
  // A single item runs on the calling thread, as slot 0, however many
  // workers the pool holds.
  ThreadPool pool(3);
  pool.parallel_for(0, [](std::size_t, unsigned) { FAIL(); });
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t i, unsigned slot) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(64,
                    [&](std::size_t, unsigned) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  EXPECT_GE(t.elapsed_seconds(), 0.0);
  t.restart();
  EXPECT_LT(t.elapsed_seconds(), 1.0);
}

TEST(ThreadPool, SubmittedTaskExceptionRethrownFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle should rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
}

TEST(ThreadPool, PoolStaysUsableAfterTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();  // previous error was consumed; no rethrow here
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, RemainingTasksStillRunWhenOneThrows) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&counter, i] {
      if (i == 3) throw std::runtime_error("boom");
      ++counter;
    });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(counter.load(), 7);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&ran](std::size_t i, unsigned) {
                                   if (i == 37)
                                     throw std::invalid_argument("bad index");
                                   ++ran;
                                 }),
               std::invalid_argument);
  // The participant that claimed index 37 stops there; the others finish
  // every remaining index.
  EXPECT_GE(ran.load(), 48);
  EXPECT_LT(ran.load(), 64);
}

TEST(ThreadPool, ParallelForSlotsAreThreadsAndIndicesRunOnce) {
  // The calling thread is slot 0 and only slot 0; every other slot is one
  // worker thread for the whole call, and no slot reaches
  // min(count, size() + 1).
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t count : {2u, 3u, 257u}) {
    const unsigned limit =
        static_cast<unsigned>(std::min<std::size_t>(count, pool.size() + 1));
    std::vector<std::atomic<int>> hits(count);
    std::vector<std::thread::id> slot_thread(limit);
    std::mutex mu;
    pool.parallel_for(count, [&](std::size_t i, unsigned slot) {
      hits[i].fetch_add(1);
      ASSERT_LT(slot, limit) << "count " << count;
      const std::thread::id self = std::this_thread::get_id();
      EXPECT_EQ(slot == 0, self == caller) << "slot " << slot;
      std::lock_guard<std::mutex> lock(mu);
      if (slot_thread[slot] == std::thread::id()) slot_thread[slot] = self;
      EXPECT_EQ(slot_thread[slot], self) << "slot " << slot << " moved";
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "count " << count;
  }
}

TEST(ThreadPool, ParallelForWaitsForWorkersBeforeRethrowing) {
  // The calling thread's item throws while the workers' items still run:
  // the exception must reach the caller only after they have finished
  // (their tasks refer to the caller's frame), and the throw ends only the
  // caller's share, so the workers also run every index it left.  Any
  // participant may claim any index, so the behaviour keys on the slot.
  // Each worker item waits until the caller has entered its item, so the
  // workers cannot claim every index before the caller claims one.
  ThreadPool pool(3);
  constexpr int kItems = 6;
  std::atomic<bool> caller_started{false}, worker_started{false};
  std::atomic<int> finished{0};
  try {
    pool.parallel_for(kItems, [&](std::size_t, unsigned slot) {
      if (slot == 0) {
        caller_started.store(true);
        while (!worker_started.load()) std::this_thread::yield();
        throw std::runtime_error("caller boom");
      }
      worker_started.store(true);
      while (!caller_started.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished.fetch_add(1);
    });
    FAIL() << "parallel_for should rethrow the calling thread's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller boom");
  }
  EXPECT_EQ(finished.load(), kItems - 1);
  // The pool stays usable, with no stale error left for the next wait.
  std::atomic<int> counter{0};
  pool.parallel_for(16, [&](std::size_t, unsigned) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 16);
  pool.wait_idle();
}

TEST(RunControl, StopTokenIsStickyUntilReset) {
  StopToken tok;
  EXPECT_FALSE(tok.stop_requested());
  tok.request_stop();
  EXPECT_TRUE(tok.stop_requested());
  EXPECT_TRUE(tok.stop_requested());
  tok.reset();
  EXPECT_FALSE(tok.stop_requested());
}

TEST(RunControl, BudgetTrackerReportsFirstViolatedLimit) {
  BudgetTracker t;
  RunBudget b;
  b.max_evaluations = 10;
  b.max_vectors = 5;
  t.start(b);
  EXPECT_EQ(t.check(9, 4, nullptr), StopReason::Completed);
  EXPECT_EQ(t.check(10, 0, nullptr), StopReason::EvalLimit);
  EXPECT_EQ(t.check(0, 5, nullptr), StopReason::VectorLimit);
  StopToken tok;
  tok.request_stop();
  // The interrupt wins over every budget limit.
  EXPECT_EQ(t.check(10, 5, &tok), StopReason::Interrupted);
}

TEST(RunControl, TimeLimitTrips) {
  BudgetTracker t;
  RunBudget b;
  b.time_limit_seconds = 1e-9;
  t.start(b);
  while (t.elapsed_seconds() < 1e-6) {}
  EXPECT_EQ(t.check(0, 0, nullptr), StopReason::TimeLimit);
}

TEST(RunControl, UnlimitedBudgetNeverStops) {
  BudgetTracker t;
  t.start(RunBudget{});
  EXPECT_EQ(t.check(1u << 30, 1u << 30, nullptr), StopReason::Completed);
  EXPECT_TRUE(RunBudget{}.unlimited());
}

TEST(RunControl, StopReasonNames) {
  EXPECT_STREQ(to_string(StopReason::Completed), "completed");
  EXPECT_STREQ(to_string(StopReason::TimeLimit), "time-limit");
  EXPECT_STREQ(to_string(StopReason::Interrupted), "interrupted");
  EXPECT_STREQ(to_string(StopReason::Error), "error");
}

TEST(Rng, StateRoundTripContinuesStream) {
  Rng a(99);
  for (int i = 0; i < 10; ++i) a.next();
  const auto saved = a.state();
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 20; ++i) expect.push_back(a.next());
  Rng b(1);  // different seed; state restore must fully override it
  b.set_state(saved);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(b.next(), expect[i]);
}

// ---- fault injection ---------------------------------------------------------

TEST(FaultInject, ParseRejectsMalformedSpecs) {
  FaultInjector fi;
  std::string err;
  for (const char* bad :
       {"site", "site:", ":p=0.5", "site:p=", "site:p=1.5", "site:p=-0.1",
        "site:every=0", "site:every=x", "site:q=3"}) {
    err.clear();
    EXPECT_FALSE(FaultInjector::parse(bad, 1, fi, err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  EXPECT_TRUE(
      FaultInjector::parse("journal_write:p=0.25,sock_read:every=3", 1, fi,
                           err))
      << err;
  EXPECT_TRUE(fi.enabled());
}

TEST(FaultInject, EveryModeFailsExactlyEachNthCall) {
  FaultInjector fi;
  std::string err;
  ASSERT_TRUE(FaultInjector::parse("w:every=3", 7, fi, err)) << err;
  for (int round = 1; round <= 12; ++round)
    EXPECT_EQ(fi.should_fail("w"), round % 3 == 0) << "call " << round;
  EXPECT_EQ(fi.injected(), 4u);
  // Unlisted sites never fail, and don't disturb listed streams.
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fi.should_fail("other"));
}

TEST(FaultInject, ProbabilityModeIsDeterministicPerSeedAndSite) {
  auto draw = [](std::uint64_t seed) {
    FaultInjector fi;
    std::string err;
    EXPECT_TRUE(FaultInjector::parse("a:p=0.3,b:p=0.3", seed, fi, err)) << err;
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) out.push_back(fi.should_fail("a"));
    for (int i = 0; i < 200; ++i) out.push_back(fi.should_fail("b"));
    return out;
  };
  const std::vector<bool> first = draw(5);
  EXPECT_EQ(first, draw(5));  // replayable
  EXPECT_NE(first, draw(6));  // but seed-sensitive
  // Sites draw from independent streams: interleaving calls to "b" must not
  // change what "a" sees.
  FaultInjector fi;
  std::string err;
  ASSERT_TRUE(FaultInjector::parse("a:p=0.3,b:p=0.3", 5, fi, err));
  std::vector<bool> interleaved;
  for (int i = 0; i < 200; ++i) {
    interleaved.push_back(fi.should_fail("a"));
    (void)fi.should_fail("b");
  }
  EXPECT_TRUE(std::equal(interleaved.begin(), interleaved.end(),
                         first.begin()));
  // p-mode roughly matches its probability (wide tolerance, fixed seed).
  const std::size_t hits = fi.injected();
  EXPECT_GT(hits, 60u);
  EXPECT_LT(hits, 180u);
}

TEST(FaultInject, GlobalHookIsOffByDefault) {
  ASSERT_EQ(FaultInjector::global(), nullptr);
  EXPECT_FALSE(fault_should_fail("journal_write"));
  FaultInjector fi;
  std::string err;
  ASSERT_TRUE(FaultInjector::parse("x:every=1", 1, fi, err));
  FaultInjector::set_global(&fi);
  EXPECT_TRUE(fault_should_fail("x"));
  EXPECT_FALSE(fault_should_fail("y"));
  FaultInjector::set_global(nullptr);
  EXPECT_FALSE(fault_should_fail("x"));
}

}  // namespace
}  // namespace gatest
