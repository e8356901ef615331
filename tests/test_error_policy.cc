/**
 * @file
 * Fault containment and error-policy tests: config validation,
 * exception containment under each ErrorPolicy (sequential and
 * parallel), fail-point-driven failures, the runParallel watchdog,
 * and the C-boundary error surface.
 *
 * Everything here must stay clean under LSCHED_SANITIZE=thread — no
 * death tests (those live in the main lsched_tests binary).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/error.hh"
#include "support/failpoint.hh"
#include "threads/c_api.hh"
#include "threads/scheduler.hh"

namespace
{

namespace fp = lsched::failpoint;
using namespace lsched::threads;

SchedulerConfig
smallConfig(ErrorPolicy policy = ErrorPolicy::Abort)
{
    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 12;
    c.cacheBytes = 1 << 16;
    c.onError = policy;
    return c;
}

/** Counts executions; throws for tags >= throwFrom && < throwTo. */
struct Body
{
    std::atomic<int> executed{0};
    std::uintptr_t throwFrom = ~std::uintptr_t{0};
    std::uintptr_t throwTo = 0;

    static void
    call(void *self, void *tag)
    {
        auto *b = static_cast<Body *>(self);
        const auto i = reinterpret_cast<std::uintptr_t>(tag);
        if (i >= b->throwFrom && i < b->throwTo)
            throw std::runtime_error("user fault " + std::to_string(i));
        b->executed.fetch_add(1, std::memory_order_relaxed);
    }
};

/** Fork @p n threads spread over bins (hint stride of two blocks). */
void
forkMany(LocalityScheduler &s, Body &body, std::uintptr_t n)
{
    for (std::uintptr_t i = 0; i < n; ++i)
        s.fork(&Body::call, &body, reinterpret_cast<void *>(i),
               static_cast<Hint>(i % 16) * (2u << 12), 0, 0);
}

class ErrorPolicyTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::disarmAll(); }
    void TearDown() override { fp::disarmAll(); }
};

/** Guard for tests that need the fail-point layer compiled in. */
#define LSCHED_REQUIRE_FAILPOINTS()                                         \
    do {                                                                    \
        if (!fp::kCompiled)                                                 \
            GTEST_SKIP() << "fail points compiled out";                     \
    } while (0)

// ---------------------------------------------------------------- config

TEST(ConfigValidation, ZeroDimsIsRejected)
{
    SchedulerConfig c = smallConfig();
    c.dims = 0;
    EXPECT_THROW(LocalityScheduler{c}, lsched::ConfigError);
}

TEST(ConfigValidation, OversizedDimsIsRejected)
{
    SchedulerConfig c = smallConfig();
    c.dims = kMaxDims + 1;
    EXPECT_THROW(LocalityScheduler{c}, lsched::ConfigError);
}

TEST(ConfigValidation, ZeroCacheBytesIsRejected)
{
    SchedulerConfig c = smallConfig();
    c.cacheBytes = 0;
    c.blockBytes = 0;
    // Forced flat: with topology=auto a discovered L2 size would fill
    // cacheBytes in and the rejection under test would never fire.
    c.topology = "flat";
    EXPECT_THROW(LocalityScheduler{c}, lsched::ConfigError);
}

TEST(ConfigValidation, ZeroGroupCapacityIsRejected)
{
    SchedulerConfig c = smallConfig();
    c.groupCapacity = 0;
    EXPECT_THROW(LocalityScheduler{c}, lsched::ConfigError);
}

TEST(ConfigValidation, CacheTooSmallForDimsIsRejected)
{
    SchedulerConfig c = smallConfig();
    c.cacheBytes = 2; // 2 / 3 dims -> blockBytes 0
    c.blockBytes = 0;
    c.dims = 3;
    EXPECT_THROW(LocalityScheduler{c}, lsched::ConfigError);
}

TEST(ConfigValidation, OversizedBlockIsAcceptedWithAWarning)
{
    // Figure 4 sweeps block sizes past the cache on purpose; this must
    // stay legal (it warns on stderr but configures fine).
    SchedulerConfig c = smallConfig();
    c.blockBytes = c.cacheBytes * 8;
    LocalityScheduler s(c);
    EXPECT_EQ(s.config().blockBytes, c.cacheBytes * 8);
}

TEST(ConfigValidation, FailedConfigureLeavesTheOldConfigInPlace)
{
    LocalityScheduler s(smallConfig());
    SchedulerConfig bad = smallConfig();
    bad.groupCapacity = 0;
    EXPECT_THROW(s.configure(bad), lsched::ConfigError);
    EXPECT_EQ(s.config().groupCapacity,
              smallConfig().groupCapacity); // untouched
    Body body;
    forkMany(s, body, 4);
    s.run();
    EXPECT_EQ(body.executed.load(), 4);
}

// ------------------------------------------------------------ sequential

TEST_F(ErrorPolicyTest, AbortPropagatesAndTheRunGuardRestoresState)
{
    LocalityScheduler s(smallConfig(ErrorPolicy::Abort));
    Body body;
    body.throwFrom = 3;
    body.throwTo = 4;
    forkMany(s, body, 8);
    EXPECT_THROW(s.run(), std::runtime_error);
    // Unwound mid-tour, yet the scheduler is reset and reusable.
    EXPECT_EQ(s.stats().pendingThreads, 0u);
    EXPECT_EQ(s.lastFaultCount(), 0u); // Abort does not contain
    Body fresh;
    forkMany(s, fresh, 8);
    s.run();
    EXPECT_EQ(fresh.executed.load(), 8);
}

TEST_F(ErrorPolicyTest, StopTourRethrowsTheFirstFaultOnce)
{
    LocalityScheduler s(smallConfig(ErrorPolicy::StopTour));
    Body body;
    body.throwFrom = 4;
    body.throwTo = 5;
    forkMany(s, body, 32);
    try {
        s.run();
        FAIL() << "fault was not rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "user fault 4");
    }
    EXPECT_EQ(s.lastFaultCount(), 1u);
    EXPECT_EQ(s.stats().faultedThreads, 1u);
    // The tour stopped: not every remaining thread ran.
    EXPECT_LT(body.executed.load(), 31);
    EXPECT_EQ(s.stats().pendingThreads, 0u);
}

TEST_F(ErrorPolicyTest, ContinueAndCollectRunsEverythingAndReports)
{
    LocalityScheduler s(smallConfig(ErrorPolicy::ContinueAndCollect));
    Body body;
    body.throwFrom = 10;
    body.throwTo = 13;
    forkMany(s, body, 32);
    EXPECT_NO_THROW(s.run());
    EXPECT_EQ(body.executed.load(), 29);
    EXPECT_EQ(s.lastFaultCount(), 3u);
    ASSERT_EQ(s.lastFaults().size(), 3u);
    EXPECT_NE(s.lastFaults()[0].message.find("user fault"),
              std::string::npos);
    EXPECT_EQ(s.stats().faultedThreads, 3u);
    // The next clean run clears the per-run fault report.
    Body fresh;
    forkMany(s, fresh, 4);
    s.run();
    EXPECT_EQ(s.lastFaultCount(), 0u);
    EXPECT_EQ(s.stats().faultedThreads, 3u); // lifetime counter stays
}

// -------------------------------------------------------------- parallel

TEST_F(ErrorPolicyTest, StopTourParallelRethrowsExactlyOnceAndRecovers)
{
    // The acceptance scenario: a fault mid-tour under runParallel(4)
    // surfaces exactly once on the caller after the workers join, and
    // the scheduler takes a fresh batch afterwards.
    LocalityScheduler s(smallConfig(ErrorPolicy::StopTour));
    Body body;
    body.throwFrom = 100;
    body.throwTo = 101;
    forkMany(s, body, 200);
    int caught = 0;
    try {
        s.runParallel(4);
    } catch (const std::runtime_error &e) {
        ++caught;
        EXPECT_EQ(std::string(e.what()), "user fault 100");
    }
    EXPECT_EQ(caught, 1);
    EXPECT_GE(s.lastFaultCount(), 1u);
    // Not running: reconfigure succeeds (it throws UsageError during a
    // run), and a fresh batch executes completely.
    EXPECT_NO_THROW(s.configure(s.config()));
    Body fresh;
    forkMany(s, fresh, 50);
    EXPECT_EQ(s.runParallel(4), 50u);
    EXPECT_EQ(fresh.executed.load(), 50);
    EXPECT_EQ(s.lastFaultCount(), 0u);
    EXPECT_EQ(s.stats().pendingThreads, 0u);
}

TEST_F(ErrorPolicyTest, ContinueAndCollectParallelRunsAllSurvivors)
{
    LocalityScheduler s(smallConfig(ErrorPolicy::ContinueAndCollect));
    Body body;
    body.throwFrom = 40;
    body.throwTo = 45;
    forkMany(s, body, 100);
    EXPECT_EQ(s.runParallel(4), 95u);
    EXPECT_EQ(body.executed.load(), 95);
    EXPECT_EQ(s.lastFaultCount(), 5u);
    EXPECT_EQ(s.lastFaults().size(), 5u);
}

// ------------------------------------------------------------ fail points

TEST_F(ErrorPolicyTest, GroupPoolAllocationFailureSurfacesAsBadAlloc)
{
    LSCHED_REQUIRE_FAILPOINTS();
    LocalityScheduler s(smallConfig());
    ASSERT_TRUE(fp::arm("grouppool.allocate", "hit=1"));
    Body body;
    EXPECT_THROW(forkMany(s, body, 1), std::bad_alloc);
    fp::disarmAll();
    // The failed fork left the scheduler consistent.
    forkMany(s, body, 4);
    s.run();
    EXPECT_EQ(body.executed.load(), 4);
}

TEST_F(ErrorPolicyTest, BinTableGrowthFailureSurfacesAsBadAlloc)
{
    LSCHED_REQUIRE_FAILPOINTS();
    LocalityScheduler s(smallConfig());
    ASSERT_TRUE(fp::arm("bintable.grow", "hit=1"));
    Body body;
    EXPECT_THROW(forkMany(s, body, 1), std::bad_alloc);
    fp::disarmAll();
    forkMany(s, body, 4);
    s.run();
    EXPECT_EQ(body.executed.load(), 4);
}

TEST_F(ErrorPolicyTest, BinExecuteFailPointStopsAParallelTour)
{
    LSCHED_REQUIRE_FAILPOINTS();
    // Deterministic mid-tour injection without a throwing body: the
    // second bin dispatched anywhere hits the armed site.
    LocalityScheduler s(smallConfig(ErrorPolicy::StopTour));
    ASSERT_TRUE(fp::arm("sched.bin.execute", "hit=2"));
    Body body;
    forkMany(s, body, 64);
    try {
        s.runParallel(4);
        FAIL() << "injected fault was not rethrown";
    } catch (const fp::Injected &e) {
        EXPECT_EQ(e.site(), "sched.bin.execute");
    }
    EXPECT_EQ(s.lastFaultCount(), 1u);
    fp::disarmAll();
    Body fresh;
    forkMany(s, fresh, 16);
    EXPECT_EQ(s.runParallel(4), 16u);
}

TEST_F(ErrorPolicyTest, BinExecuteFailPointIsContainedSequentially)
{
    LSCHED_REQUIRE_FAILPOINTS();
    LocalityScheduler s(smallConfig(ErrorPolicy::ContinueAndCollect));
    ASSERT_TRUE(fp::arm("sched.bin.execute", "hit=1"));
    Body body;
    forkMany(s, body, 8);
    EXPECT_NO_THROW(s.run());
    EXPECT_EQ(s.lastFaultCount(), 1u);
    // The bin-level fault is contained; every thread still runs.
    EXPECT_EQ(body.executed.load(), 8);
}

// -------------------------------------------------------------- watchdog

TEST_F(ErrorPolicyTest, WatchdogWarnsWhenATourOverrunsItsDeadline)
{
    SchedulerConfig c = smallConfig();
    c.watchdogMillis = 20;
    LocalityScheduler s(c);
    struct Sleeper
    {
        static void
        call(void *, void *)
        {
            // Long enough that even a starved monitor thread (one-CPU
            // CI box, parallel TSan jobs) gets a deadline check in.
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
        }
    };
    s.fork(&Sleeper::call, nullptr, nullptr, 0, 0);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(s.runParallel(2), 1u);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("watchdog"), std::string::npos) << err;
}

TEST_F(ErrorPolicyTest, WatchdogStaysQuietOnAFastTour)
{
    SchedulerConfig c = smallConfig();
    c.watchdogMillis = 10'000;
    LocalityScheduler s(c);
    Body body;
    forkMany(s, body, 16);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(s.runParallel(2), 16u);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("watchdog"), std::string::npos) << err;
}

// ------------------------------------------------------------ C boundary

TEST_F(ErrorPolicyTest, CApiRecordsAndClearsErrors)
{
    th_clear_error();
    EXPECT_EQ(th_last_error(), nullptr);
    th_fork(nullptr, nullptr, nullptr, nullptr, nullptr, nullptr);
    ASSERT_NE(th_last_error(), nullptr);
    EXPECT_NE(std::string(th_last_error()).find("NULL"),
              std::string::npos);
    th_clear_error();
    EXPECT_EQ(th_last_error(), nullptr);
}

TEST_F(ErrorPolicyTest, CApiErrorHandlerHookIsInvoked)
{
    static std::string seen;
    static int calls = 0;
    seen.clear();
    calls = 0;
    th_set_error_handler(
        [](const char *message, void *user) {
            seen = message;
            *static_cast<int *>(user) += 1;
        },
        &calls);
    th_fork(nullptr, nullptr, nullptr, nullptr, nullptr, nullptr);
    th_set_error_handler(nullptr, nullptr);
    th_clear_error();
    EXPECT_EQ(calls, 1);
    EXPECT_NE(seen.find("NULL"), std::string::npos);
}

TEST_F(ErrorPolicyTest, CApiFailpointArmRejectsBadSpecs)
{
    LSCHED_REQUIRE_FAILPOINTS();
    th_clear_error();
    EXPECT_EQ(th_failpoint_arm("test.c", "bogus"), -1);
    ASSERT_NE(th_last_error(), nullptr);
    EXPECT_EQ(th_failpoint_arm("test.c", "always"), 0);
    EXPECT_TRUE(fp::shouldFail("test.c"));
    th_failpoint_disarm("test.c");
    EXPECT_FALSE(fp::shouldFail("test.c"));
    th_failpoint_disarm_all();
    th_clear_error();
}

TEST_F(ErrorPolicyTest, ObsExportersRejectNullPaths)
{
    EXPECT_EQ(th_trace_write(nullptr), -1);
    EXPECT_EQ(th_metrics_write(nullptr), -1);
}

TEST_F(ErrorPolicyTest, ObsExportersFailCleanlyUnderInjection)
{
    LSCHED_REQUIRE_FAILPOINTS();
    ASSERT_TRUE(fp::arm("obs.trace.write", "always"));
    ASSERT_TRUE(fp::arm("obs.metrics.write", "always"));
    EXPECT_EQ(th_trace_write("/tmp/lsched_fault_trace.json"), -1);
    EXPECT_EQ(th_metrics_write("/tmp/lsched_fault_metrics.txt"), -1);
    fp::disarmAll();
    // Cleanly again once disarmed.
    EXPECT_EQ(th_metrics_write("/tmp/lsched_fault_metrics.txt"), 0);
    std::remove("/tmp/lsched_fault_metrics.txt");
}

} // namespace
