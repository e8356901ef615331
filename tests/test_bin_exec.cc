/**
 * @file
 * Unit tests for executeBin(), the one loop every run path (serial,
 * pooled, stream drain) walks a bin's thread-group chain with.
 *
 * The chains here are built by hand, so each case pins one property
 * of the loop itself: chain order across groups (empty groups
 * included), threads appended while the bin runs, each ErrorPolicy's
 * containment, cancellation accounting and the "sched.bin.execute"
 * fail point. No death tests and no threads: the file lives in the
 * TSan-clean fault binary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/failpoint.hh"
#include "threads/bin_exec.hh"

namespace
{

namespace fp = lsched::failpoint;
using namespace lsched::threads;
using detail::executeBin;
using detail::FaultCtx;
using detail::GroupCursor;

constexpr std::uint32_t kBinId = 17;
constexpr unsigned kWorker = 3;
constexpr std::uintptr_t kNoTag = ~std::uintptr_t{0};

/** What the thread bodies share: the run log and the misbehaviour. */
struct Script
{
    std::vector<std::uintptr_t> ran;
    /** The thread with this tag throws instead of logging. */
    std::uintptr_t faultAt = kNoTag;
    /** After logging this tag, raise @ref cancel. */
    std::uintptr_t cancelAfter = kNoTag;
    CancelToken *cancel = nullptr;
    /** Every thread throws an int (not a std::exception). */
    bool throwNonStd = false;
    bool everyThreadFaults = false;
};

void
body(void *self, void *tag)
{
    auto *s = static_cast<Script *>(self);
    const auto t = reinterpret_cast<std::uintptr_t>(tag);
    if (s->throwNonStd)
        throw 42;
    if (s->everyThreadFaults || t == s->faultAt)
        throw std::runtime_error("boom " + std::to_string(t));
    s->ran.push_back(t);
    if (t == s->cancelAfter)
        s->cancel->request(CancelReason::Deadline);
}

/** A hand-built chain of thread groups, fork-order tags 0, 1, ... */
class Chain
{
  public:
    /** One group per entry of @p counts, each of @p capacity slots. */
    Chain(Script &script, const std::vector<std::uint32_t> &counts,
          std::uint32_t capacity = 4)
        : script_(script), capacity_(capacity)
    {
        for (std::uint32_t count : counts) {
            ThreadGroup *g = addGroup();
            for (std::uint32_t i = 0; i < count; ++i)
                push(g);
        }
    }

    ThreadGroup *head() { return groups_.empty() ? nullptr : &groups_[0]; }
    ThreadGroup *tail() { return &groups_.back(); }
    std::uint64_t threads() const { return nextTag_; }

    /** Link a fresh empty group after the tail. */
    ThreadGroup *
    addGroup()
    {
        specs_.push_back(std::make_unique<ThreadSpec[]>(capacity_));
        ThreadGroup &g = groups_.emplace_back();
        g.specs = specs_.back().get();
        g.capacity = capacity_;
        if (groups_.size() > 1)
            groups_[groups_.size() - 2].next = &g;
        return &g;
    }

    /** Append the next tag to @p g (which must have room). */
    std::uintptr_t
    push(ThreadGroup *g, ThreadFn fn = &body)
    {
        const std::uintptr_t tag = nextTag_++;
        g->push(fn, &script_, reinterpret_cast<void *>(tag));
        return tag;
    }

  private:
    Script &script_;
    std::uint32_t capacity_;
    std::deque<ThreadGroup> groups_;
    std::vector<std::unique_ptr<ThreadSpec[]>> specs_;
    std::uintptr_t nextTag_ = 0;
};

std::vector<std::uintptr_t>
iota(std::uintptr_t n, std::uintptr_t skip = kNoTag)
{
    std::vector<std::uintptr_t> v;
    for (std::uintptr_t i = 0; i < n; ++i) {
        if (i != skip)
            v.push_back(i);
    }
    return v;
}

const ErrorPolicy kPolicies[] = {ErrorPolicy::Abort,
                                 ErrorPolicy::StopTour,
                                 ErrorPolicy::ContinueAndCollect};

std::string
policyLabel(ErrorPolicy p)
{
    return errorPolicyName(p);
}

// ---------------------------------------------------------------------
// Chain order: every thread of every group, once, in fork order.

struct ShapeCase
{
    const char *name;
    std::vector<std::uint32_t> counts;
};

const ShapeCase kShapes[] = {
    {"NoGroups", {}},
    {"OneThread", {1}},
    {"PartialGroup", {3}},
    {"FullGroup", {4}},
    {"ThreeFullGroups", {4, 4, 4}},
    {"FullThenPartial", {4, 2}},
    {"EmptyGroupInTheMiddle", {2, 0, 3}},
    {"EmptyTailGroup", {4, 0}},
};

class BinExecShape
    : public ::testing::TestWithParam<std::tuple<ShapeCase, ErrorPolicy>>
{
};

TEST_P(BinExecShape, RunsEveryThreadOnceInChainOrder)
{
    const auto &[shape, policy] = GetParam();
    Script script;
    Chain chain(script, shape.counts);
    std::vector<ThreadFault> faults;
    FaultCtx ctx(policy, &faults);

    const std::uint64_t n = chain.threads();
    EXPECT_EQ(executeBin(kBinId, n, ctx, kWorker, GroupCursor(chain.head())),
              n);
    EXPECT_EQ(script.ran, iota(n));
    EXPECT_EQ(ctx.totalFaults, 0u);
    EXPECT_TRUE(faults.empty());
    EXPECT_FALSE(ctx.stop.load());
    EXPECT_EQ(ctx.cancelledBins.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BinExecShape,
    ::testing::Combine(::testing::ValuesIn(kShapes),
                       ::testing::ValuesIn(kPolicies)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_" +
               policyLabel(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// One faulting thread at a group boundary or inside a group.

class BinExecFault
    : public ::testing::TestWithParam<std::tuple<std::uintptr_t, ErrorPolicy>>
{
};

TEST_P(BinExecFault, FaultHandlingFollowsThePolicy)
{
    const auto &[faultAt, policy] = GetParam();
    Script script;
    script.faultAt = faultAt;
    Chain chain(script, {4, 4});
    std::vector<ThreadFault> faults;
    FaultCtx ctx(policy, &faults);
    const std::uint64_t n = chain.threads();
    const auto run = [&] {
        return executeBin(kBinId, n, ctx, kWorker,
                          GroupCursor(chain.head()));
    };

    switch (policy) {
      case ErrorPolicy::Abort:
        // No containment: the exception leaves the loop, nothing is
        // recorded, and no later thread ran.
        EXPECT_THROW(run(), std::runtime_error);
        EXPECT_EQ(script.ran, iota(faultAt));
        EXPECT_EQ(ctx.totalFaults, 0u);
        EXPECT_TRUE(faults.empty());
        break;
      case ErrorPolicy::StopTour:
        // Contained and recorded; the rest of the bin is skipped and
        // the tour is told to stop.
        EXPECT_EQ(run(), faultAt);
        EXPECT_EQ(script.ran, iota(faultAt));
        EXPECT_EQ(ctx.totalFaults, 1u);
        EXPECT_TRUE(ctx.stop.load());
        EXPECT_TRUE(ctx.first != nullptr);
        break;
      case ErrorPolicy::ContinueAndCollect:
        // Contained and recorded; every other thread still runs.
        EXPECT_EQ(run(), n - 1);
        EXPECT_EQ(script.ran, iota(n, faultAt));
        EXPECT_EQ(ctx.totalFaults, 1u);
        EXPECT_FALSE(ctx.stop.load());
        EXPECT_TRUE(ctx.first == nullptr);
        break;
    }
    if (policy != ErrorPolicy::Abort) {
        ASSERT_EQ(faults.size(), 1u);
        EXPECT_EQ(faults[0].binId, kBinId);
        EXPECT_EQ(faults[0].worker, kWorker);
        EXPECT_EQ(faults[0].message, "boom " + std::to_string(faultAt));
    }
    // A fault is not a cancellation: the dropped tail under StopTour
    // is the tour's to account, not a cancelled bin.
    EXPECT_EQ(ctx.cancelledBins.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Positions, BinExecFault,
    // First thread, last of group 0, first of group 1, last thread.
    ::testing::Combine(::testing::Values(std::uintptr_t{0}, std::uintptr_t{3},
                                         std::uintptr_t{4}, std::uintptr_t{7}),
                       ::testing::ValuesIn(kPolicies)),
    [](const auto &info) {
        return "Thread" + std::to_string(std::get<0>(info.param)) + "_" +
               policyLabel(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Cancellation: raised before the bin, mid-bin, or after its last
// thread.

class BinExecCancel
    : public ::testing::TestWithParam<std::tuple<std::uintptr_t, ErrorPolicy>>
{
};

/** Cancel point meaning "already raised when the bin starts". */
constexpr std::uintptr_t kBeforeBin = kNoTag - 1;

TEST_P(BinExecCancel, CancellationDropsAndAccountsTheUnrunTail)
{
    const auto &[cancelAfter, policy] = GetParam();
    Script script;
    CancelToken token;
    script.cancel = &token;
    Chain chain(script, {4, 4, 2});
    const std::uint64_t n = chain.threads();
    std::uint64_t expectRan = n;
    if (cancelAfter == kBeforeBin) {
        token.request(CancelReason::Deadline);
        expectRan = 0;
    } else {
        script.cancelAfter = cancelAfter;
        expectRan = cancelAfter + 1;
    }
    std::vector<ThreadFault> faults;
    FaultCtx ctx(policy, &faults);
    ctx.cancel = &token;

    EXPECT_EQ(executeBin(kBinId, n, ctx, kWorker, GroupCursor(chain.head())),
              expectRan);
    EXPECT_EQ(script.ran, iota(expectRan));
    const std::uint64_t dropped = n - expectRan;
    EXPECT_EQ(ctx.cancelledBins.load(), dropped ? 1u : 0u);
    EXPECT_EQ(ctx.cancelledThreads.load(), dropped);
    if (policy == ErrorPolicy::ContinueAndCollect && dropped) {
        // The run returns normally, so the drop shows as faults.
        EXPECT_EQ(ctx.totalFaults, dropped);
        ASSERT_EQ(faults.size(), 1u);
        EXPECT_EQ(faults[0].binId, kBinId);
        EXPECT_EQ(faults[0].message,
                  "bin cancelled (deadline): " + std::to_string(dropped) +
                      " thread(s) dropped");
    } else {
        EXPECT_EQ(ctx.totalFaults, 0u);
        EXPECT_TRUE(faults.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Points, BinExecCancel,
    ::testing::Combine(::testing::Values(kBeforeBin, std::uintptr_t{5},
                                         std::uintptr_t{9}),
                       ::testing::ValuesIn(kPolicies)),
    [](const auto &info) {
        const std::uintptr_t at = std::get<0>(info.param);
        return (at == kBeforeBin ? std::string("BeforeTheBin")
                                 : "AfterThread" + std::to_string(at)) +
               "_" + policyLabel(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Per-policy cases.

class BinExecPolicy : public ::testing::TestWithParam<ErrorPolicy>
{
};

/** Forks two threads while the bin runs: one into the tail group's
 *  free slot, one into a group chained after it (nested fork). */
struct Forker
{
    Chain *chain;
    std::vector<std::uintptr_t> forked;
};

Forker *g_forker = nullptr;

void
forkingBody(void *self, void *tag)
{
    body(self, tag);
    Forker &f = *g_forker;
    f.forked.push_back(f.chain->push(f.chain->tail()));
    f.forked.push_back(f.chain->push(f.chain->addGroup()));
}

TEST_P(BinExecPolicy, ThreadsForkedDuringTheBinRunInTheSameVisit)
{
    Script script;
    Chain chain(script, {});
    ThreadGroup *g = chain.addGroup();
    chain.push(g);
    chain.push(g, &forkingBody);
    Forker forker{&chain, {}};
    g_forker = &forker;
    std::vector<ThreadFault> faults;
    FaultCtx ctx(GetParam(), &faults);

    // Announced 2: the nested forks are picked up because the cursor
    // re-reads counts and links at every step.
    EXPECT_EQ(executeBin(kBinId, 2, ctx, kWorker, GroupCursor(chain.head())),
              4u);
    g_forker = nullptr;
    EXPECT_EQ(forker.forked, (std::vector<std::uintptr_t>{2, 3}));
    EXPECT_EQ(script.ran, iota(4));
    EXPECT_EQ(ctx.cancelledBins.load(), 0u);
}

TEST_P(BinExecPolicy, BinExecuteFailPointFiresBeforeAnyThread)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    const ErrorPolicy policy = GetParam();
    Script script;
    Chain chain(script, {4, 1});
    const std::uint64_t n = chain.threads();
    std::vector<ThreadFault> faults;
    FaultCtx ctx(policy, &faults);
    ASSERT_TRUE(fp::arm("sched.bin.execute", "once"));
    const auto run = [&] {
        return executeBin(kBinId, n, ctx, kWorker,
                          GroupCursor(chain.head()));
    };

    if (policy == ErrorPolicy::Abort) {
        EXPECT_THROW(run(), fp::Injected);
    } else {
        // StopTour records it and skips the bin; ContinueAndCollect
        // records it and runs the bin anyway.
        EXPECT_EQ(run(), policy == ErrorPolicy::StopTour ? 0u : n);
    }
    EXPECT_EQ(fp::fireCount("sched.bin.execute"), 1u);
    fp::disarmAll();
    EXPECT_EQ(script.ran,
              iota(policy == ErrorPolicy::ContinueAndCollect ? n : 0));
    if (policy == ErrorPolicy::Abort) {
        EXPECT_TRUE(faults.empty());
    } else {
        ASSERT_EQ(faults.size(), 1u);
        EXPECT_EQ(faults[0].message,
                  "injected fault at fail point 'sched.bin.execute'");
    }
}

TEST(BinExec, BinTopFaultLeavesTheCancelledTailWhole)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // The injected bin-top fault consumes no thread. When a
    // cancellation then cuts the bin short, the whole un-run tail is
    // the cancelled count, so executed + faults still equals the
    // threads plus the one injected fire.
    Script script;
    CancelToken token;
    script.cancel = &token;
    script.cancelAfter = 5;
    Chain chain(script, {4, 4, 2});
    const std::uint64_t n = chain.threads();
    std::vector<ThreadFault> faults;
    FaultCtx ctx(ErrorPolicy::ContinueAndCollect, &faults);
    ctx.cancel = &token;
    ASSERT_TRUE(fp::arm("sched.bin.execute", "once"));

    const std::uint64_t ran =
        executeBin(kBinId, n, ctx, kWorker, GroupCursor(chain.head()));
    EXPECT_EQ(fp::fireCount("sched.bin.execute"), 1u);
    fp::disarmAll();
    EXPECT_EQ(ran, 6u);
    EXPECT_EQ(script.ran, iota(6));
    EXPECT_EQ(ctx.cancelledThreads.load(), n - ran);
    EXPECT_EQ(ran + ctx.totalFaults, n + 1);
}

TEST_P(BinExecPolicy, BinOverloadReadsTheBinsChainAndId)
{
    Script script;
    script.faultAt = 1;
    Chain chain(script, {4, 3});
    Bin bin;
    bin.id = kBinId;
    bin.threadCount = chain.threads();
    bin.groupsHead = chain.head();
    std::vector<ThreadFault> faults;
    FaultCtx ctx(GetParam(), &faults);

    if (GetParam() == ErrorPolicy::Abort) {
        EXPECT_THROW(executeBin(&bin, ctx, kWorker), std::runtime_error);
        EXPECT_EQ(script.ran, iota(1));
        return;
    }
    const std::uint64_t ran = executeBin(&bin, ctx, kWorker);
    EXPECT_EQ(ran, GetParam() == ErrorPolicy::StopTour ? 1u : 6u);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].binId, kBinId);
    EXPECT_EQ(faults[0].worker, kWorker);
}

TEST_P(BinExecPolicy, NonStandardExceptionIsRecordedAsUnknown)
{
    Script script;
    script.throwNonStd = true;
    Chain chain(script, {2});
    std::vector<ThreadFault> faults;
    FaultCtx ctx(GetParam(), &faults);
    const auto run = [&] {
        return executeBin(kBinId, 2, ctx, kWorker, GroupCursor(chain.head()));
    };

    if (GetParam() == ErrorPolicy::Abort) {
        EXPECT_THROW(run(), int);
        EXPECT_TRUE(faults.empty());
        return;
    }
    EXPECT_EQ(run(), 0u);
    const std::size_t expect =
        GetParam() == ErrorPolicy::StopTour ? 1u : 2u;
    EXPECT_EQ(ctx.totalFaults, expect);
    ASSERT_EQ(faults.size(), expect);
    for (const ThreadFault &f : faults)
        EXPECT_EQ(f.message, "unknown exception");
}

INSTANTIATE_TEST_SUITE_P(Policies, BinExecPolicy,
                         ::testing::ValuesIn(kPolicies),
                         [](const auto &info) {
                             return policyLabel(info.param);
                         });

TEST(BinExec, CollectedFaultsAreCappedButAllCounted)
{
    Script script;
    script.everyThreadFaults = true;
    const std::uint32_t n = FaultCtx::kMaxRecordedFaults + 36;
    Chain chain(script, {n}, n);
    std::vector<ThreadFault> faults;
    FaultCtx ctx(ErrorPolicy::ContinueAndCollect, &faults);

    EXPECT_EQ(executeBin(kBinId, n, ctx, kWorker, GroupCursor(chain.head())),
              0u);
    EXPECT_EQ(ctx.totalFaults, n);
    ASSERT_EQ(faults.size(), FaultCtx::kMaxRecordedFaults);
    EXPECT_EQ(faults.front().message, "boom 0");
    EXPECT_EQ(faults.back().message,
              "boom " + std::to_string(FaultCtx::kMaxRecordedFaults - 1));
}

TEST(BinExec, StopTourKeepsTheFirstExceptionOnly)
{
    Script script;
    script.faultAt = 2;
    Chain first(script, {4});
    std::vector<ThreadFault> faults;
    FaultCtx ctx(ErrorPolicy::StopTour, &faults);
    EXPECT_EQ(executeBin(kBinId, 4, ctx, kWorker, GroupCursor(first.head())),
              2u);

    // A second bin of the same tour faults too (a worker that had
    // already claimed it): recorded, but the rethrown one stays the
    // first.
    Script other;
    other.faultAt = 0;
    Chain second(other, {3});
    EXPECT_EQ(executeBin(kBinId + 1, 3, ctx, kWorker,
                         GroupCursor(second.head())),
              0u);
    EXPECT_EQ(ctx.totalFaults, 2u);
    ASSERT_EQ(faults.size(), 2u);
    EXPECT_EQ(faults[1].binId, kBinId + 1);
    ASSERT_TRUE(ctx.first != nullptr);
    try {
        std::rethrow_exception(ctx.first);
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 2");
    }
}

} // namespace
