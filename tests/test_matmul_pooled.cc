/**
 * @file
 * The native threaded matmul on the pool (matmulThreaded with
 * workers > 1: transposes and forks through forkParallel()) and what
 * a forkParallel() body may not do.
 *
 * Lives in the workloads test binary: everything here must stay clean
 * under LSCHED_SANITIZE=thread, so no death tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "support/error.hh"
#include "threads/scheduler.hh"
#include "workloads/matmul.hh"

namespace
{

using namespace lsched::workloads;
using lsched::UsageError;
using lsched::threads::ForkShard;
using lsched::threads::Hint;
using lsched::threads::LocalityScheduler;
using lsched::threads::SchedulerConfig;

SchedulerConfig
matmulCfg()
{
    SchedulerConfig c;
    c.dims = 2;
    c.cacheBytes = 64 * 1024;
    c.topology = "flat";
    return c;
}

bool
sameBits(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(),
                       x.rows() * x.cols() * sizeof(double)) == 0;
}

class MatmulPooled : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MatmulPooled, BitIdenticalToOneWorkerAndToTransposed)
{
    const std::size_t n = GetParam();
    Matrix a(n, n), b(n, n);
    randomize(a, 11);
    randomize(b, 12);
    NativeModel model;
    Matrix transposed(n, n);
    matmulTransposed(a, b, transposed, model);

    LocalityScheduler s(matmulCfg());
    Matrix one(n, n);
    matmulThreaded(a, b, one, s, model, 1);
    EXPECT_TRUE(sameBits(one, transposed));
    for (const unsigned workers : {2u, 4u}) {
        Matrix c(n, n);
        c.fill(-1.0);
        matmulThreaded(a, b, c, s, model, workers);
        EXPECT_TRUE(sameBits(c, one)) << workers << " workers";
        EXPECT_EQ(s.pendingThreads(), 0u);
    }
    const auto st = s.stats();
    EXPECT_EQ(st.executedThreads, 3 * n * n);
    EXPECT_EQ(st.forkedThreads, st.executedThreads);
}

// Sizes that are not multiples of the 32-row stripe or of the worker
// count, and one (n = 1) below both.
INSTANTIATE_TEST_SUITE_P(Sizes, MatmulPooled,
                         ::testing::Values<std::size_t>(1, 31, 33, 100,
                                                        257));

void
nullThread(void *, void *)
{
}

/** forkParallel(4, 8) with a body that calls @p misuse at k == 5;
 *  expects one UsageError naming @p call and no thread left behind. */
void
expectBodyMisuseThrows(LocalityScheduler &s, const std::string &call,
                       const std::function<void()> &misuse)
{
    s.fork(&nullThread, nullptr, nullptr, 1 << 20, 0);
    const std::uint64_t pending = s.pendingThreads();
    try {
        s.forkParallel(4, 8, [&](std::size_t k, ForkShard &shard) {
            shard.fork(&nullThread, nullptr, nullptr,
                       static_cast<Hint>(k) << 16, 0);
            if (k == 5)
                misuse();
        });
        ADD_FAILURE() << call << " inside a body did not throw";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find(call), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(s.pendingThreads(), pending);
    EXPECT_EQ(s.run(), pending);
}

TEST(ForkParallelMisuse, SchedulerCallsInsideABodyThrowUsageError)
{
    LocalityScheduler s(matmulCfg());
    expectBodyMisuseThrows(s, "fork()", [&] {
        s.fork(&nullThread, nullptr, nullptr, 0, 0);
    });
    expectBodyMisuseThrows(s, "run()", [&] { s.run(); });
    expectBodyMisuseThrows(s, "runParallel()", [&] { s.runParallel(2); });
    expectBodyMisuseThrows(s, "forkParallel()", [&] {
        s.forkParallel(2, 2, [](std::size_t, ForkShard &) {});
    });
    expectBodyMisuseThrows(s, "reconfigure",
                           [&] { s.configure(matmulCfg()); });
    expectBodyMisuseThrows(s, "clear()", [&] { s.clear(); });
}

TEST(ForkParallelMisuse, DuringAStreamThrowsUsageError)
{
    LocalityScheduler s(matmulCfg());
    s.streamBegin(1);
    int calls = 0;
    EXPECT_THROW(s.forkParallel(2, 4,
                                [&](std::size_t, ForkShard &) { ++calls; }),
                 UsageError);
    EXPECT_EQ(calls, 0);
    s.streamEnd();
}

TEST(ForkParallelMisuse, SerialFallbackForksThroughFork)
{
    // One worker: the loop runs on the caller and the shard forwards
    // to fork(), where a body may call fork() itself too.
    LocalityScheduler s(matmulCfg());
    s.forkParallel(1, 3, [&](std::size_t k, ForkShard &shard) {
        shard.fork(&nullThread, nullptr, nullptr,
                   static_cast<Hint>(k) << 20, 0);
        s.fork(&nullThread, nullptr, nullptr, 0, 0);
    });
    EXPECT_EQ(s.pendingThreads(), 6u);
    EXPECT_EQ(s.workerPoolStats().threadsSpawned, 0u);
    EXPECT_EQ(s.run(), 6u);
}

} // namespace
