/** @file Unit tests for the Fortran-callable bindings (by-reference
 *  arguments, trailing-underscore names), exercised the way a Fortran
 *  compiler would emit the calls. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <mutex>
#include <vector>

#include "threads/c_api.hh"

namespace
{

std::vector<double> g_results;

/** A Fortran-style subroutine: both arguments by reference. */
void
scaleElement(void *x_ref, void *factor_ref)
{
    const double x = *static_cast<double *>(x_ref);
    const double factor = *static_cast<double *>(factor_ref);
    g_results.push_back(x * factor);
}

class FortranApiTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        g_results.clear();
        th_default_scheduler().clear();
        const long zero = 0;
        th_init_(&zero, &zero);
    }
};

TEST_F(FortranApiTest, InitForkRunRoundTrip)
{
    // The Fortran idiom: hints are array elements passed by
    // reference — their addresses ARE the hints.
    static double array[64];
    static double factor = 2.0;
    for (int i = 0; i < 64; ++i)
        array[i] = i;
    for (int i = 0; i < 64; ++i) {
        th_fork_(&scaleElement, &array[i], &factor, &array[i],
                 nullptr, nullptr);
    }
    const int keep = 0;
    th_run_(&keep);
    ASSERT_EQ(g_results.size(), 64u);
    // All hints fall in one block -> fork order preserved.
    for (int i = 0; i < 64; ++i)
        EXPECT_DOUBLE_EQ(g_results[static_cast<std::size_t>(i)],
                         2.0 * i);
}

TEST_F(FortranApiTest, InitSetsSizesByReference)
{
    const long blocksize = 8192;
    const long hashsize = 64;
    th_init_(&blocksize, &hashsize);
    const auto &cfg = th_default_scheduler().config();
    EXPECT_EQ(cfg.blockBytes, 8192u);
    EXPECT_EQ(cfg.hashBuckets, 64u);
}

TEST_F(FortranApiTest, KeepByReferenceReRuns)
{
    static double x = 3.0;
    static double f = 4.0;
    th_fork_(&scaleElement, &x, &f, &x, nullptr, nullptr);
    const int keep = 1;
    th_run_(&keep);
    th_run_(&keep);
    const int drop = 0;
    th_run_(&drop);
    EXPECT_EQ(g_results.size(), 3u);
    EXPECT_EQ(th_default_scheduler().pendingThreads(), 0u);
}

TEST_F(FortranApiTest, SetPlacementAndBackendByNumericKind)
{
    // Fortran passes INTEGER kinds by reference; out-of-range values
    // are recorded errors, not aborts.
    const int roundrobin = 1, serial = 0, blockhash = 0, pooled = 1;
    th_set_placement_(&roundrobin);
    EXPECT_EQ(th_stats().placement, 1);
    th_set_backend_(&serial);
    EXPECT_EQ(th_stats().backend, 0);

    th_clear_error();
    const int bogus = 7;
    th_set_placement_(&bogus);
    EXPECT_NE(th_last_error(), nullptr);
    th_clear_error();
    th_set_backend_(&bogus);
    EXPECT_NE(th_last_error(), nullptr);
    th_clear_error();

    th_set_placement_(&blockhash);
    th_set_backend_(&pooled);
    EXPECT_EQ(th_stats().placement, 0);
    EXPECT_EQ(th_stats().backend, 1);
}

std::vector<double> g_streamResults;

void
recordStream(void *x_ref, void *)
{
    // g_results is not thread-safe; the stream test uses one drain
    // worker and checks only the count on its own vector.
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    g_streamResults.push_back(*static_cast<double *>(x_ref));
}

TEST_F(FortranApiTest, StreamSessionByReference)
{
    g_streamResults.clear();
    static double array[128];
    for (int i = 0; i < 128; ++i)
        array[i] = i;

    const int workers = 1;
    th_stream_begin_(&workers);
    for (int i = 0; i < 128; ++i)
        th_fork_(&recordStream, &array[i], nullptr, &array[i], nullptr,
                 nullptr);
    long long executed = 0;
    th_stream_end_(&executed);
    EXPECT_EQ(executed, 128);
    EXPECT_EQ(g_streamResults.size(), 128u);

    // Closing again is an error reported by value, not an abort.
    th_clear_error();
    th_stream_end_(&executed);
    EXPECT_EQ(executed, -1);
    EXPECT_NE(th_last_error(), nullptr);
    th_clear_error();
}

TEST_F(FortranApiTest, StatsArrayMirrorsTheStruct)
{
    static double x = 1.0, f = 2.0;
    for (int i = 0; i < 5; ++i)
        th_fork_(&scaleElement, &x, &f, &x, nullptr, nullptr);

    const th_stats_t s = th_stats();
    long long values[48];
    std::fill(std::begin(values), std::end(values), -7);
    const int count = 48;
    th_stats_(values, &count);
    // Every th_stats_t field, in declaration order (written out here,
    // not taken from the library's table); reals rounded.
    const long long want[] = {
        static_cast<long long>(s.pending_threads),
        static_cast<long long>(s.executed_threads),
        static_cast<long long>(s.bins),
        static_cast<long long>(s.occupied_bins),
        static_cast<long long>(s.max_hash_chain),
        static_cast<long long>(s.tour_length),
        static_cast<long long>(s.pool_threads_spawned),
        static_cast<long long>(s.pool_steals),
        static_cast<long long>(s.pool_parks),
        s.placement,
        s.backend,
        std::llround(s.threads_per_bin_mean),
        std::llround(s.threads_per_bin_min),
        std::llround(s.threads_per_bin_max),
        std::llround(s.threads_per_bin_stddev),
        static_cast<long long>(s.faulted_threads),
        static_cast<long long>(s.last_fault_count),
        static_cast<long long>(s.stream_forked),
        static_cast<long long>(s.stream_executed),
        static_cast<long long>(s.stream_seals),
        static_cast<long long>(s.stream_backpressure_waits),
        static_cast<long long>(s.stream_inline_drains),
        static_cast<long long>(s.stream_backlog),
        static_cast<long long>(s.stream_peak_backlog),
        static_cast<long long>(s.recover_deadlines),
        static_cast<long long>(s.recover_watchdog_cancels),
        static_cast<long long>(s.recover_cancelled_bins),
        static_cast<long long>(s.recover_cancelled_threads),
        static_cast<long long>(s.recover_admission_retries),
        static_cast<long long>(s.recover_admission_timeouts),
        static_cast<long long>(s.recover_load_sheds),
        static_cast<long long>(s.recover_degraded_tours),
        static_cast<long long>(s.recover_recoveries),
        s.recover_state,
        static_cast<long long>(s.adapt_retunes),
        static_cast<long long>(s.adapt_observations),
        static_cast<long long>(s.adapt_block_bytes),
        static_cast<long long>(s.adapt_super_bin_fan),
        s.adapt_regime,
        static_cast<long long>(s.pool_pin_failed),
        static_cast<long long>(s.pool_cross_domain_steals),
    };
    static_assert(std::size(want) == 41, "th_stats_t has 41 fields");
    for (std::size_t i = 0; i < std::size(want); ++i)
        EXPECT_EQ(values[i], want[i]) << "index " << i;
    EXPECT_EQ(values[0], 5);
    // A COUNT past the struct writes exactly its 41 values.
    for (std::size_t i = std::size(want); i < std::size(values); ++i)
        EXPECT_EQ(values[i], -7) << "index " << i;

    // A short COUNT caps the fill and touches nothing past it.
    long long partial[4] = {-7, -7, -7, -7};
    const int three = 3;
    th_stats_(partial, &three);
    EXPECT_EQ(partial[0], 5);
    EXPECT_EQ(partial[3], -7);

    const int keep = 0;
    th_run_(&keep);
}

TEST_F(FortranApiTest, MetricArrayMirrorsTheNamedSurface)
{
    static double x = 1.0, f = 2.0;
    for (int i = 0; i < 5; ++i)
        th_fork_(&scaleElement, &x, &f, &x, nullptr, nullptr);
    const int keep = 0;
    th_run_(&keep);

    // Numeric-only mirror: COUNT matches the C side, and each VALUE
    // is the metric at the same index in th_metric_name order.
    int count = 0;
    th_metric_count_(&count);
    ASSERT_EQ(count, th_metric_count());
    ASSERT_GT(count, 0);
    for (int i = 0; i < count; i += 7) {
        char name[160];
        ASSERT_GE(th_metric_name(i, name, sizeof(name)), 0);
        unsigned long long fromName = 0;
        ASSERT_EQ(th_metric_get(name, &fromName), 0) << name;
        long long fromIndex = -1;
        th_metric_value_(&i, &fromIndex);
        EXPECT_EQ(fromIndex, static_cast<long long>(fromName))
            << name;
    }

    // Out-of-range and NULL inputs are inert, not fatal.
    long long value = 0;
    th_metric_value_(&count, &value);
    EXPECT_EQ(value, -1);
    th_metric_value_(nullptr, &value);
    EXPECT_EQ(value, -1);
    th_metric_count_(nullptr);
}

TEST_F(FortranApiTest, MixedCAndFortranCallsShareScheduler)
{
    static double x = 1.0, f = 5.0;
    th_fork(&scaleElement, &x, &f, &x, nullptr, nullptr); // C
    th_fork_(&scaleElement, &x, &f, &x, nullptr, nullptr); // Fortran
    EXPECT_EQ(th_default_scheduler().pendingThreads(), 2u);
    const int keep = 0;
    th_run_(&keep);
    EXPECT_EQ(g_results.size(), 2u);
}

} // namespace
