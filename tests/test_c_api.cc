/** @file Unit tests for the paper's th_init/th_fork/th_run interface. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "support/failpoint.hh"
#include "threads/c_api.hh"
#include "threads/config_keys.hh"

namespace
{

std::vector<std::uintptr_t> g_order;

void
record(void *, void *tag)
{
    g_order.push_back(reinterpret_cast<std::uintptr_t>(tag));
}

class CApiTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        g_order.clear();
        th_default_scheduler().clear();
        th_init(0, 0); // paper defaults
    }
};

TEST_F(CApiTest, InitZeroSelectsDefaults)
{
    const auto &cfg = th_default_scheduler().config();
    EXPECT_EQ(cfg.dims, 3u);
    EXPECT_EQ(cfg.blockBytes, cfg.cacheBytes / 3);
    EXPECT_GT(cfg.hashBuckets, 0u);
}

TEST_F(CApiTest, ForkAndRunExecutesAll)
{
    for (std::uintptr_t i = 0; i < 50; ++i) {
        th_fork(&record, nullptr, reinterpret_cast<void *>(i),
                reinterpret_cast<void *>(i * 64), nullptr, nullptr);
    }
    th_run(0);
    EXPECT_EQ(g_order.size(), 50u);
    EXPECT_EQ(th_default_scheduler().pendingThreads(), 0u);
}

std::atomic<std::uint64_t> g_parallelRuns{0};

void
bumpParallel(void *, void *)
{
    g_parallelRuns.fetch_add(1, std::memory_order_relaxed);
}

TEST_F(CApiTest, RunParallelExecutesAllAndFillsPoolStats)
{
    g_parallelRuns.store(0);
    const th_stats_t before = th_stats(); // SetUp retired any old pool
    for (std::uintptr_t i = 0; i < 200; ++i) {
        th_fork(&bumpParallel, nullptr, nullptr,
                reinterpret_cast<void *>(i * 4096), nullptr, nullptr);
    }
    th_run_parallel(2, /*keep=*/1);
    EXPECT_EQ(g_parallelRuns.load(), 200u);
    const th_stats_t warm = th_stats();
    EXPECT_EQ(warm.pool_threads_spawned,
              before.pool_threads_spawned + 1);

    th_run_parallel(2, /*keep=*/0);
    EXPECT_EQ(g_parallelRuns.load(), 400u);
    // Warm tour: the parked helper is reused, not respawned.
    EXPECT_EQ(th_stats().pool_threads_spawned,
              warm.pool_threads_spawned);
    EXPECT_EQ(th_default_scheduler().pendingThreads(), 0u);
}

TEST_F(CApiTest, KeepReRunsSchedule)
{
    th_fork(&record, nullptr, reinterpret_cast<void *>(7), nullptr,
            nullptr, nullptr);
    th_run(1);
    th_run(1);
    th_run(0);
    EXPECT_EQ(g_order,
              (std::vector<std::uintptr_t>{7, 7, 7}));
}

TEST_F(CApiTest, InitChangesBlockSize)
{
    th_init(4096, 128);
    const auto &cfg = th_default_scheduler().config();
    EXPECT_EQ(cfg.blockBytes, 4096u);
    EXPECT_EQ(cfg.hashBuckets, 128u);
}

TEST_F(CApiTest, HintsClusterAsInPaperExample)
{
    // Paper Section 2.4: the 4x4 matrix-multiply example — 16 dot-
    // product threads over 4 "vectors" per matrix, block = 2 vectors,
    // must land in exactly 4 bins of 4 threads each.
    const std::size_t vec_bytes = 1024;
    th_init(2 * vec_bytes, 0);
    // Two synthetic matrices: a at 0x100000, b at 0x200000.
    const std::uintptr_t a = 0x100000, b = 0x200000;
    for (std::uintptr_t i = 0; i < 4; ++i) {
        for (std::uintptr_t j = 0; j < 4; ++j) {
            th_fork(&record, nullptr,
                    reinterpret_cast<void *>(i * 4 + j),
                    reinterpret_cast<void *>(a + i * vec_bytes),
                    reinterpret_cast<void *>(b + j * vec_bytes),
                    nullptr);
        }
    }
    auto &sched = th_default_scheduler();
    EXPECT_EQ(sched.binCount(), 4u);
    const auto occupancy = sched.binOccupancy();
    ASSERT_EQ(occupancy.size(), 4u);
    for (auto c : occupancy)
        EXPECT_EQ(c, 4u);
    th_run(0);
    // Threads of bin 1 (rows 0-1 x cols 0-1) run first, in fork order:
    // t(0,0), t(0,1), t(1,0), t(1,1) = tags 0, 1, 4, 5.
    EXPECT_EQ((std::vector<std::uintptr_t>(g_order.begin(),
                                           g_order.begin() + 4)),
              (std::vector<std::uintptr_t>{0, 1, 4, 5}));
}

TEST_F(CApiTest, StatsReturnsPlainCSnapshot)
{
    th_init(4096, 0);
    // Three threads in each of two far-apart blocks.
    for (std::uintptr_t i = 0; i < 6; ++i) {
        th_fork(&record, nullptr, reinterpret_cast<void *>(i),
                reinterpret_cast<void *>((i % 2) * 0x100000 + 64),
                nullptr, nullptr);
    }
    const th_stats_t before = th_stats();
    EXPECT_EQ(before.pending_threads, 6u);
    EXPECT_EQ(before.bins, 2u);
    EXPECT_EQ(before.occupied_bins, 2u);
    EXPECT_GE(before.max_hash_chain, 1u);
    EXPECT_DOUBLE_EQ(before.threads_per_bin_mean, 3.0);
    EXPECT_DOUBLE_EQ(before.threads_per_bin_min, 3.0);
    EXPECT_DOUBLE_EQ(before.threads_per_bin_max, 3.0);
    EXPECT_DOUBLE_EQ(before.threads_per_bin_stddev, 0.0);

    th_run(0);
    const th_stats_t after = th_stats();
    EXPECT_EQ(after.pending_threads, 0u);
    EXPECT_EQ(after.executed_threads - before.executed_threads, 6u);
    // Empty distribution reports zeros, not infinities.
    EXPECT_EQ(after.occupied_bins, 0u);
    EXPECT_DOUBLE_EQ(after.threads_per_bin_min, 0.0);
    EXPECT_DOUBLE_EQ(after.threads_per_bin_max, 0.0);
}

TEST_F(CApiTest, SymmetricHintsFoldPermutedForksIntoOneBin)
{
    // Paper Section 3.2's symmetric-hint option, driven end to end
    // through th_fork: every permutation of the same three addresses
    // must land in one bin once folding is on — and in six distinct
    // bins when it is off (the global scheduler's config carries
    // through the C boundary).
    auto &sched = th_default_scheduler();
    const auto saved = sched.config();
    auto cfg = saved;
    cfg.symmetricHints = true;
    sched.configure(cfg);

    void *const h[3] = {reinterpret_cast<void *>(0x100000),
                        reinterpret_cast<void *>(0x900000),
                        reinterpret_cast<void *>(0x1100000)};
    const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                             {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    for (const auto &p : perms)
        th_fork(&record, nullptr, nullptr, h[p[0]], h[p[1]], h[p[2]]);
    const th_stats_t folded = th_stats();
    EXPECT_EQ(folded.pending_threads, 6u);
    EXPECT_EQ(folded.occupied_bins, 1u);
    EXPECT_DOUBLE_EQ(folded.threads_per_bin_max, 6.0);
    th_run(0);
    EXPECT_EQ(g_order.size(), 6u);

    cfg.symmetricHints = false;
    sched.configure(cfg);
    for (const auto &p : perms)
        th_fork(&record, nullptr, nullptr, h[p[0]], h[p[1]], h[p[2]]);
    EXPECT_EQ(th_stats().occupied_bins, 6u);
    th_run(0);

    sched.configure(saved);
}

TEST_F(CApiTest, SetPlacementAndBackendSelectAtRuntime)
{
    const th_stats_t defaults = th_stats();
    EXPECT_EQ(defaults.placement, 0) << "blockhash by default";
    EXPECT_EQ(defaults.backend, 1) << "pooled by default";

    EXPECT_EQ(th_configure("placement", "roundrobin"), 0);
    EXPECT_EQ(th_stats().placement, 1);
    // Round-robin really is in charge now: identical hints spread.
    for (int i = 0; i < 8; ++i)
        th_fork(&record, nullptr, nullptr,
                reinterpret_cast<void *>(0x100000), nullptr, nullptr);
    EXPECT_EQ(th_stats().occupied_bins, 8u);
    th_run(0);
    EXPECT_EQ(g_order.size(), 8u);

    EXPECT_EQ(th_configure("backend", "serial"), 0);
    EXPECT_EQ(th_stats().backend, 0);

    th_clear_error();
    EXPECT_EQ(th_configure("placement", "bogus"), -1);
    ASSERT_NE(th_last_error(), nullptr);
    th_clear_error();
    EXPECT_EQ(th_configure("backend", "bogus"), -1);
    ASSERT_NE(th_last_error(), nullptr);
    th_clear_error();
    EXPECT_EQ(th_configure("placement", nullptr), -1);
    EXPECT_EQ(th_configure("backend", nullptr), -1);
    th_clear_error();

    // Restore the global scheduler for the other fixtures.
    EXPECT_EQ(th_configure("placement", "blockhash"), 0);
    EXPECT_EQ(th_configure("backend", "pooled"), 0);
    EXPECT_EQ(th_stats().placement, 0);
    EXPECT_EQ(th_stats().backend, 1);
}

TEST_F(CApiTest, ConfigureRoundTripsEveryKey)
{
    // Every key reads back a value that th_configure accepts and that
    // reproduces itself — the unified surface's round-trip contract,
    // driven through the C boundary.
    for (const std::string &key : lsched::threads::configKeys()) {
        char value[64];
        const int n = th_config_get(key.c_str(), value,
                                    sizeof(value));
        ASSERT_GE(n, 0) << key;
        ASSERT_LT(n, static_cast<int>(sizeof(value))) << key;
        EXPECT_EQ(th_configure(key.c_str(), value), 0)
            << key << "=" << value << ": " << th_last_error();
        char again[64];
        ASSERT_EQ(th_config_get(key.c_str(), again, sizeof(again)), n);
        EXPECT_STREQ(again, value) << key;
    }
}

TEST_F(CApiTest, ConfigureRejectsUnknownKeysAndBadValues)
{
    th_clear_error();
    EXPECT_EQ(th_configure("bogus_knob", "1"), -1);
    ASSERT_NE(th_last_error(), nullptr);
    EXPECT_NE(std::string(th_last_error()).find("bogus_knob"),
              std::string::npos);

    th_clear_error();
    EXPECT_EQ(th_configure("dims", "0"), -1);
    ASSERT_NE(th_last_error(), nullptr);

    th_clear_error();
    EXPECT_EQ(th_configure("on_error", "sideways"), -1);
    ASSERT_NE(th_last_error(), nullptr);

    th_clear_error();
    EXPECT_EQ(th_configure(nullptr, "1"), -1);
    EXPECT_EQ(th_configure("dims", nullptr), -1);

    // A rejected value leaves the configuration untouched.
    th_clear_error();
    char dims[16];
    ASSERT_GT(th_config_get("dims", dims, sizeof(dims)), 0);
    EXPECT_EQ(th_configure("dims", "99"), -1);
    char after[16];
    ASSERT_GT(th_config_get("dims", after, sizeof(after)), 0);
    EXPECT_STREQ(after, dims);
    th_clear_error();
}

TEST_F(CApiTest, ConfigGetReportsLengthAndTruncates)
{
    th_clear_error();
    EXPECT_EQ(th_config_get("bogus_knob", nullptr, 0), -1);
    ASSERT_NE(th_last_error(), nullptr);
    th_clear_error();

    ASSERT_EQ(th_configure("placement", "hierarchical"), 0);
    // Full length comes back regardless of the buffer (snprintf-ish),
    // and what fits is NUL-terminated.
    EXPECT_EQ(th_config_get("placement", nullptr, 0), 12);
    char tiny[5];
    EXPECT_EQ(th_config_get("placement", tiny, sizeof(tiny)), 12);
    EXPECT_STREQ(tiny, "hier");
    ASSERT_EQ(th_configure("placement", "blockhash"), 0);
}

TEST_F(CApiTest, ConfigKeyEnumerationMatchesTheTable)
{
    const auto &keys = lsched::threads::configKeys();
    ASSERT_EQ(th_config_keys(), static_cast<int>(keys.size()));
    char buf[128];
    for (int i = 0; i < th_config_keys(); ++i) {
        const int n = th_config_key(i, buf, sizeof(buf));
        ASSERT_GE(n, 0) << "index " << i;
        EXPECT_EQ(std::string(buf), keys[static_cast<std::size_t>(i)]);
        // Every enumerated key is readable.
        char value[128];
        EXPECT_GE(th_config_get(buf, value, sizeof(value)), 0) << buf;
    }
    th_clear_error();
    EXPECT_EQ(th_config_key(-1, buf, sizeof(buf)), -1);
    EXPECT_EQ(th_config_key(th_config_keys(), buf, sizeof(buf)), -1);
    EXPECT_NE(th_last_error(), nullptr);
    // The truncation protocol matches th_config_get: full length
    // returned, copy truncated and NUL-terminated.
    char tiny[3];
    const int full = th_config_key(0, tiny, sizeof(tiny));
    ASSERT_GE(full, 0);
    EXPECT_EQ(full, static_cast<int>(
                        lsched::threads::configKeys()[0].size()));
    EXPECT_EQ(tiny[2], '\0');
}

TEST_F(CApiTest, RemovedConfigSpellingsAreRejected)
{
    // Keys match exactly: the camelCase spelling of every multi-word
    // key (its SchedulerConfig field name), the persistent_pool switch,
    // the coldspawn backend and the tour key are all refused with -1
    // and a recorded error, on the write and the read path, and the
    // configuration is left exactly as it was.
    const std::vector<std::string> &keys = lsched::threads::configKeys();
    const auto snapshot = [&] {
        std::vector<std::string> values;
        char value[256];
        for (const std::string &key : keys) {
            EXPECT_GE(th_config_get(key.c_str(), value, sizeof(value)),
                      0)
                << key;
            values.emplace_back(value);
        }
        return values;
    };
    const std::vector<std::string> before = snapshot();
    std::vector<std::pair<std::string, std::string>> removed = {
        {"persistent_pool", "0"},
        {"persistent_pool", "1"},
        {"backend", "coldspawn"},
        {"tour", "creation"},
    };
    for (std::size_t i = 0; i < keys.size(); ++i) {
        std::string camel;
        bool upper = false;
        for (const char ch : keys[i]) {
            if (ch == '_') {
                upper = true;
                continue;
            }
            camel += upper ? static_cast<char>(ch - 'a' + 'A') : ch;
            upper = false;
        }
        if (camel != keys[i])
            removed.emplace_back(camel, before[i]);
    }
    ASSERT_GT(removed.size(), 20u);
    char value[256];
    for (const auto &[key, setting] : removed) {
        th_clear_error();
        EXPECT_EQ(th_configure(key.c_str(), setting.c_str()), -1)
            << key << "=" << setting;
        ASSERT_NE(th_last_error(), nullptr) << key;
        if (key != "backend") {
            EXPECT_NE(std::string(th_last_error()).find(
                          "unknown config key"),
                      std::string::npos)
                << th_last_error();
            EXPECT_EQ(th_config_get(key.c_str(), value, sizeof(value)),
                      -1)
                << key;
        }
    }
    th_clear_error();
    EXPECT_EQ(snapshot(), before);
}

TEST_F(CApiTest, MetricSurfaceMirrorsTheFrozenStatsStruct)
{
    // Run a little work so the interesting counters are non-zero.
    for (std::uintptr_t i = 0; i < 50; ++i) {
        th_fork(&record, nullptr, reinterpret_cast<void *>(i),
                reinterpret_cast<void *>(i * 64), nullptr, nullptr);
    }
    th_run(0);

    // The named surface carries at least every th_stats_t field; the
    // struct is frozen (v1) and new telemetry lands here instead.
    const th_stats_t s = th_stats();
    const struct
    {
        const char *name;
        unsigned long long want;
    } parity[] = {
        {"sched.pending_threads", s.pending_threads},
        {"sched.executed_threads", s.executed_threads},
        {"sched.bins", s.bins},
        {"sched.bins.occupied", s.occupied_bins},
        {"sched.hash.max_chain", s.max_hash_chain},
        {"sched.tour.length", s.tour_length},
        {"sched.pool.threads", s.pool_threads_spawned},
        {"sched.pool.steals", s.pool_steals},
        {"sched.pool.parks", s.pool_parks},
        {"sched.placement",
         static_cast<unsigned long long>(s.placement)},
        {"sched.backend", static_cast<unsigned long long>(s.backend)},
        {"sched.bin.threads.mean",
         static_cast<unsigned long long>(
             std::llround(s.threads_per_bin_mean))},
        {"sched.bin.threads.min",
         static_cast<unsigned long long>(
             std::llround(s.threads_per_bin_min))},
        {"sched.bin.threads.max",
         static_cast<unsigned long long>(
             std::llround(s.threads_per_bin_max))},
        {"sched.bin.threads.stddev",
         static_cast<unsigned long long>(
             std::llround(s.threads_per_bin_stddev))},
        {"sched.faulted_threads", s.faulted_threads},
        {"sched.last_fault_count", s.last_fault_count},
        {"sched.stream.forked", s.stream_forked},
        {"sched.stream.executed", s.stream_executed},
        {"sched.stream.seals", s.stream_seals},
        {"sched.stream.backpressure", s.stream_backpressure_waits},
        {"sched.stream.inline_drains", s.stream_inline_drains},
        {"sched.stream.backlog", s.stream_backlog},
        {"sched.stream.peak_backlog", s.stream_peak_backlog},
        {"sched.recover.deadlines", s.recover_deadlines},
        {"sched.recover.watchdog_cancels", s.recover_watchdog_cancels},
        {"sched.recover.cancelled_bins", s.recover_cancelled_bins},
        {"sched.recover.cancelled_threads",
         s.recover_cancelled_threads},
        {"sched.recover.admission_retries",
         s.recover_admission_retries},
        {"sched.recover.admission_timeouts",
         s.recover_admission_timeouts},
        {"sched.recover.load_sheds", s.recover_load_sheds},
        {"sched.recover.degraded_tours", s.recover_degraded_tours},
        {"sched.recover.recoveries", s.recover_recoveries},
        {"sched.recover.state",
         static_cast<unsigned long long>(s.recover_state)},
        {"sched.adapt.retunes", s.adapt_retunes},
        {"sched.adapt.observations", s.adapt_observations},
        {"sched.adapt.block_bytes", s.adapt_block_bytes},
        {"sched.adapt.super_bin_fan", s.adapt_super_bin_fan},
        {"sched.adapt.regime",
         static_cast<unsigned long long>(s.adapt_regime)},
        {"sched.pool.pin_failed", s.pool_pin_failed},
        {"sched.pool.cross_steals", s.pool_cross_domain_steals},
    };
    for (const auto &row : parity) {
        unsigned long long value = ~0ull;
        ASSERT_EQ(th_metric_get(row.name, &value), 0)
            << row.name << ": " << th_last_error();
        EXPECT_EQ(value, row.want) << row.name;
    }
    EXPECT_EQ(th_metric_get("sched.executed_threads", nullptr), -1)
        << "NULL value pointer must be rejected";
}

TEST_F(CApiTest, MetricEnumerationRoundTripsEveryName)
{
    for (std::uintptr_t i = 0; i < 10; ++i) {
        th_fork(&record, nullptr, reinterpret_cast<void *>(i),
                reinterpret_cast<void *>(i * 4096), nullptr, nullptr);
    }
    th_run(0);

    const int count = th_metric_count();
    ASSERT_GT(count, 0);
    char prev[160] = "";
    for (int i = 0; i < count; ++i) {
        char name[160];
        ASSERT_GE(th_metric_name(i, name, sizeof(name)), 0)
            << "index " << i;
        // Sorted, duplicate-free enumeration: stable for pollers.
        EXPECT_LT(std::string(prev), std::string(name)) << i;
        std::memcpy(prev, name, sizeof(prev));
        unsigned long long value = 0;
        EXPECT_EQ(th_metric_get(name, &value), 0)
            << name << ": " << th_last_error();
    }
    char buf[8];
    th_clear_error();
    EXPECT_EQ(th_metric_name(count, buf, sizeof(buf)), -1);
    EXPECT_NE(th_last_error(), nullptr);

    th_clear_error();
    unsigned long long value = 0;
    EXPECT_EQ(th_metric_get("sched.no_such_metric", &value), -1);
    ASSERT_NE(th_last_error(), nullptr);
    EXPECT_NE(std::string(th_last_error()).find("sched.no_such_metric"),
              std::string::npos);
}

TEST_F(CApiTest, LegacySettersAreConfigureShims)
{
    // The Fortran numeric selectors are shims over th_configure,
    // observably through th_config_get.
    const int serial = 0, pooled = 1, retired = 2;
    char value[16];
    th_set_backend_(&serial);
    ASSERT_GT(th_config_get("backend", value, sizeof(value)), 0);
    EXPECT_STREQ(value, "serial");
    th_clear_error();
    th_set_backend_(&retired);
    EXPECT_NE(th_last_error(), nullptr) << "kind 2 is gone";
    th_clear_error();
    ASSERT_GT(th_config_get("backend", value, sizeof(value)), 0);
    EXPECT_STREQ(value, "serial");
    th_set_backend_(&pooled);
    ASSERT_GT(th_config_get("backend", value, sizeof(value)), 0);
    EXPECT_STREQ(value, "pooled");

    // th_init sets block_bytes/hash_buckets in one reconfiguration.
    th_init(8192, 64);
    ASSERT_GT(th_config_get("block_bytes", value, sizeof(value)), 0);
    EXPECT_STREQ(value, "8192");
    ASSERT_GT(th_config_get("hash_buckets", value, sizeof(value)), 0);
    EXPECT_STREQ(value, "64");
    th_init(0, 0);
}

std::atomic<std::uint64_t> g_streamRuns{0};

void
bumpStream(void *, void *)
{
    g_streamRuns.fetch_add(1, std::memory_order_relaxed);
}

TEST_F(CApiTest, StreamSessionThroughTheCBoundary)
{
    th_clear_error();
    EXPECT_EQ(th_stream_end(), -1ll) << "no stream open yet";
    ASSERT_NE(th_last_error(), nullptr);
    th_clear_error();

    g_streamRuns.store(0);
    ASSERT_EQ(th_configure("stream_seal_threshold", "16"), 0);
    const th_stats_t before = th_stats();
    ASSERT_EQ(th_stream_begin(1), 0);
    for (std::uintptr_t i = 0; i < 300; ++i) {
        th_fork(&bumpStream, nullptr, nullptr,
                reinterpret_cast<void *>((i % 40) * 0x100000),
                nullptr, nullptr);
    }
    EXPECT_EQ(th_stream_end(), 300ll);
    EXPECT_EQ(g_streamRuns.load(), 300u);

    // The appended (ABI rule) stream fields report the session.
    const th_stats_t after = th_stats();
    EXPECT_EQ(after.stream_forked - before.stream_forked, 300u);
    EXPECT_EQ(after.stream_executed - before.stream_executed, 300u);
    EXPECT_GE(after.stream_seals, before.stream_seals);
    EXPECT_EQ(after.stream_backlog, 0u);
    EXPECT_EQ(after.executed_threads - before.executed_threads, 300u);
    ASSERT_EQ(th_configure("stream_seal_threshold", "0"), 0);
}

/** A metric through the named surface; fails the test when absent. */
unsigned long long
metric(const char *name)
{
    unsigned long long value = 0;
    EXPECT_EQ(th_metric_get(name, &value), 0) << name;
    return value;
}

/** Block-aligned hint far enough apart that each index is its own
 *  bin under any block size. */
void *
binHint(std::uintptr_t index)
{
    return reinterpret_cast<void *>(index << 32);
}

std::atomic<std::uintptr_t> g_nestedNext{0};

/** Forks one thread into a bin of its own (nested, under th_run(0)). */
void
forkIntoFreshBin(void *, void *)
{
    th_fork(&bumpStream, nullptr, nullptr,
            binHint(g_nestedNext.fetch_add(1)), nullptr, nullptr);
}

TEST_F(CApiTest, ForkRunAndBinTotalsAreExactWithMetricsOff)
{
    // The three totals are scheduler statistics, not registry
    // counters: th_metric_get reads them with metrics collection off.
    lsched::obs::setMetricsEnabled(false);
    const unsigned long long forked0 = metric("sched.forked_threads");
    const unsigned long long runs0 = metric("sched.runs");
    const unsigned long long bins0 = metric("sched.bins.created");
    const auto forked = [&] {
        return metric("sched.forked_threads") - forked0;
    };
    const auto runs = [&] { return metric("sched.runs") - runs0; };
    const auto bins = [&] { return metric("sched.bins.created") - bins0; };

    // Batch forks count while pending; kept re-runs add none.
    for (std::uintptr_t i = 0; i < 60; ++i)
        th_fork(&bumpStream, nullptr, nullptr, binHint(i % 6), nullptr,
                nullptr);
    EXPECT_EQ(forked(), 60u);
    EXPECT_EQ(bins(), 6u);
    EXPECT_EQ(runs(), 0u);
    th_run(1);
    th_run(1);
    th_run(0);
    EXPECT_EQ(forked(), 60u);
    EXPECT_EQ(runs(), 3u);
    EXPECT_EQ(bins(), 6u);

    // Nested forks under th_run(0): four parents into one new bin,
    // each forking a child into a new bin of its own.
    g_nestedNext.store(100);
    for (int i = 0; i < 4; ++i)
        th_fork(&forkIntoFreshBin, nullptr, nullptr, binHint(6), nullptr,
                nullptr);
    th_run(0);
    EXPECT_EQ(forked(), 68u);
    EXPECT_EQ(runs(), 4u);
    EXPECT_EQ(bins(), 11u);

    // Serial runParallel is run(); a reconfiguration replaces the bin
    // table, so the same hints create their bins again.
    ASSERT_EQ(th_configure("backend", "serial"), 0);
    for (std::uintptr_t i = 0; i < 10; ++i)
        th_fork(&bumpStream, nullptr, nullptr, binHint(i % 2), nullptr,
                nullptr);
    th_run_parallel(2, 0);
    EXPECT_EQ(forked(), 78u);
    EXPECT_EQ(runs(), 5u);
    EXPECT_EQ(bins(), 13u);

    ASSERT_EQ(th_configure("backend", "pooled"), 0);
    for (std::uintptr_t i = 0; i < 10; ++i)
        th_fork(&bumpStream, nullptr, nullptr, binHint(i % 2), nullptr,
                nullptr);
    th_run_parallel(2, 0);
    EXPECT_EQ(forked(), 88u);
    EXPECT_EQ(runs(), 6u);
    EXPECT_EQ(bins(), 15u);

    // A stream counts one run, its admitted threads, and the bins its
    // own tables created.
    ASSERT_EQ(th_stream_begin(1), 0);
    for (std::uintptr_t i = 0; i < 30; ++i)
        th_fork(&bumpStream, nullptr, nullptr, binHint(i % 3), nullptr,
                nullptr);
    EXPECT_EQ(forked(), 118u);
    EXPECT_EQ(th_stream_end(), 30ll);
    EXPECT_EQ(forked(), 118u);
    EXPECT_EQ(runs(), 7u);
    EXPECT_EQ(bins(), 18u);

    // The rows lie past the frozen struct: th_stats_ still writes 41.
    long long values[48];
    std::fill(std::begin(values), std::end(values), -7);
    const int count = 48;
    th_stats_(values, &count);
    EXPECT_NE(values[40], -7);
    for (int i = 41; i < 48; ++i)
        EXPECT_EQ(values[i], -7) << "slot " << i;
}

TEST_F(CApiTest, SetDeadlineIsAConfigureShim)
{
    // Fortran mirror: INTEGER*8 by reference; 0 disarms.
    const long long armed = 250;
    th_set_deadline_(&armed);
    char value[16];
    ASSERT_GT(th_config_get("deadline_millis", value, sizeof(value)),
              0);
    EXPECT_STREQ(value, "250");

    th_clear_error();
    const long long negative = -1;
    th_set_deadline_(&negative);
    ASSERT_NE(th_last_error(), nullptr);
    th_clear_error();
    ASSERT_GT(th_config_get("deadline_millis", value, sizeof(value)),
              0);
    EXPECT_STREQ(value, "250");

    const long long off = 0;
    th_set_deadline_(&off);
    ASSERT_GT(th_config_get("deadline_millis", value, sizeof(value)),
              0);
    EXPECT_STREQ(value, "0");
}

TEST_F(CApiTest, DeadlineSurfacesAsRecordedErrorAndRecoveryStats)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // A wedged run at the C boundary: th_run reports the deadline
    // through th_last_error (C callers cannot catch DeadlineError)
    // and the appended th_stats recovery fields record it.
    const th_stats_t before = th_stats();
    ASSERT_EQ(th_configure("deadline_millis", "50"), 0);
    ASSERT_EQ(th_failpoint_arm("sched.bin.execute", "stall=150"), 0);
    for (std::uintptr_t i = 0; i < 32; ++i) {
        th_fork(&record, nullptr, reinterpret_cast<void *>(i),
                reinterpret_cast<void *>(i * 0x100000), nullptr,
                nullptr);
    }
    th_clear_error();
    th_run(0);
    th_failpoint_disarm_all();
    ASSERT_NE(th_last_error(), nullptr);
    EXPECT_NE(std::string(th_last_error()).find("cancelled"),
              std::string::npos);
    th_clear_error();

    const th_stats_t after = th_stats();
    EXPECT_EQ(after.recover_deadlines, before.recover_deadlines + 1);
    EXPECT_GT(after.recover_cancelled_threads,
              before.recover_cancelled_threads);
    EXPECT_EQ(after.recover_state, 0) << "governor disabled: healthy";
    EXPECT_EQ(th_default_scheduler().pendingThreads(), 0u);
    ASSERT_EQ(th_configure("deadline_millis", "0"), 0);
}

TEST_F(CApiTest, TraceControlsWriteFiles)
{
    if (!lsched::obs::kTraceCompiled)
        GTEST_SKIP() << "tracing compiled out (LSCHED_TRACE_ENABLED=0)";

    th_trace_enable();
    th_fork(&record, nullptr, reinterpret_cast<void *>(1), nullptr,
            nullptr, nullptr);
    th_run(0);

    const std::string trace_path =
        ::testing::TempDir() + "capi_trace.json";
    const std::string metrics_path =
        ::testing::TempDir() + "capi_metrics.csv";
    EXPECT_EQ(th_trace_write(trace_path.c_str()), 0);
    EXPECT_EQ(th_metrics_write(metrics_path.c_str()), 0);
    EXPECT_EQ(th_trace_write(nullptr), -1);
    EXPECT_EQ(th_metrics_write(nullptr), -1);
    th_trace_disable();
    lsched::obs::TraceSession::global().clear();
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
}

} // namespace
