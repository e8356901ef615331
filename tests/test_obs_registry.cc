/**
 * @file
 * Unit tests for the metrics registry: instrument semantics, export
 * renderings, correctness under concurrent runParallel updates, the
 * scheduler publishing each statistic once, as one gauge, and fork
 * never touching the registry.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/registry.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"
#include "threads/placement.hh"
#include "threads/scheduler.hh"
#include "threads/stat_fields.hh"

namespace
{

using lsched::obs::Counter;
using lsched::obs::Histogram;
using lsched::obs::Registry;

TEST(ObsRegistry, CounterAddsAndResets)
{
    Registry r;
    Counter &c = r.counter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Find-or-create returns the same instrument.
    EXPECT_EQ(&r.counter("test.counter"), &c);
    r.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistry, GaugeHoldsLastValue)
{
    Registry r;
    auto &g = r.gauge("test.gauge");
    g.set(7);
    g.set(3);
    EXPECT_EQ(g.value(), 3u);
}

TEST(ObsRegistry, HistogramSummaryIsExact)
{
    Registry r;
    Histogram &h = r.histogram("test.hist");
    for (std::uint64_t v : {5u, 1u, 9u, 0u, 5u})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 20u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 9u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(ObsRegistry, HistogramBucketsByBitWidth)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~0ull), 64u);

    Histogram h;
    h.record(0);
    h.record(2);
    h.record(3);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(1), 0u);
}

TEST(ObsRegistry, RendersAllFormats)
{
    Registry r;
    r.counter("alpha").add(3);
    r.gauge("beta").set(5);
    r.histogram("gamma").record(8);

    const auto rows = r.rows();
    ASSERT_EQ(rows.size(), 3u);

    const std::string text = r.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("counter"), std::string::npos);

    const std::string csv = r.toCsv();
    EXPECT_NE(csv.find("alpha,"), std::string::npos);

    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"alpha\":3"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

void
bumpCounter(void *counter_p, void *)
{
    static_cast<Counter *>(counter_p)->add();
}

TEST(ObsRegistry, CountsAreExactUnderRunParallel)
{
    namespace obs = lsched::obs;
    namespace threads = lsched::threads;

    obs::setMetricsEnabled(true);
    Counter &hits = Registry::global().counter("test.parallel.hits");
    hits.reset();

    threads::SchedulerConfig cfg;
    cfg.dims = 1;
    cfg.blockBytes = 4096;
    threads::LocalityScheduler sched(cfg);
    constexpr std::uint64_t kThreads = 1000;
    for (std::uint64_t i = 0; i < kThreads; ++i) {
        sched.fork(&bumpCounter, &hits, nullptr,
                   static_cast<threads::Hint>(i * 512));
    }
    EXPECT_EQ(sched.runParallel(4, false), kThreads);

    EXPECT_EQ(hits.value(), kThreads);
    // runParallel() publishes its scheduler's lifetime count as it
    // returns.
    if (obs::kTraceCompiled) {
        EXPECT_EQ(
            Registry::global().gauge("sched.executed_threads").value(),
            kThreads);
    }
    obs::setMetricsEnabled(false);
}

TEST(ObsRegistry, SchedulerPublishesOccupancyGauges)
{
    namespace obs = lsched::obs;
    namespace threads = lsched::threads;

    obs::setMetricsEnabled(true);
    threads::SchedulerConfig cfg;
    cfg.dims = 1;
    cfg.blockBytes = 4096;
    threads::LocalityScheduler sched(cfg);
    for (std::uint64_t i = 0; i < 8; ++i) {
        sched.fork(&bumpCounter,
                   &Registry::global().counter("test.occupancy.hits"),
                   nullptr, static_cast<threads::Hint>((i % 2) * 65536));
    }
    const auto stats = sched.stats();
    EXPECT_EQ(stats.occupiedBins, 2u);
    if (obs::kTraceCompiled) {
        EXPECT_EQ(
            Registry::global().gauge("sched.bins.occupied").value(),
            2u);
        EXPECT_EQ(
            Registry::global().gauge("sched.pending_threads").value(),
            8u);
    }
    sched.run(false);
    obs::setMetricsEnabled(false);
}

TEST(ObsRegistry, EachSchedulerStatisticIsOneGaugeOfOneKind)
{
    namespace obs = lsched::obs;
    namespace threads = lsched::threads;
    if (!obs::kTraceCompiled)
        GTEST_SKIP() << "metrics compiled out";

    obs::setMetricsEnabled(true);
    Counter &hits = Registry::global().counter("test.onekind.hits");
    threads::SchedulerConfig cfg;
    cfg.dims = 1;
    cfg.blockBytes = 4096;
    threads::LocalityScheduler sched(cfg);
    for (std::uint64_t i = 0; i < 64; ++i) {
        sched.fork(&bumpCounter, &hits, nullptr,
                   static_cast<threads::Hint>(i * 512));
    }
    EXPECT_EQ(sched.run(false), 64u);
    (void)sched.stats();

    // An adaptive-placement tour, published last: its gauges win.
    threads::SchedulerConfig adaptiveCfg = cfg;
    adaptiveCfg.placement = threads::PlacementKind::Adaptive;
    threads::LocalityScheduler adaptive(adaptiveCfg);
    for (std::uint64_t i = 0; i < 40; ++i) {
        adaptive.fork(&bumpCounter, &hits, nullptr,
                      static_cast<threads::Hint>(i * 4096));
    }
    EXPECT_EQ(adaptive.run(false), 40u);

    const std::vector<Registry::Row> rows = Registry::global().rows();
    std::map<std::string, std::string> kinds;
    std::map<std::string, std::uint64_t> gauges;
    for (const Registry::Row &row : rows) {
        const auto [it, fresh] = kinds.emplace(row.name, row.kind);
        EXPECT_TRUE(fresh) << row.name << " is both a " << it->second
                           << " and a " << row.kind;
        if (row.kind == "gauge")
            gauges[row.name] = row.value;
    }

    lsched::obs::ProfileSnapshot snap;
    snap.rows = rows;
    std::istringstream om(lsched::obs::SnapshotEngine::toOpenMetrics(snap));
    std::map<std::string, int> families;
    for (std::string line; std::getline(om, line);) {
        if (line.rfind("# TYPE ", 0) == 0)
            ++families[line.substr(7, line.rfind(' ') - 7)];
    }
    EXPECT_FALSE(families.empty());
    for (const auto &[family, types] : families)
        EXPECT_EQ(types, 1) << family;

    // The gauges run() published as it returned are the adaptive
    // scheduler's stats(), row for row.
    const threads::SchedulerStats st = adaptive.stats();
    EXPECT_EQ(gauges["sched.executed_threads"], 40u);
    EXPECT_EQ(gauges["sched.executed_threads"], st.executedThreads);
    EXPECT_EQ(gauges["sched.adapt.observations"], st.adapt.observations);
    EXPECT_EQ(gauges["sched.adapt.no_signal"], st.adapt.noSignal);
    for (const threads::StatField &field : threads::statFields()) {
        const auto it = gauges.find(field.name);
        ASSERT_NE(it, gauges.end()) << field.name << " not published";
        EXPECT_EQ(it->second, field.value(st, adaptive.config()))
            << field.name;
    }
    obs::setMetricsEnabled(false);
}

void
noop(void *, void *)
{
}

/** Every registry row's identity and values, for equality checks. */
std::vector<std::tuple<std::string, std::string, std::uint64_t,
                       std::uint64_t>>
registryState()
{
    std::vector<std::tuple<std::string, std::string, std::uint64_t,
                           std::uint64_t>>
        state;
    for (const Registry::Row &row : Registry::global().rows())
        state.emplace_back(row.name, row.kind, row.value, row.sum);
    return state;
}

class ForkLeavesRegistry
    : public ::testing::TestWithParam<lsched::threads::PlacementKind>
{
};

TEST_P(ForkLeavesRegistry, BatchAndStreamForksTouchNoInstrument)
{
    namespace obs = lsched::obs;
    namespace threads = lsched::threads;

    obs::setMetricsEnabled(true);
    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.placement = GetParam();
    // Serial: no drain helpers, so nothing executes (and records a
    // per-bin histogram) until the stream closes.
    cfg.backend = threads::BackendKind::Serial;
    threads::LocalityScheduler sched(cfg);
    constexpr std::uint64_t kThreads = 1000;

    const auto before = registryState();
    for (std::uint64_t i = 0; i < kThreads; ++i) {
        sched.fork(&noop, nullptr, nullptr,
                   static_cast<threads::Hint>(i * 4096),
                   static_cast<threads::Hint>((i % 7) * 65536));
    }
    EXPECT_EQ(registryState(), before) << "batch fork";
    EXPECT_EQ(sched.run(false), kThreads);

    sched.streamBegin(0);
    const auto streamBefore = registryState();
    for (std::uint64_t i = 0; i < kThreads; ++i) {
        const threads::Hint hints[2] = {
            static_cast<threads::Hint>(i * 4096),
            static_cast<threads::Hint>((i % 7) * 65536)};
        sched.fork(&noop, nullptr, nullptr, hints);
    }
    EXPECT_EQ(registryState(), streamBefore) << "stream fork";
    EXPECT_EQ(sched.streamEnd(), kThreads);

    // Count-once: every scheduler count reaches the registry as a
    // gauge derived from stats(), never as a mirror counter.
    for (const Registry::Row &row : Registry::global().rows()) {
        if (row.name.rfind("sched.", 0) == 0) {
            EXPECT_NE(row.kind, "counter") << row.name;
        }
    }
    obs::setMetricsEnabled(false);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, ForkLeavesRegistry,
    ::testing::Values(lsched::threads::PlacementKind::BlockHash,
                      lsched::threads::PlacementKind::RoundRobin,
                      lsched::threads::PlacementKind::Hierarchical,
                      lsched::threads::PlacementKind::Adaptive),
    [](const auto &info) {
        return std::string(lsched::threads::placementName(info.param));
    });

} // namespace
