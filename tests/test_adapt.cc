/**
 * @file
 * Tests for adaptive self-tuning placement (threads/adapt.hh): the
 * AdaptiveTuner state machine (PMU regime classification, bad-set
 * hysteresis, dwell-only probe/revert), the AdaptivePlacement wrapper
 * end-to-end through LocalityScheduler::pollAdaptivePlacement(), the
 * adapt.* config keys, the reconfigure-while-streaming guard, and the
 * th_stats C/Fortran ABI extension.
 *
 * Everything here must stay clean under LSCHED_SANITIZE=thread — no
 * death tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>

#include "obs/profile.hh"
#include "support/error.hh"
#include "threads/adapt.hh"
#include "threads/c_api.hh"
#include "threads/config_keys.hh"
#include "threads/scheduler.hh"

namespace
{

using namespace lsched;
using namespace lsched::threads;

AdaptTunerConfig
tunerConfig(unsigned epochs = 1, unsigned hold = 0)
{
    AdaptTunerConfig t;
    t.targetMiss = 0.05;
    t.highMiss = 0.10;
    t.epochs = epochs;
    t.hold = hold;
    t.minBlock = 4096;
    t.maxBlock = 1 << 20;
    t.minRefs = 100;
    t.dwellImprove = 0.05;
    return t;
}

/** A PMU epoch with the given miss rate over plenty of traffic. */
AdaptSample
pmuEpoch(double missRate, std::uint64_t refs = 100000)
{
    AdaptSample s;
    s.samples = 1;
    s.pmuSamples = 1;
    s.llcRefs = refs;
    s.llcMisses = static_cast<std::uint64_t>(
        static_cast<double>(refs) * missRate);
    s.dwellNs = 1000;
    s.threads = 1;
    return s;
}

/** A dwell-only epoch (no hardware counters). */
AdaptSample
dwellEpoch(std::uint64_t dwellNs, std::uint64_t threads = 1)
{
    AdaptSample s;
    s.samples = 1;
    s.dwellNs = dwellNs;
    s.threads = threads;
    return s;
}

// ---------------------------------------------------------------------
// AdaptiveTuner unit tests (profiler-free, fully deterministic).
// ---------------------------------------------------------------------

TEST(AdaptTuner, CapacityRegimeHalvesBlock)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 16, 0, 0});
    EXPECT_EQ(tuner.regime(), AdaptRegime::Warmup);
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5)));
    EXPECT_EQ(tuner.regime(), AdaptRegime::Capacity);
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
    EXPECT_EQ(tuner.shrinks(), 1u);
    EXPECT_EQ(tuner.retunes(), 1u);
}

TEST(AdaptTuner, FloorRegimeGrowsBlock)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 14, 0, 0});
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.01)));
    EXPECT_EQ(tuner.regime(), AdaptRegime::Floor);
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
    EXPECT_EQ(tuner.grows(), 1u);
}

TEST(AdaptTuner, NeutralRegimeHolds)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 16, 0, 0});
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(tuner.observe(pmuEpoch(0.07)));
    EXPECT_EQ(tuner.regime(), AdaptRegime::Neutral);
    EXPECT_EQ(tuner.params().blockBytes, 1u << 16);
    EXPECT_EQ(tuner.retunes(), 0u);
}

TEST(AdaptTuner, EpochsThresholdDelaysReaction)
{
    AdaptiveTuner tuner(tunerConfig(/*epochs=*/3),
                        PlacementKind::BlockHash, {1 << 16, 0, 0});
    EXPECT_FALSE(tuner.observe(pmuEpoch(0.5)));
    EXPECT_FALSE(tuner.observe(pmuEpoch(0.5)));
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
}

TEST(AdaptTuner, LowTrafficEpochsAreIgnored)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 16, 0, 0});
    // Miss rate is terrible but refs are below adapt.min_refs.
    EXPECT_FALSE(tuner.observe(pmuEpoch(0.9, /*refs=*/10)));
    EXPECT_EQ(tuner.regime(), AdaptRegime::Warmup);
    EXPECT_EQ(tuner.params().blockBytes, 1u << 16);
    EXPECT_EQ(tuner.observations(), 1u);
}

TEST(AdaptTuner, HoldSwallowsEpochsAfterRetune)
{
    AdaptiveTuner tuner(tunerConfig(/*epochs=*/1, /*hold=*/2),
                        PlacementKind::BlockHash, {1 << 16, 0, 0});
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5))); // -> 32 KiB, hold 2
    EXPECT_FALSE(tuner.observe(pmuEpoch(0.5))); // swallowed
    EXPECT_FALSE(tuner.observe(pmuEpoch(0.5))); // swallowed
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5))); // reacts again
    EXPECT_EQ(tuner.params().blockBytes, 1u << 14);
}

TEST(AdaptTuner, BadSetPreventsOscillation)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 16, 0, 0});
    // 64 KiB overflows: shrink to 32 KiB and mark 64 KiB bad.
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
    // Now the workload sits at the compulsory floor for many epochs;
    // growing back into the known-bad 64 KiB must never happen.
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(tuner.observe(pmuEpoch(0.01)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
    EXPECT_EQ(tuner.retunes(), 1u);
    EXPECT_EQ(tuner.grows(), 0u);
}

TEST(AdaptTuner, ShrinkStopsAtMinBlock)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {4096, 0, 0});
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(tuner.observe(pmuEpoch(0.9)));
    EXPECT_EQ(tuner.params().blockBytes, 4096u);
}

TEST(AdaptTuner, GrowStopsAtMaxBlock)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 20, 0, 0});
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(tuner.observe(pmuEpoch(0.01)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 20);
}

TEST(AdaptTuner, RoundRobinBaseDoublesBins)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::RoundRobin,
                        {0, 0, 64});
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5)));
    EXPECT_EQ(tuner.params().roundRobinBins, 128u);
    // Floor epochs would halve the bins, but 64 is marked bad.
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(tuner.observe(pmuEpoch(0.01)));
    EXPECT_EQ(tuner.params().roundRobinBins, 128u);
}

TEST(AdaptTuner, HierarchicalFanPreservesSuperBinSpan)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::Hierarchical,
                        {1 << 16, 2, 0});
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5)));
    // Block halved, fan doubled: the super-bin byte span is invariant.
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
    EXPECT_EQ(tuner.params().superBinFan, 4u);
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 14);
    EXPECT_EQ(tuner.params().superBinFan, 8u);
}

TEST(AdaptTuner, DwellProbeKeptWhenItImproves)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 16, 0, 0});
    // One stable dwell epoch, then the tuner probes a shrink.
    EXPECT_TRUE(tuner.observe(dwellEpoch(1000)));
    EXPECT_EQ(tuner.regime(), AdaptRegime::Probing);
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
    // The probe epoch runs 20% faster: kept.
    EXPECT_FALSE(tuner.observe(dwellEpoch(800)));
    EXPECT_EQ(tuner.regime(), AdaptRegime::Neutral);
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
    EXPECT_EQ(tuner.reverts(), 0u);
}

TEST(AdaptTuner, DwellProbeRevertedWhenItDoesNot)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 16, 0, 0});
    EXPECT_TRUE(tuner.observe(dwellEpoch(1000)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 15);
    // The probe epoch is slower: roll back and mark 32 KiB bad.
    EXPECT_TRUE(tuner.observe(dwellEpoch(2000)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 16);
    EXPECT_EQ(tuner.reverts(), 1u);
    // Later stable windows must never probe the bad size again.
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(tuner.observe(dwellEpoch(1000)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 16);
    EXPECT_EQ(tuner.reverts(), 1u);
}

TEST(AdaptTuner, PmuArrivalFinalizesDwellProbe)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 16, 0, 0});
    EXPECT_TRUE(tuner.observe(dwellEpoch(1000))); // probe to 32 KiB
    // Counters come online mid-probe: the probed size stays and miss
    // rates take over (here: capacity, shrinking further).
    EXPECT_TRUE(tuner.observe(pmuEpoch(0.5)));
    EXPECT_EQ(tuner.params().blockBytes, 1u << 14);
}

TEST(AdaptTuner, AllZeroDeltaIsNotAnObservation)
{
    AdaptiveTuner tuner(tunerConfig(), PlacementKind::BlockHash,
                        {1 << 16, 0, 0});
    EXPECT_FALSE(tuner.observe(AdaptSample{}));
    EXPECT_EQ(tuner.observations(), 0u);
}

TEST(AdaptTuner, RegimeNames)
{
    EXPECT_STREQ(adaptRegimeName(AdaptRegime::Warmup), "warmup");
    EXPECT_STREQ(adaptRegimeName(AdaptRegime::Floor), "floor");
    EXPECT_STREQ(adaptRegimeName(AdaptRegime::Neutral), "neutral");
    EXPECT_STREQ(adaptRegimeName(AdaptRegime::Capacity), "capacity");
    EXPECT_STREQ(adaptRegimeName(AdaptRegime::Probing), "probing");
    EXPECT_STREQ(placementName(PlacementKind::Adaptive), "adaptive");
}

// ---------------------------------------------------------------------
// AdaptivePlacement + scheduler integration.
// ---------------------------------------------------------------------

/** Reset the global profiler around every integration test. */
class AdaptSchedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::Profiler::global().setEnabled(false);
        obs::Profiler::global().reset();
    }

    void
    TearDown() override
    {
        obs::Profiler::global().setEnabled(false);
        obs::Profiler::global().forcePmuUnavailable(false);
        obs::Profiler::global().reset();
    }

    static SchedulerConfig
    adaptiveConfig()
    {
        SchedulerConfig cfg;
        cfg.dims = 1;
        cfg.cacheBytes = 1 << 20;
        cfg.blockBytes = 1 << 16;
        cfg.placement = PlacementKind::Adaptive;
        cfg.adaptBase = PlacementKind::BlockHash;
        cfg.adaptEpochs = 1;
        cfg.adaptHold = 0;
        cfg.adaptMinRefs = 100;
        cfg.adaptMinBlock = 4096;
        return cfg;
    }
};

TEST_F(AdaptSchedTest, SnapshotInactiveForNonAdaptivePlacements)
{
    SchedulerConfig cfg;
    cfg.dims = 1;
    LocalityScheduler sched(cfg);
    const SchedulerStats s = sched.stats();
    EXPECT_FALSE(s.adapt.active);
    EXPECT_EQ(s.adapt.retunes, 0u);
    EXPECT_FALSE(sched.pollAdaptivePlacement());
}

TEST_F(AdaptSchedTest, SnapshotReportsInitialParams)
{
    LocalityScheduler sched(adaptiveConfig());
    const SchedulerStats s = sched.stats();
    EXPECT_TRUE(s.adapt.active);
    EXPECT_EQ(s.adapt.blockBytes, 1u << 16);
    EXPECT_EQ(s.adapt.regime, AdaptRegime::Warmup);
}

TEST_F(AdaptSchedTest, AdaptBaseAdaptiveIsRejected)
{
    SchedulerConfig cfg = adaptiveConfig();
    cfg.adaptBase = PlacementKind::Adaptive;
    EXPECT_THROW(LocalityScheduler sched(cfg), ConfigError);
}

TEST_F(AdaptSchedTest, InvertedMissThresholdsAreRejected)
{
    SchedulerConfig cfg = adaptiveConfig();
    cfg.adaptTargetMiss = 0.2;
    cfg.adaptHighMiss = 0.1;
    EXPECT_THROW(LocalityScheduler sched(cfg), ConfigError);
}

TEST_F(AdaptSchedTest, PollRetunesFromSyntheticPmuSamples)
{
    if (!obs::kTraceCompiled)
        GTEST_SKIP() << "profiler compiled out";
    LocalityScheduler sched(adaptiveConfig());
    ASSERT_TRUE(obs::Profiler::global().setEnabled(true));
    // One capacity-dominated epoch: 50% miss rate over real traffic.
    obs::Profiler::global().recordSample(
        /*binId=*/1, obs::kProfileNoSuperBin, /*worker=*/0,
        /*threads=*/4, /*dwellNs=*/1000, /*instructions=*/0,
        /*cycles=*/0, /*llcRefs=*/100000, /*llcMisses=*/50000,
        /*pmuValid=*/true);
    EXPECT_TRUE(sched.pollAdaptivePlacement());
    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.adapt.blockBytes, 1u << 15);
    EXPECT_EQ(s.adapt.regime, AdaptRegime::Capacity);
    EXPECT_EQ(s.adapt.retunes, 1u);
    EXPECT_EQ(s.adapt.shrinks, 1u);
    // Nothing new since: the poll is idempotent.
    EXPECT_FALSE(sched.pollAdaptivePlacement());
}

TEST_F(AdaptSchedTest, ForkAfterRetuneUsesTheNewBlockSize)
{
    if (!obs::kTraceCompiled)
        GTEST_SKIP() << "profiler compiled out";
    LocalityScheduler sched(adaptiveConfig());
    ASSERT_TRUE(obs::Profiler::global().setEnabled(true));
    obs::Profiler::global().recordSample(
        /*binId=*/1, obs::kProfileNoSuperBin, /*worker=*/0,
        /*threads=*/4, /*dwellNs=*/1000, /*instructions=*/0,
        /*cycles=*/0, /*llcRefs=*/100000, /*llcMisses=*/50000,
        /*pmuValid=*/true);
    ASSERT_TRUE(sched.pollAdaptivePlacement());
    ASSERT_EQ(sched.stats().adapt.blockBytes, 1u << 15);

    // 0 and 40000 shared a 64 KiB block; under 32 KiB they must not.
    auto noop = [](void *, void *) {};
    sched.fork(noop, nullptr, nullptr, 0);
    sched.fork(noop, nullptr, nullptr, 40000);
    EXPECT_EQ(sched.binCount(), 2u);
    EXPECT_EQ(sched.binOccupancy(), (std::vector<std::uint64_t>{1, 1}));
    const Hint far = 40000;
    EXPECT_EQ(sched.coordsFor(std::span<const Hint>(&far, 1))[0], 1u);
    EXPECT_EQ(sched.run(), 2u);
}

TEST_F(AdaptSchedTest, DwellOnlyDegradationStillTunes)
{
    if (!obs::kTraceCompiled)
        GTEST_SKIP() << "profiler compiled out";
    LocalityScheduler sched(adaptiveConfig());
    // Force the degraded path: PMU reads unavailable, as in an
    // unprivileged container.
    obs::Profiler::global().forcePmuUnavailable(true);
    ASSERT_TRUE(obs::Profiler::global().setEnabled(true));
    obs::Profiler::global().recordSample(
        1, obs::kProfileNoSuperBin, 0, /*threads=*/4,
        /*dwellNs=*/100000, 0, 0, /*llcRefs=*/0, /*llcMisses=*/0,
        /*pmuValid=*/false);
    // The dwell path probes a shrink off the stable window.
    EXPECT_TRUE(sched.pollAdaptivePlacement());
    SchedulerStats s = sched.stats();
    EXPECT_EQ(s.adapt.regime, AdaptRegime::Probing);
    EXPECT_EQ(s.adapt.blockBytes, 1u << 15);
    // The probe epoch is slower: the tuner must roll back.
    obs::Profiler::global().recordSample(
        1, obs::kProfileNoSuperBin, 0, 4, /*dwellNs=*/400000, 0, 0, 0,
        0, false);
    EXPECT_TRUE(sched.pollAdaptivePlacement());
    s = sched.stats();
    EXPECT_EQ(s.adapt.blockBytes, 1u << 16);
    EXPECT_EQ(s.adapt.reverts, 1u);
}

TEST_F(AdaptSchedTest, RetuneKeepsExactlyOnceAcrossTours)
{
    if (!obs::kTraceCompiled)
        GTEST_SKIP() << "profiler compiled out";
    LocalityScheduler sched(adaptiveConfig());
    static std::atomic<std::uint64_t> ran{0};
    ran.store(0);
    const auto tour = [&sched] {
        for (std::uint64_t i = 0; i < 64; ++i) {
            sched.fork(
                [](void *, void *) {
                    ran.fetch_add(1, std::memory_order_relaxed);
                },
                nullptr, nullptr,
                static_cast<Hint>(i) * (1u << 12));
        }
        return sched.run();
    };
    std::uint64_t executed = tour();
    // Feed a capacity epoch between tours and retune. The profiler
    // is enabled only around the synthetic sample so the tours' own
    // live dwell samples cannot trigger extra dwell-path probes.
    ASSERT_TRUE(obs::Profiler::global().setEnabled(true));
    obs::Profiler::global().recordSample(
        1, obs::kProfileNoSuperBin, 0, 4, 1000, 0, 0, 100000, 50000,
        true);
    EXPECT_TRUE(sched.pollAdaptivePlacement());
    obs::Profiler::global().setEnabled(false);
    executed += tour();
    // Every forked thread ran exactly once across the retune.
    EXPECT_EQ(executed, 128u);
    EXPECT_EQ(ran.load(), 128u);
    EXPECT_EQ(sched.stats().adapt.blockBytes, 1u << 15);
}

TEST_F(AdaptSchedTest, StreamingWithAdaptivePlacementDrains)
{
    SchedulerConfig cfg = adaptiveConfig();
    cfg.backend = BackendKind::Pooled;
    cfg.streamSealThreshold = 8;
    LocalityScheduler sched(cfg);
    static std::atomic<std::uint64_t> ran{0};
    ran.store(0);
    const std::uint64_t executed = sched.runStream(
        /*workers=*/2, /*producers=*/2, [&](unsigned) {
            for (std::uint64_t i = 0; i < 200; ++i) {
                sched.fork(
                    [](void *, void *) {
                        ran.fetch_add(1,
                                      std::memory_order_relaxed);
                    },
                    nullptr, nullptr,
                    static_cast<Hint>(i) * (1u << 12));
            }
        });
    EXPECT_EQ(executed, 400u);
    EXPECT_EQ(ran.load(), 400u);
}

TEST_F(AdaptSchedTest, NoSignalSourceWarnsOnceAndCountsEveryTour)
{
    // profile.enable is off (SetUp): the tuner has nothing to observe.
    // That must not pass silently: one warning per scheduler, and every
    // skipped retune boundary counted.
    constexpr int kTours = 10;
    testing::internal::CaptureStderr();
    LocalityScheduler sched(adaptiveConfig());
    static std::atomic<std::uint64_t> ran{0};
    ran.store(0);
    for (int tour = 0; tour < kTours; ++tour) {
        for (std::uint64_t i = 0; i < 64; ++i) {
            sched.fork(
                [](void *, void *) {
                    ran.fetch_add(1, std::memory_order_relaxed);
                },
                nullptr, nullptr, static_cast<Hint>(i) * (1u << 12));
        }
        sched.run();
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ran.load(), 64u * kTours);

    const std::string needle = "placement=adaptive has no signal source";
    std::size_t warnings = 0;
    for (std::size_t at = err.find(needle); at != std::string::npos;
         at = err.find(needle, at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;

    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.adapt.observations, 0u);
    EXPECT_EQ(s.adapt.retunes, 0u);
    EXPECT_GE(s.adapt.noSignal, static_cast<std::uint64_t>(kTours));
}

TEST_F(AdaptSchedTest, EnabledProfilerIsASignalSource)
{
    if (!obs::kTraceCompiled)
        GTEST_SKIP() << "profiler compiled out";
    ASSERT_TRUE(obs::Profiler::global().setEnabled(true));
    LocalityScheduler sched(adaptiveConfig());
    EXPECT_FALSE(sched.pollAdaptivePlacement());
    EXPECT_EQ(sched.stats().adapt.noSignal, 0u);
}

// ---------------------------------------------------------------------
// Reconfigure safety: placement geometry is frozen while streaming.
// ---------------------------------------------------------------------

TEST_F(AdaptSchedTest, ReconfigureWhileStreamingThrows)
{
    SchedulerConfig cfg;
    cfg.dims = 1;
    LocalityScheduler sched(cfg);
    sched.streamBegin(1);
    SchedulerConfig next = cfg;
    next.blockBytes = 1 << 14;
    try {
        sched.configure(next);
        FAIL() << "configure() mid-stream must throw";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("stream"),
                  std::string::npos)
            << "error should name the open stream: " << e.what();
    }
    sched.streamEnd();
    // After the stream closes the same reconfigure succeeds.
    sched.configure(next);
    EXPECT_EQ(sched.config().blockBytes, 1u << 14);
}

// ---------------------------------------------------------------------
// Config keys + C ABI.
// ---------------------------------------------------------------------

TEST(AdaptConfigKeys, RoundTripEveryAdaptKey)
{
    SchedulerConfig config;
    const struct
    {
        const char *key;
        const char *value;
    } cases[] = {
        {"adapt.base", "hierarchical"},
        {"adapt.target_miss", "0.03"},
        {"adapt.high_miss", "0.2"},
        {"adapt.converge", "1.25"},
        {"adapt.epochs", "3"},
        {"adapt.hold", "6"},
        {"adapt.min_block", "8192"},
        {"adapt.max_block", "262144"},
        {"adapt.min_refs", "2048"},
        {"adapt.dwell_improve", "0.1"},
    };
    for (const auto &c : cases) {
        std::string error;
        ASSERT_TRUE(applyConfigKey(config, c.key, c.value, &error))
            << c.key << ": " << error;
        std::string out;
        ASSERT_TRUE(configKeyValue(config, c.key, &out)) << c.key;
        EXPECT_EQ(out, c.value) << c.key;
        // Re-applying the read-back value must be lossless.
        ASSERT_TRUE(applyConfigKey(config, c.key, out, &error))
            << c.key << ": " << error;
    }
    EXPECT_EQ(config.adaptBase, PlacementKind::Hierarchical);
    EXPECT_DOUBLE_EQ(config.adaptTargetMiss, 0.03);
    EXPECT_EQ(config.adaptEpochs, 3u);
}

TEST(AdaptConfigKeys, EveryAdaptKeyIsEnumerated)
{
    const std::vector<std::string> &keys = configKeys();
    unsigned adapt = 0;
    SchedulerConfig config;
    for (const std::string &key : keys) {
        if (key.rfind("adapt.", 0) == 0)
            ++adapt;
        // Every enumerated key must be readable.
        std::string out;
        EXPECT_TRUE(configKeyValue(config, key, &out)) << key;
    }
    EXPECT_EQ(adapt, 10u);
}

TEST(AdaptConfigKeys, RejectsBadValues)
{
    SchedulerConfig config;
    std::string error;
    // adapt.base may not itself be adaptive.
    EXPECT_FALSE(
        applyConfigKey(config, "adapt.base", "adaptive", &error));
    EXPECT_FALSE(
        applyConfigKey(config, "adapt.target_miss", "1.5", &error));
    EXPECT_FALSE(
        applyConfigKey(config, "adapt.target_miss", "-0.1", &error));
    EXPECT_FALSE(
        applyConfigKey(config, "adapt.converge", "0.5", &error));
    EXPECT_FALSE(applyConfigKey(config, "adapt.epochs", "0", &error));
    EXPECT_FALSE(
        applyConfigKey(config, "adapt.min_block", "0", &error));
    EXPECT_FALSE(
        applyConfigKey(config, "adapt.dwell_improve", "nope", &error));
    // Placement accepts the new name.
    EXPECT_TRUE(
        applyConfigKey(config, "placement", "adaptive", &error));
    EXPECT_EQ(config.placement, PlacementKind::Adaptive);
}

TEST(AdaptCApi, ConfigureAndStatsRoundTrip)
{
    ASSERT_EQ(th_configure("placement", "adaptive"), 0);
    ASSERT_EQ(th_configure("adapt.base", "blockhash"), 0);
    ASSERT_EQ(th_configure("adapt.target_miss", "0.04"), 0);

    char buf[64];
    ASSERT_GT(th_config_get("placement", buf, sizeof(buf)), 0);
    EXPECT_STREQ(buf, "adaptive");
    ASSERT_GT(th_config_get("adapt.target_miss", buf, sizeof(buf)), 0);
    EXPECT_STREQ(buf, "0.04");
    ASSERT_GT(th_config_get("adapt.base", buf, sizeof(buf)), 0);
    EXPECT_STREQ(buf, "blockhash");

    const th_stats_t s = th_stats();
    EXPECT_EQ(s.placement,
              static_cast<int>(PlacementKind::Adaptive));
    EXPECT_GT(s.adapt_block_bytes, 0ull);
    EXPECT_EQ(s.adapt_retunes, 0ull);
    EXPECT_EQ(s.adapt_regime, 0); // warmup

    // adapt.base=adaptive must be rejected at the C boundary too.
    EXPECT_EQ(th_configure("adapt.base", "adaptive"), -1);

    // Mid-stream reconfiguration is refused with an explanation.
    th_stream_begin(1);
    EXPECT_EQ(th_configure("block_bytes", "16384"), -1);
    const char *err = th_last_error();
    ASSERT_NE(err, nullptr);
    EXPECT_NE(std::string(err).find("stream"), std::string::npos);
    EXPECT_GE(th_stream_end(), 0);

    ASSERT_EQ(th_configure("placement", "blockhash"), 0);
}

TEST(AdaptCApi, FortranPlacementSelectorKnowsAdaptive)
{
    const int adaptive = 3;
    th_set_placement_(&adaptive);
    const th_stats_t s = th_stats();
    EXPECT_EQ(s.placement, 3);
    const int bad = 4;
    th_set_placement_(&bad); // out of range: recorded, not applied
    EXPECT_EQ(th_stats().placement, 3);
    const int blockhash = 0;
    th_set_placement_(&blockhash);
    EXPECT_EQ(th_stats().placement, 0);
}

} // namespace
