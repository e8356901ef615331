/**
 * @file
 * Cache-topology tests: the spec-string grammar, the sysfs golden
 * fixtures (SMT, heterogeneous clusters, missing L3, the degenerate
 * 1-CPU tree), the pin plan, domain mapping, the config derivation
 * rules (cache_bytes and super_bin_fan from the tree), the
 * LSCHED_TOPOLOGY env override, the set->get->set round-trip of every
 * config key, and exactly-once parallel execution under a forced
 * synthetic topology.
 *
 * Fixture trees live under tests/fixtures/topology/<case>/, each a
 * miniature /sys/devices/system/cpu with only the files fromSysfs
 * reads. The directory is baked in via LSCHED_TOPOLOGY_FIXTURES.
 */

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/topology.hh"
#include "support/error.hh"
#include "threads/c_api.hh"
#include "threads/config_keys.hh"
#include "threads/placement.hh"
#include "threads/scheduler.hh"

namespace
{

using lsched::machine::CacheTopology;
using lsched::machine::TopologySource;
using lsched::threads::LocalityScheduler;
using lsched::threads::SchedulerConfig;
using lsched::threads::TopologyPlacement;

std::string
fixture(const char *name)
{
    return std::string(LSCHED_TOPOLOGY_FIXTURES) + "/" + name;
}

TEST(TopologySpec, FullSpecRoundTrips)
{
    CacheTopology topo;
    std::string error;
    ASSERT_TRUE(CacheTopology::fromSpec("2x2x2x2/l2=512K/l3=8M", &topo,
                                        &error))
        << error;
    EXPECT_EQ(topo.source(), TopologySource::Spec);
    EXPECT_EQ(topo.cpus(), 16u);
    EXPECT_EQ(topo.packages(), 2u);
    EXPECT_EQ(topo.l3Clusters(), 4u);
    EXPECT_EQ(topo.l2Groups(), 8u);
    EXPECT_EQ(topo.smtPerCore(), 2u);
    EXPECT_EQ(topo.l2Bytes(), 512u * 1024);
    EXPECT_EQ(topo.l3Bytes(), 8u * 1024 * 1024);
    EXPECT_EQ(topo.groupsPerCluster(), 2u);

    // specString() reproduces the same tree when fed back in.
    CacheTopology again;
    ASSERT_TRUE(
        CacheTopology::fromSpec(topo.specString(), &again, &error))
        << topo.specString() << ": " << error;
    EXPECT_EQ(again.cpus(), topo.cpus());
    EXPECT_EQ(again.l2Groups(), topo.l2Groups());
    EXPECT_EQ(again.l3Clusters(), topo.l3Clusters());
    EXPECT_EQ(again.smtPerCore(), topo.smtPerCore());
    EXPECT_EQ(again.l2Bytes(), topo.l2Bytes());
    EXPECT_EQ(again.l3Bytes(), topo.l3Bytes());
}

TEST(TopologySpec, SizesDefaultWhenOmitted)
{
    CacheTopology topo;
    ASSERT_TRUE(CacheTopology::fromSpec("1x1x4x1", &topo, nullptr));
    EXPECT_EQ(topo.l2Bytes(), 256u * 1024);
    // Default L3 = l2 * groupsPerCluster * 4.
    EXPECT_EQ(topo.l3Bytes(), 256u * 1024 * 4 * 4);
    EXPECT_EQ(topo.groupsPerCluster(), 4u);
}

TEST(TopologySpec, MalformedSpecsAreRejected)
{
    CacheTopology topo;
    std::string error;
    EXPECT_FALSE(CacheTopology::fromSpec("", &topo, &error));
    EXPECT_FALSE(CacheTopology::fromSpec("1x2x2", &topo, &error));
    EXPECT_FALSE(CacheTopology::fromSpec("1x2x2x1x3", &topo, &error));
    EXPECT_FALSE(CacheTopology::fromSpec("0x1x1x1", &topo, &error));
    EXPECT_FALSE(CacheTopology::fromSpec("1x2x2x", &topo, &error));
    EXPECT_FALSE(CacheTopology::fromSpec("axbxcxd", &topo, &error));
    EXPECT_FALSE(
        CacheTopology::fromSpec("1x1x1x1/bogus=2", &topo, &error));
    EXPECT_FALSE(
        CacheTopology::fromSpec("1x1x1x1/l2=0", &topo, &error));
    // Over the CPU sanity cap.
    EXPECT_FALSE(
        CacheTopology::fromSpec("2x1x4096x2", &topo, &error));
    EXPECT_FALSE(error.empty());
}

TEST(TopologySpec, FlatAndDegenerateTrees)
{
    const CacheTopology one = CacheTopology::flat(1);
    EXPECT_EQ(one.cpus(), 1u);
    EXPECT_EQ(one.l2Groups(), 1u);
    EXPECT_TRUE(one.pinPlan().empty());
    // flat(0) still models one CPU.
    EXPECT_EQ(CacheTopology::flat(0).cpus(), 1u);

    CacheTopology single;
    ASSERT_TRUE(CacheTopology::fromSpec("1x1x1x1", &single, nullptr));
    EXPECT_EQ(single.cpus(), 1u);
    EXPECT_EQ(single.groupsPerCluster(), 1u);
    EXPECT_TRUE(single.pinPlan().empty());
}

TEST(TopologySpec, PinPlanInterleavesDomainsCoresFirst)
{
    CacheTopology topo;
    ASSERT_TRUE(CacheTopology::fromSpec("1x2x2x2", &topo, nullptr));
    ASSERT_EQ(topo.cpus(), 8u);
    ASSERT_EQ(topo.l2Groups(), 4u);
    const std::vector<unsigned> plan = topo.pinPlan();
    ASSERT_EQ(plan.size(), 8u);
    // plan[i] must live in L2 group i % groups — that is the
    // worker-id-to-domain contract the partitioner relies on.
    for (std::size_t i = 0; i < plan.size(); ++i)
        EXPECT_EQ(topo.l2GroupOf(plan[i]), i % topo.l2Groups()) << i;
    // Distinct physical cores come before their SMT siblings: with one
    // core per group, the first `groups` entries cover every core.
    EXPECT_EQ(plan[0], 0u);
    EXPECT_EQ(plan[1], 2u);
    EXPECT_EQ(plan[2], 4u);
    EXPECT_EQ(plan[3], 6u);
}

TEST(TopologyDomain, DomainOfMapsSuperBinsAndFlatBins)
{
    constexpr std::uint32_t none = lsched::threads::kNoSuperBin;
    EXPECT_EQ(TopologyPlacement::domainOf(5, 99, 4), 1u);
    EXPECT_EQ(TopologyPlacement::domainOf(none, 99, 4), 3u);
    EXPECT_EQ(TopologyPlacement::domainOf(7, 0, 0), 0u);
}

TEST(TopologySysfs, SmtFixtureSharesL2PerCore)
{
    CacheTopology topo;
    ASSERT_TRUE(CacheTopology::fromSysfs(fixture("smt"), &topo));
    EXPECT_EQ(topo.source(), TopologySource::Sysfs);
    EXPECT_EQ(topo.cpus(), 4u);
    EXPECT_EQ(topo.packages(), 1u);
    EXPECT_EQ(topo.l3Clusters(), 1u);
    EXPECT_EQ(topo.l2Groups(), 2u);
    EXPECT_EQ(topo.smtPerCore(), 2u);
    EXPECT_EQ(topo.l2Bytes(), 512u * 1024);
    EXPECT_EQ(topo.l3Bytes(), 8u * 1024 * 1024);
    EXPECT_EQ(topo.groupsPerCluster(), 2u);
    // SMT siblings share a group; the two cores are distinct groups.
    EXPECT_EQ(topo.l2GroupOf(0), topo.l2GroupOf(1));
    EXPECT_EQ(topo.l2GroupOf(2), topo.l2GroupOf(3));
    EXPECT_NE(topo.l2GroupOf(0), topo.l2GroupOf(2));
    // The pin plan alternates cores before SMT siblings.
    const std::vector<unsigned> plan = topo.pinPlan();
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_NE(topo.l2GroupOf(plan[0]), topo.l2GroupOf(plan[1]));
}

TEST(TopologySysfs, HeterogeneousClustersTakeTheMaxRatio)
{
    CacheTopology topo;
    ASSERT_TRUE(CacheTopology::fromSysfs(fixture("hetero"), &topo));
    EXPECT_EQ(topo.cpus(), 8u);
    EXPECT_EQ(topo.l3Clusters(), 2u);
    // Four private L2s in the big cluster, one shared L2 in the
    // little cluster.
    EXPECT_EQ(topo.l2Groups(), 5u);
    EXPECT_EQ(topo.groupsPerCluster(), 4u);
    EXPECT_EQ(topo.smtPerCore(), 1u);
    // Sizes report the largest level seen anywhere in the tree.
    EXPECT_EQ(topo.l2Bytes(), 2u * 1024 * 1024);
    EXPECT_EQ(topo.l3Bytes(), 16u * 1024 * 1024);
    EXPECT_EQ(topo.l2GroupOf(4), topo.l2GroupOf(7));
    EXPECT_NE(topo.l2GroupOf(0), topo.l2GroupOf(1));
}

TEST(TopologySysfs, MissingL3FallsBackToNumaNodes)
{
    CacheTopology topo;
    ASSERT_TRUE(CacheTopology::fromSysfs(fixture("no_l3"), &topo));
    EXPECT_EQ(topo.cpus(), 2u);
    EXPECT_EQ(topo.l2Groups(), 2u);
    EXPECT_EQ(topo.l3Bytes(), 0u);
    // node<N>/cpulist overrides the package, and with no L3 the
    // cluster falls back to one per package.
    EXPECT_EQ(topo.packages(), 2u);
    EXPECT_EQ(topo.l3Clusters(), 2u);
    EXPECT_EQ(topo.groupsPerCluster(), 1u);
}

TEST(TopologySysfs, SingleCpuTreeIsDegenerate)
{
    CacheTopology topo;
    ASSERT_TRUE(CacheTopology::fromSysfs(fixture("single"), &topo));
    EXPECT_EQ(topo.cpus(), 1u);
    EXPECT_EQ(topo.l2Groups(), 1u);
    EXPECT_EQ(topo.groupsPerCluster(), 1u);
    EXPECT_EQ(topo.l2Bytes(), 512u * 1024);
    EXPECT_TRUE(topo.pinPlan().empty());
}

TEST(TopologySysfs, MissingRootFails)
{
    CacheTopology topo;
    EXPECT_FALSE(
        CacheTopology::fromSysfs(fixture("does_not_exist"), &topo));
}

TEST(TopologyConfig, SpecDerivesCacheBytesAndFan)
{
    SchedulerConfig c;
    c.cacheBytes = 0;
    c.placement = lsched::threads::PlacementKind::Hierarchical;
    c.superBinFan = 0;
    c.topology = "1x2x2x1/l2=64K";
    LocalityScheduler sched(c);
    EXPECT_EQ(sched.config().cacheBytes, 64u * 1024);
    // Fan = L2 groups per L3 cluster.
    EXPECT_EQ(sched.config().superBinFan, 2u);
    const auto stats = sched.stats();
    EXPECT_TRUE(stats.topology.active);
    EXPECT_EQ(stats.topology.source, 2u);
    EXPECT_EQ(stats.topology.l2Groups, 4u);
    EXPECT_EQ(stats.topology.derivedFan, 2u);
    EXPECT_FALSE(stats.topology.summary.empty());
}

TEST(TopologyConfig, ExplicitKnobsOverrideTheTree)
{
    SchedulerConfig c;
    c.cacheBytes = 128 * 1024;
    c.placement = lsched::threads::PlacementKind::Hierarchical;
    c.superBinFan = 8;
    c.topology = "1x2x2x1/l2=64K";
    LocalityScheduler sched(c);
    EXPECT_EQ(sched.config().cacheBytes, 128u * 1024);
    EXPECT_EQ(sched.config().superBinFan, 8u);
}

TEST(TopologyConfig, FlatKeepsLegacyBehaviour)
{
    SchedulerConfig c;
    c.topology = "flat";
    LocalityScheduler sched(c);
    EXPECT_EQ(sched.topologyTree(), nullptr);
    EXPECT_FALSE(sched.stats().topology.active);
}

TEST(TopologyConfig, BadSpecThrowsConfigError)
{
    SchedulerConfig c;
    c.topology = "3x3";
    EXPECT_THROW(LocalityScheduler{c}, lsched::ConfigError);
}

TEST(TopologyConfig, EnvOverrideOnlyAppliesToAuto)
{
    ASSERT_EQ(::setenv("LSCHED_TOPOLOGY", "1x2x2x1/l2=64K", 1), 0);
    {
        SchedulerConfig c;
        c.topology = "auto";
        LocalityScheduler sched(c);
        ASSERT_NE(sched.topologyTree(), nullptr);
        EXPECT_EQ(sched.topologyTree()->cpus(), 4u);
        EXPECT_EQ(sched.topologyTree()->source(), TopologySource::Spec);
    }
    {
        // An explicit config value beats the env.
        SchedulerConfig c;
        c.topology = "flat";
        LocalityScheduler sched(c);
        EXPECT_EQ(sched.topologyTree(), nullptr);
    }
    // An invalid env spec falls back to discovery (or flat) without
    // throwing — the env must never take a working program down.
    ASSERT_EQ(::setenv("LSCHED_TOPOLOGY", "garbage", 1), 0);
    {
        SchedulerConfig c;
        c.topology = "auto";
        EXPECT_NO_THROW(LocalityScheduler{c});
    }
    ASSERT_EQ(::unsetenv("LSCHED_TOPOLOGY"), 0);
}

TEST(TopologyConfig, TopologyKeyValidatesAtApplyTime)
{
    SchedulerConfig c;
    std::string error;
    EXPECT_TRUE(lsched::threads::applyConfigKey(c, "topology", "flat",
                                                &error));
    EXPECT_EQ(c.topology, "flat");
    EXPECT_TRUE(lsched::threads::applyConfigKey(
        c, "topology", "2x1x2x1/l2=1M", &error));
    EXPECT_FALSE(lsched::threads::applyConfigKey(c, "topology",
                                                 "not-a-spec", &error));
    EXPECT_FALSE(error.empty());
    std::string value;
    EXPECT_TRUE(
        lsched::threads::configKeyValue(c, "topology", &value));
    EXPECT_EQ(value, "2x1x2x1/l2=1M");
}

TEST(TopologyConfig, EveryConfigKeySurvivesSetGetSet)
{
    // The full C-surface round-trip: read each key, feed the value
    // straight back through th_configure, and read it again — the
    // formatted value must reproduce itself for every key in the
    // table (th_config_get's contract).
    char buf[256];
    for (const std::string &key : lsched::threads::configKeys()) {
        const int len =
            th_config_get(key.c_str(), buf, sizeof(buf));
        ASSERT_GE(len, 0) << key;
        ASSERT_LT(static_cast<std::size_t>(len), sizeof(buf)) << key;
        const std::string first(buf);
        ASSERT_EQ(th_configure(key.c_str(), first.c_str()), 0)
            << key << "='" << first << "': " << th_last_error();
        ASSERT_GE(th_config_get(key.c_str(), buf, sizeof(buf)), 0)
            << key;
        EXPECT_EQ(std::string(buf), first) << key;
    }
}

namespace
{
std::atomic<int> g_runs[64];

void
countRun(void *arg1, void *)
{
    const std::size_t idx =
        reinterpret_cast<std::uintptr_t>(arg1) % 64;
    g_runs[idx].fetch_add(1, std::memory_order_relaxed);
}
} // namespace

TEST(TopologyParallel, ForcedSpecRunsEveryThreadExactlyOnce)
{
    SchedulerConfig c;
    c.dims = 1;
    c.cacheBytes = 0; // derived from the spec's L2
    c.blockBytes = 4096;
    c.placement = lsched::threads::PlacementKind::Hierarchical;
    c.superBinFan = 0; // derived: 2
    c.topology = "1x2x2x1/l2=64K";
    c.pinWorkers = true; // pin failures must degrade gracefully
    LocalityScheduler sched(c);

    static double slabs[64][512];
    constexpr int kThreads = 64;
    for (int i = 0; i < kThreads; ++i) {
        g_runs[i].store(0, std::memory_order_relaxed);
        sched.fork(countRun, reinterpret_cast<void *>(
                                 static_cast<std::uintptr_t>(i)),
                   nullptr, lsched::threads::hintOf(&slabs[i % 16]));
    }
    const std::uint64_t executed = sched.runParallel(4, false);
    EXPECT_EQ(executed, static_cast<std::uint64_t>(kThreads));
    for (int i = 0; i < kThreads; ++i)
        EXPECT_EQ(g_runs[i].load(std::memory_order_relaxed), 1) << i;

    const auto stats = sched.stats();
    // The tour partitioned over the forced tree's 4 L2 groups.
    EXPECT_EQ(stats.topology.domains, 4u);
    EXPECT_EQ(stats.topology.domainWorkers, 1u);
}

} // namespace
