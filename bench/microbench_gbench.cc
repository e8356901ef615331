/**
 * @file
 * google-benchmark micro-benchmarks of the primitives behind Table 1:
 * fork cost, run cost, hint hashing, cache-simulator access, and the
 * fully-associative shadow — the per-operation costs the paper's
 * overhead analysis rests on.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>

#include "cachesim/cache.hh"
#include "cachesim/fully_assoc.hh"
#include "cachesim/hierarchy.hh"
#include "machine/machine_config.hh"
#include "support/prng.hh"
#include "threads/scheduler.hh"
#include "workloads/matmul.hh"

namespace
{

using namespace lsched;

void
nullThread(void *, void *)
{
}

void
BM_ForkRunNullThreads(benchmark::State &state)
{
    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.blockBytes = 1 << 20;
    threads::LocalityScheduler sched(cfg);
    const auto batch = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < batch; ++i)
            sched.fork(&nullThread, nullptr, nullptr,
                       (i % 16) << 20, ((i / 16) % 16) << 20);
        sched.run(false);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_ForkRunNullThreads)->Arg(1 << 10)->Arg(1 << 16);

/**
 * Fork alone (each round of 65,536 forks is run untimed), over the two
 * hint patterns the perfbench workloads feed the batch fork:
 *  - 0: round-robin over a 16x16 grid of 256 bins, as in null_batch;
 *  - 1: runs of 128 same-bin forks cycling over a 9x9 grid of 81 bins,
 *       as matmul_paper's row-major loop over 8 KiB columns produces.
 */
void
BM_ForkOnly(benchmark::State &state)
{
    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.blockBytes = 1 << 20;
    threads::LocalityScheduler sched(cfg);
    const bool runs = state.range(0) != 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const std::uint64_t bin = runs ? (i / 128) % 81 : i % 256;
        const unsigned side = runs ? 9 : 16;
        sched.fork(&nullThread, nullptr, nullptr, (bin % side) << 20,
                   (bin / side) << 20);
        if (++i % (1 << 16) == 0) {
            state.PauseTiming();
            sched.run(false);
            state.ResumeTiming();
        }
    }
    sched.clear();
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
    state.SetLabel(runs ? "runs of 128 over 81 bins"
                        : "round-robin over 256 bins");
}
BENCHMARK(BM_ForkOnly)->Arg(0)->Arg(1);

void
BM_KeepReRun(benchmark::State &state)
{
    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.blockBytes = 1 << 20;
    threads::LocalityScheduler sched(cfg);
    const std::uint64_t batch = 1 << 14;
    for (std::uint64_t i = 0; i < batch; ++i)
        sched.fork(&nullThread, nullptr, nullptr, (i % 16) << 20, 0);
    for (auto _ : state)
        sched.run(true);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * batch));
    sched.clear();
}
BENCHMARK(BM_KeepReRun);

void
BM_CacheAccess(benchmark::State &state)
{
    cachesim::Cache cache(
        {"L2", 2 * 1024 * 1024, 128, 4},
        state.range(0) != 0 /* classification on/off */);
    Prng prng(1);
    std::vector<std::uint64_t> lines(1 << 16);
    for (auto &l : lines)
        l = prng.nextBelow(1 << 16);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.accessLine(lines[i++ & 0xffff], false));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1);

void
BM_HierarchyLoad(benchmark::State &state)
{
    cachesim::HierarchyConfig cfg;
    cfg.l1i = {"L1I", 16 * 1024, 32, 1};
    cfg.l1d = {"L1D", 16 * 1024, 32, 1};
    cfg.l2 = {"L2", 2 * 1024 * 1024, 128, 4};
    cachesim::Hierarchy h(cfg);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        h.load(addr, 8);
        addr += 8;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HierarchyLoad);

/** Doubles per column in the dot-product benchmarks (n = 256). */
constexpr std::uint64_t kDotN = 256;

/**
 * Column base addresses of dot product number @p dot in the threaded
 * matmul's order as sim_matmul simulates it: 2 KB columns of At and B,
 * dot products in 32 x 32-column tiles, the order a 64 KB block size
 * gives the bin tour.
 */
std::pair<std::uint64_t, std::uint64_t>
dotColumns(std::uint64_t dot)
{
    constexpr std::uint64_t kColBytes = kDotN * 8;
    constexpr std::uint64_t kTile = 32;
    constexpr std::uint64_t kAt = 0x10000000;
    constexpr std::uint64_t kB = 0x20000000;
    const std::uint64_t tile = dot / (kTile * kTile);
    const std::uint64_t in = dot % (kTile * kTile);
    const std::uint64_t i =
        (tile / (kDotN / kTile)) % (kDotN / kTile) * kTile + in / kTile;
    const std::uint64_t j = tile % (kDotN / kTile) * kTile + in % kTile;
    return {kAt + i * kColBytes, kB + j * kColBytes};
}

/**
 * The threaded matmul's reference stream as sim_matmul simulates it:
 * each dot product interleaves loads from two columns (dotColumns()),
 * on the R8000 scaled 16x with the L2's three-C classification on,
 * one load() per reference. One item is one load.
 */
void
BM_HierarchyDotPattern(benchmark::State &state)
{
    cachesim::Hierarchy h(
        machine::scaled(machine::powerIndigo2R8000(), 16).caches);
    std::uint64_t dot = 0;
    for (auto _ : state) {
        const auto [a, b] = dotColumns(dot++);
        for (std::uint64_t k = 0; k < kDotN * 8; k += 8) {
            h.load(a + k, 8);
            h.load(b + k, 8);
        }
    }
    benchmark::DoNotOptimize(h.l2Stats().misses);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 2 * kDotN));
}
BENCHMARK(BM_HierarchyDotPattern);

/**
 * BM_HierarchyDotPattern's loads taken as the dot kernel passes them
 * to a SimModel: one Hierarchy::loadPairs() call per 16 elements. One
 * item is one load, so the two benchmarks' times per item compare.
 */
void
BM_HierarchyDotPairs(benchmark::State &state)
{
    cachesim::Hierarchy h(
        machine::scaled(machine::powerIndigo2R8000(), 16).caches);
    std::uint64_t dot = 0;
    for (auto _ : state) {
        const auto [a, b] = dotColumns(dot++);
        for (std::uint64_t k = 0; k < kDotN * 8; k += 16 * 8)
            h.loadPairs(a + k, b + k, 8, 16);
    }
    benchmark::DoNotOptimize(h.l2Stats().misses);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 2 * kDotN));
}
BENCHMARK(BM_HierarchyDotPairs);

/**
 * One native 1,024-element dot product through the Threaded thread
 * body, on warm columns: the kernel behind matmul_paper, so a kernel
 * or code-alignment regression shows here without a full benchmark
 * run. One item is one dot product.
 */
void
BM_DotProductThread(benchmark::State &state)
{
    constexpr std::size_t kN = 1024;
    workloads::Matrix at(kN, 2), b(kN, 2), c(2, 2);
    workloads::randomize(at, 1);
    workloads::randomize(b, 2);
    workloads::NativeModel model;
    // The body reads column 1 of At and column 0 of B (arg2 packs
    // i = 1, j = 0) and takes the dot length from At's rows.
    workloads::DotProductCtx<workloads::NativeModel> ctx{&at, &b, &c,
                                                         &model};
    for (auto _ : state) {
        workloads::dotProductThread<workloads::NativeModel>(
            &ctx, reinterpret_cast<void *>(std::uintptr_t{1} << 32));
        benchmark::DoNotOptimize(c(1, 0));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DotProductThread);

void
BM_FullyAssocAccess(benchmark::State &state)
{
    cachesim::FullyAssocLru lru(16384);
    Prng prng(2);
    std::vector<std::uint64_t> lines(1 << 16);
    for (auto &l : lines)
        l = prng.nextBelow(32768);
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(lru.access(lines[i++ & 0xffff]));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullyAssocAccess);

} // namespace

BENCHMARK_MAIN();
