/**
 * @file
 * Ablation: where one native threaded matmul iteration spends its
 * time, with the fork phase on the caller or on the pool.
 *
 * Both sides run the phases of workloads::matmulThreadedPooled() on
 * the same matrices and scheduler settings (dims 2, block = L2 / 2),
 * through the same stripe functions, with a wall-clock reading
 * between phases. Only the worker count of the two forkParallel()
 * calls differs; the tour is runParallel(--workers) on both sides:
 *
 *  - caller: forkParallel(1, ...) runs every stripe's transpose and
 *    forks, then every restore stripe, in order on the caller;
 *  - pool: forkParallel(--workers, ...) runs them on the pool (what
 *    matmulThreaded runs natively with workers > 1).
 *
 * Each side reports every phase's median over --iters iterations
 * after two warm-ups; the sides alternate per iteration.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "machine/topology.hh"
#include "support/cli.hh"
#include "support/table.hh"
#include "support/timer.hh"
#include "threads/scheduler.hh"
#include "workloads/matmul.hh"

namespace
{

using namespace lsched;
using workloads::Matrix;
using workloads::NativeModel;

/** Seconds per phase of one iteration. */
struct Phases
{
    double allocAt = 0;
    double transposeFork = 0;
    double run = 0;
    double restore = 0;
    double free = 0;
};

/** One iteration whose forkParallel() calls use @p forkWorkers and
 *  whose tour uses @p workers. */
Phases
iteration(const Matrix &a, const Matrix &b, Matrix &c,
          threads::LocalityScheduler &sched, unsigned forkWorkers,
          unsigned workers)
{
    const std::size_t n = a.rows();
    const std::size_t stripes = workloads::transposeStripes(n);
    NativeModel model;
    Phases p;
    WallTimer t;
    auto at = std::make_unique<Matrix>(n, n);
    p.allocAt = t.seconds();
    t.reset();
    workloads::DotProductCtx<NativeModel> ctx{at.get(), &b, &c, &model};
    sched.forkParallel(forkWorkers, stripes,
                       [&](std::size_t k, threads::ForkShard &shard) {
                           workloads::forkDotProductStripe(a, *at, ctx, k,
                                                           shard);
                       });
    p.transposeFork = t.seconds();
    t.reset();
    sched.runParallel(workers, false);
    p.run = t.seconds();
    t.reset();
    auto dummy = std::make_unique<Matrix>(n, n);
    sched.forkParallel(forkWorkers, stripes,
                       [&](std::size_t k, threads::ForkShard &) {
                           workloads::transposeStripeNative(*at, *dummy, k);
                       });
    p.restore = t.seconds();
    t.reset();
    dummy.reset();
    at.reset();
    p.free = t.seconds();
    return p;
}

/** Per-phase samples of one side. */
struct Side
{
    std::vector<double> allocAt, transposeFork, run, restore, free,
        total;

    void
    add(const Phases &p)
    {
        allocAt.push_back(p.allocAt);
        transposeFork.push_back(p.transposeFork);
        run.push_back(p.run);
        restore.push_back(p.restore);
        free.push_back(p.free);
        total.push_back(p.allocAt + p.transposeFork + p.run + p.restore +
                        p.free);
    }
};

/** Median of @p v in milliseconds. */
std::string
ms(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    const double mid = v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
    return TextTable::num(mid * 1e3, 2);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("ablation_matmul_phases",
            "Ablation: native threaded matmul phases, fork phase on the "
            "caller vs on the pool");
    cli.addInt("n", 1024, "matrix order");
    cli.addInt("workers", 4, "pool workers (>= 2)");
    cli.addInt("iters", 20, "timed iterations per side");
    bench::addOutputOptions(cli);
    cli.parse(argc, argv);
    const auto n = static_cast<std::size_t>(cli.getInt("n"));
    const auto workers = static_cast<unsigned>(cli.getInt("workers"));
    const auto iters = static_cast<int>(cli.getInt("iters"));
    if (n < 1 || workers < 2 || iters < 1)
        LSCHED_FATAL("need --n >= 1, --workers >= 2, --iters >= 1");

    Matrix a(n, n), b(n, n), c(n, n);
    workloads::randomize(a, 1);
    workloads::randomize(b, 2);
    machine::CacheTopology topo;
    const bool found =
        machine::CacheTopology::fromSysfs("/sys/devices/system/cpu", &topo);
    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = found && topo.l2Bytes() ? topo.l2Bytes() : 2 << 20;
    cfg.blockBytes = cfg.cacheBytes / 2;
    threads::LocalityScheduler sched(cfg);

    std::printf("== Ablation: native threaded matmul phases ==\n");
    std::printf("n = %zu, %u workers, L2 %llu KB, block %llu KB, "
                "median of %d iterations after 2 warm-ups\n\n",
                n, workers,
                static_cast<unsigned long long>(cfg.cacheBytes / 1024),
                static_cast<unsigned long long>(cfg.blockBytes / 1024),
                iters);

    Side caller, pool;
    for (int i = -2; i < iters; ++i) {
        // Alternate which side runs first, so neither always follows
        // the other's frees.
        for (int turn = 0; turn < 2; ++turn) {
            const bool poolTurn = (turn == 0) == (i % 2 != 0);
            const Phases p =
                iteration(a, b, c, sched, poolTurn ? workers : 1, workers);
            if (i >= 0)
                (poolTurn ? pool : caller).add(p);
        }
    }

    TextTable table("", {"phase", "caller (ms)", "pool (ms)"});
    table.addRow({"allocate At", ms(caller.allocAt), ms(pool.allocAt)});
    table.addRow({"transpose + fork", ms(caller.transposeFork),
                  ms(pool.transposeFork)});
    table.addRow({"runParallel", ms(caller.run), ms(pool.run)});
    table.addRow({"allocate + transpose back", ms(caller.restore),
                  ms(pool.restore)});
    table.addRow({"free both", ms(caller.free), ms(pool.free)});
    table.addRow({"iteration", ms(caller.total), ms(pool.total)});
    bench::emitTable(cli, table);
    return 0;
}
