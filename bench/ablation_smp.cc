/**
 * @file
 * Ablation C: the SMP extension (paper Section 7 future work), now
 * benchmarking the persistent work-stealing pool itself.
 *
 * Workload: a deliberately skewed synthetic tour — bin b carries
 * 1 + skew*(b % 4) threads, each doing a fixed FMA loop over
 * bin-local data — so the occupancy-weighted partition and tail
 * stealing both matter. For every worker count the bench reports,
 * side by side:
 *
 *   recorded cold s/tour — the recorded cold-spawn baseline: per-tour
 *                  time of the retired spawn-per-tour backend (a
 *                  throwaway pool per tour, spawn + join fresh OS
 *                  threads every run), kept as numbers since that
 *                  backend no longer exists (see kColdSpawnBaseline);
 *   warm setup   — the first tour on the persistent pool (includes
 *                  spawning the workers once);
 *   warm s/tour  — subsequent tours on the parked pool;
 *   speedup      — recorded cold / warm per-tour time, only at the
 *                  default arguments the baseline was recorded at;
 *   steals       — bins claimed across segments (warm run).
 *
 * Pool setup is deliberately separated from tour time: setup is paid
 * once per scheduler, tours are paid per run() — conflating them is
 * exactly the mistake the persistent pool fixes.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.hh"
#include "support/cli.hh"
#include "support/table.hh"
#include "support/timer.hh"
#include "threads/scheduler.hh"

namespace
{

/**
 * Recorded cold-spawn baseline, in seconds per tour: the retired
 * spawn-per-tour backend at this bench's default arguments (32 bins,
 * skew 7, 50 FMAs per thread, 50 tours), median of 5 runs on a 4-CPU
 * Intel Xeon host (per-run µs — 1 worker: 63 61 62 57 67; 2 workers:
 * 390 131 122 119 117; 4 workers: 202 178 179 168 230). One worker
 * never built a pool, so its entry is the serial tour.
 */
constexpr struct
{
    unsigned workers;
    double perTour;
} kColdSpawnBaseline[] = {{1, 62e-6}, {2, 122e-6}, {4, 179e-6}};

constexpr int kDefaultBins = 32;
constexpr int kDefaultSkew = 7;
constexpr int kDefaultWork = 50;

/** Recorded cold s/tour for @p workers, or 0 when none applies. */
double
recordedColdPerTour(unsigned workers, bool defaultArgs)
{
    if (!defaultArgs)
        return 0.0;
    for (const auto &row : kColdSpawnBaseline) {
        if (row.workers == workers)
            return row.perTour;
    }
    return 0.0;
}

/** Bin-local FMA workload: thread i of a bin chews on its bin's lane. */
struct Workload
{
    std::vector<double> lanes; // one cache-line-ish lane per bin
    std::uint64_t iters = 0;

    static void
    chew(void *self, void *tag)
    {
        auto *w = static_cast<Workload *>(self);
        const auto bin = reinterpret_cast<std::uintptr_t>(tag);
        double x = w->lanes[bin * 8];
        for (std::uint64_t i = 0; i < w->iters; ++i)
            x = x * 1.0000001 + 0.03125;
        w->lanes[bin * 8] = x;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace lsched;

    Cli cli("ablation_smp",
            "Ablation: persistent pool vs per-tour thread spawn");
    cli.addInt("bins", kDefaultBins, "bins in the tour");
    cli.addInt("skew", kDefaultSkew, "bin b gets 1 + skew*(b%4) threads");
    cli.addInt("work", kDefaultWork, "FMA iterations per thread");
    cli.addInt("tours", 50, "measured tours per configuration");
    cli.addInt("max-workers", 0,
               "max workers (0 = max(4, hardware))");
    cli.addString("json", "", "also write the table as JSON here");
    cli.parse(argc, argv);

    const auto bins = static_cast<std::size_t>(cli.getInt("bins"));
    const auto skew = static_cast<std::uint64_t>(cli.getInt("skew"));
    const auto work = static_cast<std::uint64_t>(cli.getInt("work"));
    const int tours = static_cast<int>(cli.getInt("tours"));
    unsigned max_workers =
        static_cast<unsigned>(cli.getInt("max-workers"));
    if (max_workers == 0)
        max_workers =
            std::max(4u, std::thread::hardware_concurrency());
    const bool defaultArgs = cli.getInt("bins") == kDefaultBins &&
                             cli.getInt("skew") == kDefaultSkew &&
                             cli.getInt("work") == kDefaultWork;

    std::printf("== Ablation C: SMP worker pool ==\n");
    std::printf("skewed tour: %zu bins, 1+%llu*(b%%4) threads each, "
                "%llu FMAs per thread, %d tours\n\n",
                bins, static_cast<unsigned long long>(skew),
                static_cast<unsigned long long>(work), tours);

    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = 2 * 1024 * 1024;
    cfg.blockBytes = 1 << 16;

    Workload wl;
    wl.lanes.assign(bins * 8, 1.0);
    wl.iters = work;

    const auto forkAll = [&](threads::LocalityScheduler &s) {
        for (std::size_t b = 0; b < bins; ++b) {
            const std::uint64_t count = 1 + skew * (b % 4);
            for (std::uint64_t i = 0; i < count; ++i)
                s.fork(&Workload::chew, &wl,
                       reinterpret_cast<void *>(b),
                       static_cast<threads::Hint>(b) *
                           cfg.blockBytes * 2,
                       0);
        }
    };

    TextTable table("", {"workers", "recorded cold s/tour",
                         "warm setup s", "warm s/tour", "speedup",
                         "steals"});
    harness::JsonReport report;

    for (unsigned w = 1; w <= max_workers; w *= 2) {
        // One persistent pool; its first tour pays the spawn.
        threads::LocalityScheduler warm(cfg);
        forkAll(warm);
        WallTimer setupTimer;
        warm.runParallel(w, /*keep=*/true);
        const double setup = setupTimer.seconds();
        WallTimer warmTimer;
        for (int t = 0; t < tours; ++t)
            warm.runParallel(w, /*keep=*/true);
        const double warmPerTour = warmTimer.seconds() / tours;

        const double coldPerTour = recordedColdPerTour(w, defaultArgs);
        if (coldPerTour > 0.0) {
            report.addValue("baseline.cold_spawn.s_per_tour.w" +
                                std::to_string(w),
                            coldPerTour);
        }
        table.addRow(
            {TextTable::count(w),
             coldPerTour > 0.0 ? TextTable::num(coldPerTour, 6) : "-",
             TextTable::num(setup, 6), TextTable::num(warmPerTour, 6),
             coldPerTour > 0.0
                 ? TextTable::num(coldPerTour / warmPerTour, 2) + "x"
                 : "-",
             TextTable::count(warm.workerPoolStats().steals)});
        std::printf("  %u workers done\n", w);
    }

    std::printf("\n%s\n", table.toText().c_str());
    std::printf("recorded cold-spawn baseline: %s\n",
                defaultArgs ? "median of 5 runs of the retired "
                              "backend at these arguments (see "
                              "kColdSpawnBaseline)"
                            : "recorded at the default --bins/--skew/"
                              "--work only; not comparable here");
    std::printf("expected: warm s/tour beats the recorded cold s/tour "
                "once workers > 1 — repeat tours on the parked pool "
                "pay no thread creation; setup is a one-time cost\n");

    const std::string jsonPath = cli.getString("json");
    if (!jsonPath.empty()) {
        report.addTable(table);
        report.includeMetrics();
        if (!report.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("JSON written to %s\n", jsonPath.c_str());
    }
    return 0;
}
