/**
 * @file
 * Admission-scaling ablation for the streaming intake: the same total
 * fork count pushed through a streaming session by 1, 2, 4, ...
 * concurrent producers, with deliberately tiny thread bodies so wall
 * time is dominated by the admission path itself (the producer's own
 * bin table and group append, cross-producer seals, the ticket gate)
 * rather than by user work.
 *
 * Under the old lock-striped intake every producer serialized on its
 * shard mutex, so producer scaling flattened immediately; with one
 * table per producer the target is the producer sweep staying near
 * linear (efficiency >= 0.70). The target applies to every point whose
 * producers plus drain workers fit on the host's CPUs; points past
 * that ceiling time-slice, and the report says so instead of
 * checking them.
 *
 * While measuring, producer p is pinned to CacheTopology::pinPlan()[p]
 * — one producer per L2 domain, the way a ThreadPinner hands out
 * processors — so the sweep measures admission, not OS placement; the
 * drain worker stays unpinned. Each point also reports how often the
 * drain worker parked on an empty queue.
 *
 * The recorded single-producer baseline from the lock-striped
 * implementation (BENCH_streaming.json / EXPERIMENTS.md: streaming
 * 1.15-1.24x faster than the barrier, midpoint 1.21x) is carried in
 * the report so the two implementations stay comparable across the
 * redesign.
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "harness/report.hh"
#include "machine/topology.hh"
#include "support/cli.hh"
#include "support/panic.hh"
#include "support/table.hh"
#include "support/timer.hh"
#include "threads/scheduler.hh"

namespace
{

/** Recorded lock-striped baseline (see the file comment). */
constexpr double kLockStripedSingleProducerSpeedup = 1.21;
/** Scaling efficiency every point that fits the host must reach. */
constexpr double kEfficiencyTarget = 0.70;

void
bumpCounter(void *counter, void *)
{
    static_cast<std::atomic<std::uint64_t> *>(counter)->fetch_add(
        1, std::memory_order_relaxed);
}

/**
 * Pins the calling thread to one CPU for its lifetime and restores
 * the previous affinity on exit (producer 0 is the caller's own
 * thread). A CPU past the plan — or a failed syscall — leaves the
 * thread as it was.
 */
class ScopedPin
{
  public:
    explicit ScopedPin(const std::vector<unsigned> &plan, unsigned index)
    {
#ifdef __linux__
        if (index >= plan.size())
            return;
        if (pthread_getaffinity_np(pthread_self(), sizeof(saved_),
                                   &saved_) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(plan[index], &one);
        pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one),
                                         &one) == 0;
#else
        (void)plan;
        (void)index;
#endif
    }

    ~ScopedPin()
    {
#ifdef __linux__
        if (pinned_)
            pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
#endif
    }

    ScopedPin(const ScopedPin &) = delete;
    ScopedPin &operator=(const ScopedPin &) = delete;

  private:
#ifdef __linux__
    cpu_set_t saved_{};
#endif
    bool pinned_ = false;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace lsched;

    Cli cli("ablation_stream_scale",
            "streaming admission throughput vs concurrent producer "
            "count (producer-table intake scaling)");
    cli.addInt("threads", 1 << 16, "total threads per sweep point");
    cli.addInt("bins", 512, "distinct bins the hints spread over");
    cli.addInt("max-producers", 4,
               "sweep producers 1,2,4,... up to this");
    cli.addInt("workers", 1, "drain workers");
    cli.addInt("seal", 16, "stream_seal_threshold");
    cli.addInt("max-pending", 0, "stream backlog bound (0 = off)");
    cli.addInt("repeats", 3, "take the best of this many runs");
    cli.addString("json", "", "also write the table as JSON here");
    cli.parse(argc, argv);

    const auto threads =
        static_cast<std::uint64_t>(cli.getInt("threads"));
    const auto bins = static_cast<std::uint64_t>(cli.getInt("bins"));
    const auto maxProducers =
        static_cast<unsigned>(cli.getInt("max-producers"));
    if (maxProducers == 0)
        LSCHED_FATAL("--max-producers must be at least 1");
    const auto workers = static_cast<unsigned>(cli.getInt("workers"));
    const int repeats = static_cast<int>(cli.getInt("repeats"));

    threads::SchedulerConfig cfg;
    cfg.dims = 1;
    cfg.blockBytes = 1 << 16;
    cfg.streamSealThreshold =
        static_cast<std::uint64_t>(cli.getInt("seal"));
    cfg.streamMaxPending =
        static_cast<std::uint64_t>(cli.getInt("max-pending"));

    const unsigned hostCpus = std::thread::hardware_concurrency();
    // One producer per L2 domain: the plan lists one CPU of each
    // domain before any domain's second CPU.
    const std::vector<unsigned> plan =
        machine::CacheTopology::host()->pinPlan();
    std::printf("== Ablation: streaming admission scaling ==\n");
    std::printf("%llu threads over %llu bins per point, %u drain "
                "worker(s), seal=%llu, max_pending=%llu, best of %d; "
                "host has %u CPU(s); producers %s\n\n",
                static_cast<unsigned long long>(threads),
                static_cast<unsigned long long>(bins), workers,
                static_cast<unsigned long long>(
                    cfg.streamSealThreshold),
                static_cast<unsigned long long>(cfg.streamMaxPending),
                repeats, hostCpus,
                plan.empty() ? "unpinned"
                             : "pinned one per L2 domain (pin plan)");

    // One sweep point: --threads total forks split over p producers,
    // each hinted into one of --bins blocks, bodies a single relaxed
    // increment. Returns the best-of wall seconds and that run's drain
    // parks; conservation checked on every run.
    std::atomic<std::uint64_t> ran{0};
    bool conserved = true;
    struct Point
    {
        double seconds = 0.0;
        std::uint64_t parks = 0;
    };
    const auto sweepPoint = [&](unsigned producers) {
        Point best;
        for (int r = 0; r < repeats; ++r) {
            threads::LocalityScheduler s(cfg);
            ran.store(0, std::memory_order_relaxed);
            const std::uint64_t chunk =
                (threads + producers - 1) / producers;
            WallTimer timer;
            const std::uint64_t executed = s.runStream(
                workers, producers, [&](unsigned p) {
                    const ScopedPin pin(plan, p);
                    const std::uint64_t begin = p * chunk;
                    const std::uint64_t end =
                        begin + chunk < threads ? begin + chunk
                                                : threads;
                    for (std::uint64_t i = begin; i < end; ++i) {
                        s.fork(bumpCounter, &ran, nullptr,
                               static_cast<threads::Hint>(
                                   (i % bins) * cfg.blockBytes * 2),
                               0);
                    }
                });
            const double t = timer.seconds();
            if (executed != threads ||
                ran.load(std::memory_order_relaxed) != threads)
                conserved = false;
            if (r == 0 || t < best.seconds)
                best = {t, s.streamStats().drainParks};
        }
        return best;
    };

    std::vector<unsigned> sweep;
    for (unsigned p = 1; p <= maxProducers; p *= 2)
        sweep.push_back(p);

    TextTable table("Ablation: admission scaling (wall seconds)",
                    {"producers", "wall s", "forks/s", "speedup",
                     "efficiency", "drain parks"});
    harness::JsonReport report;
    double t1 = 0.0;
    std::vector<double> efficiencies;
    for (const unsigned p : sweep) {
        const Point point = sweepPoint(p);
        const double t = point.seconds;
        if (p == 1)
            t1 = t;
        const double speedup = t1 / t;
        const double efficiency = speedup / p;
        efficiencies.push_back(efficiency);
        table.addRow({std::to_string(p), TextTable::num(t, 6),
                      TextTable::num(threads / t, 0),
                      TextTable::num(speedup, 2) + "x",
                      TextTable::num(efficiency, 2),
                      std::to_string(point.parks)});
        report.addValue("scale.p" + std::to_string(p) + ".seconds", t);
        report.addValue(
            "scale.p" + std::to_string(p) + ".efficiency", efficiency);
        report.addValue("scale.p" + std::to_string(p) + ".drain_parks",
                        static_cast<double>(point.parks));
        std::printf("  %u producer(s) done\n", p);
    }
    std::printf("\n%s\n", table.toText().c_str());

    // Linear scaling needs a CPU for every producer and drain worker:
    // each point that fits is held to the target.
    std::printf("shape checks:\n");
    std::printf("  every run conserved its threads: %s\n",
                conserved ? "yes" : "NO");
    for (std::size_t i = 1; i < sweep.size(); ++i) {
        const unsigned p = sweep[i];
        const std::string key = "scale.p" + std::to_string(p);
        if (p + workers <= hostCpus) {
            const bool met = efficiencies[i] >= kEfficiencyTarget;
            std::printf("  efficiency at %u producers: %.2f (target "
                        ">= %.2f): %s\n",
                        p, efficiencies[i], kEfficiencyTarget,
                        met ? "met" : "NOT met");
            report.addValue(key + ".target_met", met ? 1 : 0);
        } else {
            std::printf("  efficiency at %u producers: %.2f (no "
                        "target: %u producers + %u worker(s) exceed "
                        "%u CPU(s))\n",
                        p, efficiencies[i], p, workers, hostCpus);
        }
    }
    std::printf("  recorded lock-striped baseline (BENCH_streaming):"
                " single-producer streaming vs barrier %.2fx\n",
                kLockStripedSingleProducerSpeedup);

    const std::string jsonPath = cli.getString("json");
    if (!jsonPath.empty()) {
        report.addTable(table);
        report.addValue("host_cpus", hostCpus);
        report.addValue("baseline.lock_striped.single_producer_speedup",
                        kLockStripedSingleProducerSpeedup);
        if (!report.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("JSON written to %s\n", jsonPath.c_str());
    }
    return conserved ? 0 : 1;
}
