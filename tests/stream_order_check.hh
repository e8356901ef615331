/**
 * @file
 * A fork-order round shared by the stream suite and the chaos harness,
 * checked at the session level: producers fork tagged threads over a
 * few bins of one stream with one drain worker and no backlog bound,
 * so sealed chains run one at a time in the order they were queued.
 * Each producer's threads of one bin must then run in that producer's
 * fork order — across epochs, not only within one — and every thread
 * exactly once.
 */

#ifndef LSCHED_TESTS_STREAM_ORDER_CHECK_HH
#define LSCHED_TESTS_STREAM_ORDER_CHECK_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "threads/scheduler.hh"

namespace lsched::threads::ordercheck
{

/** What one order round saw. */
struct OrderRound
{
    /** Threads the session executed. */
    std::uint64_t executed = 0;
    /** Seals (work items) the session queued. */
    std::uint64_t seals = 0;
    /** Threads that ran before an earlier fork of the same producer
     *  into the same bin. */
    std::uint64_t outOfOrder = 0;
    /** Threads that ran other than exactly once. */
    std::uint64_t notOnce = 0;
};

/**
 * @p producers threads each fork @p perProducer threads, spread over
 * @p bins bins, into one session with seal threshold @p threshold and
 * group capacity @p capacity. The threshold is raised where needed so
 * that every seal of the round fits the sealed ring at once: a full
 * ring would make a producer drain a chain inline, next to the drain
 * worker, and two chains would run side by side.
 */
inline OrderRound
runOrderRound(unsigned producers, unsigned bins, std::uint64_t perProducer,
              std::uint64_t threshold, std::uint32_t capacity)
{
    struct Log
    {
        std::atomic<std::uint64_t> clock{0};
        std::vector<std::atomic<std::uint64_t>> ranAt;
        std::vector<std::atomic<std::uint32_t>> runs;

        explicit Log(std::size_t n) : ranAt(n), runs(n) {}

        static void
        record(void *self, void *index)
        {
            auto *log = static_cast<Log *>(self);
            const auto i = reinterpret_cast<std::uintptr_t>(index);
            log->ranAt[i].store(
                log->clock.fetch_add(1, std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
            log->runs[i].fetch_add(1, std::memory_order_relaxed);
        }
    };

    const std::uint64_t total = producers * perProducer;
    // A seal holds at least one producer's share, ceil(threshold /
    // producers), or is one of finish()'s last producers * bins seals.
    const std::uint64_t room =
        detail::SealedQueue::kCells - std::uint64_t{producers} * bins;
    const std::uint64_t minShare = (total + room - 1) / room;

    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 16;
    c.groupCapacity = capacity;
    c.streamSealThreshold = std::max(threshold, minShare * producers);
    c.streamMaxPending = 0;
    LocalityScheduler s(c);
    Log log(total);
    const auto binOf = [&](unsigned p, std::uint64_t i) {
        return (i * 7 + p) % bins;
    };

    OrderRound round;
    round.executed = s.runStream(1, producers, [&](unsigned p) {
        for (std::uint64_t i = 0; i < perProducer; ++i) {
            s.fork(&Log::record, &log,
                   reinterpret_cast<void *>(
                       static_cast<std::uintptr_t>(p * perProducer + i)),
                   static_cast<Hint>(binOf(p, i)) << 16, 0);
        }
    });
    round.seals = s.streamStats().seals;

    std::vector<std::uint64_t> last(bins);
    for (unsigned p = 0; p < producers; ++p) {
        std::fill(last.begin(), last.end(), 0);
        for (std::uint64_t i = 0; i < perProducer; ++i) {
            const std::uint64_t at =
                log.ranAt[p * perProducer + i].load(std::memory_order_relaxed);
            std::uint64_t &prev = last[binOf(p, i)];
            round.outOfOrder += at <= prev ? 1 : 0;
            prev = at;
        }
    }
    for (const auto &r : log.runs)
        round.notOnce += r.load(std::memory_order_relaxed) != 1 ? 1 : 0;
    return round;
}

} // namespace lsched::threads::ordercheck

#endif // LSCHED_TESTS_STREAM_ORDER_CHECK_HH
