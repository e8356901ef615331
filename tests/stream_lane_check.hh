/**
 * @file
 * A lane-order round shared by the stream suite and the chaos harness:
 * producers append tagged specs straight into a few StreamBins while a
 * sealer thread keeps sealing them. Every sealed chain is one bin
 * epoch, so each chain can be checked on its own: every producer's
 * specs in it must appear in fork order, and across all chains every
 * spec must appear exactly once.
 */

#ifndef LSCHED_TESTS_STREAM_LANE_CHECK_HH
#define LSCHED_TESTS_STREAM_LANE_CHECK_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "threads/concurrent_bin_table.hh"
#include "threads/concurrent_group_pool.hh"

namespace lsched::threads::lanecheck
{

/** What one lane round saw. */
struct LaneRound
{
    /** Epochs the sealer detached. */
    std::uint64_t chains = 0;
    /** Specs found across all chains. */
    std::uint64_t sealed = 0;
    /** Chains in which some producer's specs were out of fork order. */
    std::uint64_t outOfOrder = 0;
    /** Specs found other than exactly once. */
    std::uint64_t notOnce = 0;
};

/**
 * @p producers threads each append @p perProducer specs, spread over
 * @p bins bins, through their own lane (producer p uses lane
 * p % kStreamLanes, as a session assigns them); the calling thread
 * seals every bin over and over until they finish, then once more.
 */
inline LaneRound
runLaneRound(unsigned producers, unsigned bins, std::uint64_t perProducer,
             std::uint32_t capacity)
{
    constexpr unsigned kShift = 24;
    ConcurrentGroupPool pool(capacity);
    std::unique_ptr<StreamBin[]> table(new StreamBin[bins]);
    std::vector<std::atomic<std::uint32_t>> seen(producers * perProducer);
    for (auto &s : seen)
        s.store(0, std::memory_order_relaxed);
    LaneRound round;

    const auto check = [&](const SealedChain &chain) {
        if (!chain.head)
            return;
        ++round.chains;
        std::map<std::uint64_t, std::uint64_t> last;
        bool ordered = true;
        for (ThreadGroup *g = chain.head; g; g = g->next) {
            for (std::uint32_t k = 0; k < g->count; ++k) {
                const auto tag =
                    reinterpret_cast<std::uintptr_t>(g->specs[k].arg1);
                const std::uint64_t p = tag >> kShift;
                const std::uint64_t i = tag & ((1u << kShift) - 1);
                auto [it, fresh] = last.try_emplace(p, i);
                if (!fresh) {
                    ordered = ordered && it->second < i;
                    it->second = i;
                }
                seen[p * perProducer + i].fetch_add(
                    1, std::memory_order_relaxed);
                ++round.sealed;
            }
        }
        round.outOfOrder += ordered ? 0 : 1;
        pool.recycleChain(chain.head);
    };

    std::atomic<unsigned> running{producers};
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (std::uint64_t i = 0; i < perProducer; ++i) {
                const std::uintptr_t tag = (std::uintptr_t{p} << kShift) | i;
                StreamBin &bin = table[(i * 7 + p) % bins];
                appendStreamSpec(bin, p % kStreamLanes, pool, nullptr,
                                 reinterpret_cast<void *>(tag), nullptr);
            }
            running.fetch_sub(1, std::memory_order_release);
        });
    }
    while (running.load(std::memory_order_acquire) != 0)
        for (unsigned b = 0; b < bins; ++b)
            check(sealStreamBin(table[b], pool));
    for (std::thread &t : threads)
        t.join();
    for (unsigned b = 0; b < bins; ++b)
        check(sealStreamBin(table[b], pool));

    for (const auto &s : seen)
        round.notOnce += s.load(std::memory_order_relaxed) != 1 ? 1 : 0;
    return round;
}

} // namespace lsched::threads::lanecheck

#endif // LSCHED_TESTS_STREAM_LANE_CHECK_HH
