/**
 * @file
 * Concurrent bin table for the lock-free streaming intake.
 *
 * The batch BinTable (hash_table.hh) is single-owner; the streaming
 * intake used to wrap one per shard in a mutex. This table keeps the
 * same shape — open addressing, linear probing over a power-of-two
 * slot array, cached 64-bit coordinate hashes, grow past 3/4 load —
 * but makes every operation safe for any number of producers:
 *
 *  - *Bins are stable.* StreamBin records live in a segmented arena
 *    (atomic bump over CAS-installed segments), so a published bin
 *    pointer never moves or dies before the table does. Growth only
 *    replaces the slot array.
 *
 *  - *Insert is a CAS.* A probe walks slots under acquire loads; a
 *    miss claims the terminating null slot with a single CAS. Losers
 *    re-examine the slot (the winner may have inserted the very same
 *    coordinates) and recycle their speculative bin through a tagged
 *    free stack.
 *
 *  - *Growth freezes, then relocates.* One grower (growing_ flag)
 *    CASes every remaining null slot to a kFrozen sentinel, so no
 *    insert can land in the old array once the sweep passes it;
 *    probes that meet kFrozen spin-yield until the new array is
 *    published and retry there. With the old array quiescent, the
 *    grower migrates entries single-threaded using the cached hashes,
 *    applying the robin-hood displacement order (shortest probe
 *    distance first) that the concurrent fast path cannot afford to
 *    maintain. Displaced slot arrays are not freed in place — they
 *    are retired onto a list owned by the table and reclaimed in the
 *    destructor, the session-end quiescent point, so a probe that
 *    still holds the old array never reads freed memory.
 *
 *  - *Appending threads to a bin is lock-free and ABA-proof.* Each
 *    bin has kStreamLanes append lanes; a producer always appends to
 *    its own lane, so concurrent producers on one bin write disjoint
 *    groups. Each lane anchors a prev-linked chain of ThreadGroups in
 *    a single atomic tail word tagged with the tail group's life
 *    generation
 *    ([generation:32][pool index + 1:32]). A producer reserves a slot
 *    with a CAS on the group's claim word whose expected value
 *    carries that generation — a producer preempted across the
 *    group's seal/drain/recycle cycle fails the CAS (the new life
 *    re-stamped the generation) instead of claiming into a group
 *    that now belongs to another bin — then writes the spec and
 *    publishes it by bumping ready (release). When the group is full
 *    or a sealer closed it, the producer installs a fresh group with
 *    one CAS on the tail anchor. Sealing exchanges every lane tail
 *    with 0: exactly one caller gets each lane's chain, closes each
 *    group (claim |= kClosed), waits for the in-flight ready
 *    publications it counted, reverses the prev links into fork
 *    order, and concatenates the lanes into the one next chain that
 *    GroupCursor walks, so each producer's forks keep their order
 *    within the epoch. A lane two producers share runs the same
 *    protocol and stays correct, only slower. Producers and drainers
 *    never share a group: the hand-off point is the seal.
 */

#ifndef LSCHED_THREADS_CONCURRENT_BIN_TABLE_HH
#define LSCHED_THREADS_CONCURRENT_BIN_TABLE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>

#include "support/align.hh"
#include "support/failpoint.hh"
#include "support/panic.hh"
#include "threads/bin.hh"
#include "threads/concurrent_group_pool.hh"
#include "threads/hints.hh"

namespace lsched::threads
{

/** Append lanes per stream bin (producers map onto them round-robin). */
constexpr unsigned kStreamLanes = 4;

/**
 * One bin of the streaming scheduling space. The search key (coords +
 * cached hash), id, and super-bin are written by the creating producer
 * before the bin is published into a table slot; everything else is
 * concurrently updated through atomics. The key lines are never
 * written once the bin is published, so probes keep them shared in
 * every cache; appends and seals write only the lane line.
 */
struct alignas(64) StreamBin
{
    /** Search key: block coordinates in the scheduling space. */
    BlockCoords coords{};
    /** Cached hash of coords (probe compare + growth relocation). */
    std::uint64_t hashVal = 0;
    /** Stable trace identity: table idBase + arena index. */
    std::uint32_t id = 0;
    /** Second-level placement group (kNoSuperBin when flat). */
    std::uint32_t superBin = kNoSuperBin;
    /** Spare-stack successor index (+1; 0 = end); unpublished only. */
    std::atomic<std::uint32_t> spareNext{0};

    /**
     * Per lane, the newest group of the current epoch's prev-linked
     * chain, as a tagged word [life generation:32][pool index + 1:32];
     * 0 while the lane has no unsealed threads. Carrying the
     * generation the group had when it was installed lets a
     * producer's claim CAS prove the group still belongs to this
     * lane's current epoch (appendStreamSpec). A lane's producers
     * (CAS install) and sealers (exchange) contend on its word.
     */
    struct alignas(64) Lane
    {
        std::atomic<std::uint64_t> tail{0};
    };
    Lane lanes[kStreamLanes];
    /** Seal epochs this bin has gone through. */
    alignas(64) std::atomic<std::uint32_t> epochs{0};
    /** Threads sealed across all epochs (report; added per seal). */
    std::atomic<std::uint64_t> totalThreads{0};
};

/** A bin epoch detached by sealStreamBin(), ready to drain. */
struct SealedChain
{
    /** Fork-order chain (next-linked); null when nothing was open. */
    ThreadGroup *head = nullptr;
    /** Threads in the chain. */
    std::uint64_t threads = 0;
    /** The epoch number this seal closed (1-based). */
    std::uint32_t epoch = 0;
};

/** True while some lane of @p bin holds unsealed threads. */
inline bool
streamBinOpen(const StreamBin &bin)
{
    for (const StreamBin::Lane &lane : bin.lanes)
        if (lane.tail.load(std::memory_order_relaxed))
            return true;
    return false;
}

/**
 * Admit one thread spec into lane @p lane of @p bin. Lock-free; any
 * number of callers may append to the same lane concurrently with
 * each other and with sealStreamBin(). Returns the spec's 1-based
 * position in the lane's current epoch (the threshold-seal trigger):
 * the reserved slot plus the group's epochBase, so counting costs no
 * extra write.
 *
 * Slot reservation is a CAS on the tail group's claim word whose
 * expected value carries the life generation named by the lane's tail
 * word: a producer preempted between reading the tail and reserving —
 * long enough for the group to be sealed, drained, recycled, and
 * re-published elsewhere — fails the CAS (allocate() re-stamped the
 * generation) and retries from the tail, so a spec can never be
 * written into a group that moved on. The CAS also bounds claims at
 * capacity, so every reservation is matched by exactly one ready
 * publication the sealer can wait on.
 *
 * A fresh group's epochBase is its predecessor's base plus capacity:
 * the install CAS succeeds only while the predecessor is the tail, and
 * an unsealed tail a producer diverts from is full. (Bases wrap past
 * 2^32 threads in one unsealed epoch.)
 */
inline std::uint64_t
appendStreamSpec(StreamBin &bin, unsigned lane, ConcurrentGroupPool &pool,
                 ThreadFn fn, void *arg1, void *arg2)
{
    std::atomic<std::uint64_t> &tail = bin.lanes[lane].tail;
    ThreadGroup *fresh = nullptr;
    for (;;) {
        const std::uint64_t t = tail.load(std::memory_order_acquire);
        ThreadGroup *g = nullptr;
        if (t) {
            g = pool.groupAt(static_cast<std::uint32_t>(t) - 1);
            const std::uint64_t gen = t >> 32;
            std::uint64_t c = g->claim.load(std::memory_order_acquire);
            bool divert = false;
            while ((c >> 32) == gen) {
                const std::uint32_t used =
                    static_cast<std::uint32_t>(c);
                if ((used & ThreadGroup::kClosed) ||
                    used >= g->capacity) {
                    divert = true; // sealed or full: fresh group
                    break;
                }
                if (g->claim.compare_exchange_weak(
                        c, c + 1, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
                    g->specs[used] = {fn, arg1, arg2};
                    g->ready.fetch_add(1, std::memory_order_release);
                    if (fresh)
                        pool.recycleChain(fresh);
                    return std::uint64_t{g->epochBase.load(
                               std::memory_order_relaxed)} +
                           used + 1;
                }
            }
            if (!divert) {
                // The generation moved: the group was recycled under
                // us, which implies the lane's tail changed too (a
                // seal emptied it first). Reload the tail.
                continue;
            }
        }
        if (!fresh) {
            fresh = pool.allocate();
            // allocate() stamped the new life's generation; keep it
            // and pre-publish one reserved, ready slot.
            fresh->specs[0] = {fn, arg1, arg2};
            fresh->claim.store(
                (fresh->claim.load(std::memory_order_relaxed) &
                 ~std::uint64_t{0xffffffffu}) |
                    1,
                std::memory_order_relaxed);
            fresh->ready.store(1, std::memory_order_relaxed);
        }
        const std::uint32_t base =
            g ? g->epochBase.load(std::memory_order_relaxed) +
                    g->capacity
              : 0;
        fresh->epochBase.store(base, std::memory_order_relaxed);
        fresh->prev = g;
        const std::uint64_t freshWord =
            (fresh->claim.load(std::memory_order_relaxed) &
             ~std::uint64_t{0xffffffffu}) |
            (fresh->poolIndex + 1);
        std::uint64_t expected = t;
        // Success publishes the spec and base via the CAS release.
        if (tail.compare_exchange_strong(expected, freshWord,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed))
            return std::uint64_t{base} + 1;
        // Lost to another append or a seal: retry against the new
        // tail, reusing the speculative group.
    }
}

/**
 * Detach @p bin's current epoch as a drainable chain. Any thread may
 * call this concurrently with appends and other seals: each lane's
 * exchange hands that lane's chain to exactly one caller, and appends
 * that raced past it land in the bin's next epoch. The lanes are
 * concatenated in lane order, each in fork order. Returns
 * head == nullptr when there was nothing to seal.
 */
inline SealedChain
sealStreamBin(StreamBin &bin, ConcurrentGroupPool &pool)
{
    SealedChain chain;
    ThreadGroup *last = nullptr;
    for (StreamBin::Lane &lane : bin.lanes) {
        std::atomic<std::uint64_t> &tail = lane.tail;
        // The load skips an idle lane without writing the bin's line.
        if (!tail.load(std::memory_order_relaxed))
            continue;
        const std::uint64_t t = tail.exchange(0, std::memory_order_acq_rel);
        if (!t)
            continue;
        ThreadGroup *g = pool.groupAt(static_cast<std::uint32_t>(t) - 1);
        ThreadGroup *laneTail = g;
        ThreadGroup *head = nullptr;
        while (g) {
            // Closing returns the reservations made so far; late
            // claimers see the bit and divert to the next epoch. The
            // claim CAS bounds reservations at capacity; the min is
            // belt and braces.
            const std::uint64_t raw = g->claim.fetch_or(
                ThreadGroup::kClosed, std::memory_order_acq_rel);
            const std::uint32_t n = std::min(
                static_cast<std::uint32_t>(raw & ~ThreadGroup::kClosed),
                g->capacity);
            // Wait out in-flight writers: each reservation publishes
            // exactly one ready bump (release), so once ready covers n
            // every captured spec is visible here.
            while (g->ready.load(std::memory_order_acquire) < n)
                std::this_thread::yield();
            g->count = n;
            chain.threads += n;
            ThreadGroup *prev = g->prev;
            g->next = head; // reverse newest-first into fork order
            head = g;
            g = prev;
        }
        if (last)
            last->next = head;
        else
            chain.head = head;
        last = laneTail;
    }
    if (!chain.head)
        return {};
    chain.epoch =
        bin.epochs.fetch_add(1, std::memory_order_relaxed) + 1;
    bin.totalThreads.fetch_add(chain.threads, std::memory_order_relaxed);
    return chain;
}

/** Owns all streaming bins and finds them by block coordinates. */
class ConcurrentBinTable
{
  public:
    /** Slots below this are rounded up (headroom for early growth). */
    static constexpr std::size_t kMinSlots = 16;
    /** Bins carved per arena segment. */
    static constexpr std::uint32_t kSegmentBins = 64;
    /** Segment-directory capacity (kMaxSegments * kSegmentBins bins). */
    static constexpr std::uint32_t kMaxSegments = 1u << 12;

    /**
     * @param dims scheduling-space dimensionality.
     * @param buckets initial slot count (rounded up to a power of
     *        two, minimum kMinSlots).
     * @param idBase offset added to every bin id (shard id spaces).
     */
    ConcurrentBinTable(unsigned dims, std::size_t buckets,
                       std::uint32_t idBase = 0)
        : dims_(dims), idBase_(idBase)
    {
        LSCHED_ASSERT(dims_ >= 1 && dims_ <= kMaxDims,
                      "bad dimensionality ", dims_);
        current_.store(
            makeTable(roundUpPowerOfTwo(
                buckets < kMinSlots ? kMinSlots : buckets)),
            std::memory_order_release);
    }

    ~ConcurrentBinTable()
    {
        // Session-end quiescent point: no probe can still hold a
        // retired slot array, so the whole chain reclaims here.
        Table *t = current_.load(std::memory_order_relaxed);
        while (t) {
            Table *older = t->older;
            delete t;
            t = older;
        }
        const std::uint32_t carved =
            carveNext_.load(std::memory_order_relaxed);
        const std::uint32_t segments =
            (carved + kSegmentBins - 1) / kSegmentBins;
        for (std::uint32_t s = 0; s < segments && s < kMaxSegments;
             ++s)
            delete[] segments_[s].load(std::memory_order_relaxed);
    }

    ConcurrentBinTable(const ConcurrentBinTable &) = delete;
    ConcurrentBinTable &operator=(const ConcurrentBinTable &) = delete;

    /**
     * Find the bin with coordinates @p coords (hash @p h precomputed
     * via hashCoords()), creating it on first use with super-bin
     * @p superBin. Safe from any number of threads. Returns the bin
     * and whether this call created it.
     */
    std::pair<StreamBin *, bool>
    findOrCreate(const BlockCoords &coords, std::uint64_t h,
                 std::uint32_t superBin)
    {
        StreamBin *spare = nullptr;
        for (;;) {
            Table *t = current_.load(std::memory_order_acquire);
            const std::size_t mask = t->mask;
            std::size_t i = h & mask;
            std::size_t walked = 0;
            bool frozen = false;
            for (;; i = (i + 1) & mask) {
                if (++walked > mask + 1) {
                    // Safety valve: a create burst filled every slot
                    // before any trigger fired. Grow (or wait for the
                    // grower) and retry in the bigger table.
                    grow(t);
                    frozen = true;
                    break;
                }
                StreamBin *b =
                    t->slots[i].load(std::memory_order_acquire);
                if (b == frozenSlot()) {
                    frozen = true;
                    break;
                }
                if (b) {
                    if (b->hashVal == h &&
                        sameCoords(b->coords, coords)) {
                        if (spare)
                            pushSpare(spare);
                        return {b, false};
                    }
                    continue;
                }
                // Terminating null: this is a miss. Claim the slot.
                if (!spare) {
                    // Fail point standing in for a real out-of-memory
                    // from the bin growth below (same site as the
                    // batch table, so chaos specs reach this path).
                    if (LSCHED_FAILPOINT_HIT("bintable.grow"))
                        throw std::bad_alloc();
                    spare = takeSpare();
                    if (!spare)
                        spare = carve();
                }
                spare->coords = coords;
                spare->hashVal = h;
                spare->superBin = superBin;
                StreamBin *expected = nullptr;
                if (t->slots[i].compare_exchange_strong(
                        expected, spare, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
                    StreamBin *won = spare;
                    const std::size_t count =
                        published_.fetch_add(
                            1, std::memory_order_relaxed) +
                        1;
                    // Keep load under 3/4 so probes stay short and a
                    // null (or frozen) slot always terminates them.
                    if ((count + 1) * 4 > (mask + 1) * 3)
                        grow(t);
                    return {won, true};
                }
                // Lost the slot. Re-examine it without advancing: the
                // winner may have published these very coordinates.
                --walked;
                --i; // undone by the loop increment
                i &= mask;
            }
            if (frozen)
                waitForGrowth(t);
        }
    }

    /** Bins carved so far (upper bound on published bins). */
    std::size_t
    binCount() const
    {
        return carveNext_.load(std::memory_order_relaxed);
    }

    /**
     * The bin at arena @p index (< binCount()), or nullptr while the
     * segment holding it is not installed: carve() bumps the count
     * before CAS-publishing a fresh segment, so a concurrent sweep
     * can reach an index whose segment is still in flight (or, after
     * a failed segment allocation, will never arrive) — callers must
     * skip a null return. Iteration visits spare, never-published
     * bins too — they have totalThreads == 0 and zero tails, so
     * seal/report sweeps skip them naturally.
     */
    StreamBin *
    binAt(std::size_t index) const
    {
        Segment seg = segments_[index / kSegmentBins].load(
            std::memory_order_acquire);
        return seg ? &seg[index % kSegmentBins] : nullptr;
    }

    /** Bins created so far (published into a slot; spares and
     *  carved-but-unused bins excluded). */
    std::size_t
    createdCount() const
    {
        return published_.load(std::memory_order_relaxed);
    }

    /** Number of slots in the live probe array. */
    std::size_t
    bucketCount() const
    {
        return current_.load(std::memory_order_acquire)->mask + 1;
    }

  private:
    using Segment = StreamBin *;

    struct Table
    {
        std::size_t mask = 0;
        std::unique_ptr<std::atomic<StreamBin *>[]> slots;
        /** Retired predecessor, reclaimed by the destructor. */
        Table *older = nullptr;
    };

    /** Sentinel marking a frozen (growth-claimed) null slot. */
    static StreamBin *
    frozenSlot()
    {
        return reinterpret_cast<StreamBin *>(
            static_cast<std::uintptr_t>(1));
    }

    static Table *
    makeTable(std::size_t slots)
    {
        Table *t = new Table;
        t->mask = slots - 1;
        t->slots =
            std::make_unique<std::atomic<StreamBin *>[]>(slots);
        for (std::size_t i = 0; i < slots; ++i)
            t->slots[i].store(nullptr, std::memory_order_relaxed);
        return t;
    }

    bool
    sameCoords(const BlockCoords &a, const BlockCoords &b) const
    {
        for (unsigned d = 0; d < dims_; ++d)
            if (a[d] != b[d])
                return false;
        return true;
    }

    /** Carve the next never-used bin out of the segment directory. */
    StreamBin *
    carve()
    {
        const std::uint32_t index =
            carveNext_.fetch_add(1, std::memory_order_relaxed);
        if (index >= kMaxSegments * kSegmentBins)
            throw std::bad_alloc();
        const std::uint32_t segIndex = index / kSegmentBins;
        Segment seg =
            segments_[segIndex].load(std::memory_order_acquire);
        if (!seg) {
            Segment fresh = new StreamBin[kSegmentBins];
            Segment expected = nullptr;
            if (segments_[segIndex].compare_exchange_strong(
                    expected, fresh, std::memory_order_acq_rel,
                    std::memory_order_acquire))
                seg = fresh;
            else {
                delete[] fresh; // a racing carver installed it first
                seg = expected;
            }
        }
        StreamBin *b = &seg[index % kSegmentBins];
        b->id = idBase_ + index;
        return b;
    }

    /** Recycle a create-race loser's speculative bin. */
    void
    pushSpare(StreamBin *b)
    {
        const std::uint32_t index = b->id - idBase_;
        std::uint64_t head =
            spareHead_.load(std::memory_order_relaxed);
        for (;;) {
            b->spareNext.store(static_cast<std::uint32_t>(head),
                               std::memory_order_relaxed);
            const std::uint64_t tagged =
                ((head >> 32) + 1) << 32 | (index + 1);
            if (spareHead_.compare_exchange_weak(
                    head, tagged, std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return;
        }
    }

    StreamBin *
    takeSpare()
    {
        std::uint64_t head =
            spareHead_.load(std::memory_order_acquire);
        for (;;) {
            const std::uint32_t slot =
                static_cast<std::uint32_t>(head);
            if (slot == 0)
                return nullptr;
            StreamBin *b = binAt(slot - 1);
            // A pushed spare was fully carved first; the push's
            // release edge makes its segment visible here.
            LSCHED_ASSERT(b, "spare-stack entry precedes its segment");
            const std::uint32_t next =
                b->spareNext.load(std::memory_order_relaxed);
            const std::uint64_t tagged =
                ((head >> 32) + 1) << 32 | next;
            // The tag forbids the ABA unlink (see the group pool).
            if (spareHead_.compare_exchange_weak(
                    head, tagged, std::memory_order_acq_rel,
                    std::memory_order_acquire))
                return b;
        }
    }

    /**
     * Spin-yield until the grower replaces @p old — or gives up: a
     * growth that failed to allocate thaws its frozen slots and
     * clears growing_, after which retrying the probe in the still-
     * live old array is correct.
     */
    void
    waitForGrowth(const Table *old)
    {
        while (current_.load(std::memory_order_acquire) == old &&
               growing_.load(std::memory_order_acquire))
            std::this_thread::yield();
    }

    /**
     * Replace @p t with a double-size table. One caller becomes the
     * grower; everyone else returns (and, if they need the result,
     * waits via waitForGrowth).
     */
    void
    grow(Table *t)
    {
        if (growing_.exchange(true, std::memory_order_acq_rel))
            return;
        if (current_.load(std::memory_order_acquire) != t) {
            // Someone already replaced it between our trigger and the
            // flag: nothing to do for this generation.
            growing_.store(false, std::memory_order_release);
            return;
        }
        // Freeze: claim every remaining null slot so no insert can
        // land in the old array once the sweep has passed it.
        for (std::size_t i = 0; i <= t->mask; ++i) {
            StreamBin *expected = nullptr;
            t->slots[i].compare_exchange_strong(
                expected, frozenSlot(), std::memory_order_acq_rel,
                std::memory_order_acquire);
        }
        Table *bigger = nullptr;
        try {
            // Fail point standing in for the doubled-array OOM below
            // (same site name as the probe-path carve, so chaos specs
            // reach the unwind too).
            if (LSCHED_FAILPOINT_HIT("bintable.grow"))
                throw std::bad_alloc();
            bigger = makeTable((t->mask + 1) * 2);
        } catch (...) {
            // Unwind to a live table: thaw the slots this freeze
            // claimed and hand the grower role back, so the failure
            // propagates as a recoverable bad_alloc instead of
            // wedging every prober in waitForGrowth() forever.
            for (std::size_t i = 0; i <= t->mask; ++i) {
                StreamBin *expected = frozenSlot();
                t->slots[i].compare_exchange_strong(
                    expected, nullptr, std::memory_order_acq_rel,
                    std::memory_order_acquire);
            }
            growing_.store(false, std::memory_order_release);
            throw;
        }
        for (std::size_t i = 0; i <= t->mask; ++i) {
            StreamBin *b =
                t->slots[i].load(std::memory_order_acquire);
            if (b && b != frozenSlot())
                robinHoodInsert(*bigger, b);
        }
        bigger->older = t;
        current_.store(bigger, std::memory_order_release);
        growing_.store(false, std::memory_order_release);
    }

    /**
     * Single-threaded robin-hood insert used during migration: evict
     * richer residents (shorter probe distance) in favor of poorer
     * arrivals, bounding the variance of probe sequences in a way the
     * lock-free fast path cannot maintain online.
     */
    static void
    robinHoodInsert(Table &t, StreamBin *b)
    {
        std::size_t dist = 0;
        for (std::size_t i = b->hashVal & t.mask;;
             i = (i + 1) & t.mask, ++dist) {
            StreamBin *resident =
                t.slots[i].load(std::memory_order_relaxed);
            if (!resident) {
                t.slots[i].store(b, std::memory_order_relaxed);
                return;
            }
            const std::size_t residentDist =
                (i - (resident->hashVal & t.mask)) & t.mask;
            if (residentDist < dist) {
                t.slots[i].store(b, std::memory_order_relaxed);
                b = resident;
                dist = residentDist;
            }
        }
    }

    const unsigned dims_;
    const std::uint32_t idBase_;
    std::atomic<Table *> current_{nullptr};
    std::atomic<bool> growing_{false};
    /** Bins published into slots (load-factor trigger). */
    std::atomic<std::size_t> published_{0};
    std::atomic<std::uint32_t> carveNext_{0};
    /** Tagged spare-stack head: (ABA tag << 32) | (arena index + 1). */
    std::atomic<std::uint64_t> spareHead_{0};
    /** Segment directory; slots install once via CAS and stay put. */
    std::unique_ptr<std::atomic<Segment>[]> segments_ =
        std::make_unique<std::atomic<Segment>[]>(kMaxSegments);
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_CONCURRENT_BIN_TABLE_HH
