/**
 * @file
 * Lock-free ThreadGroup allocation for the streaming intake.
 *
 * The batch GroupPool (thread_group.hh) hands out groups under its
 * owner's lock; the lock-striped stream paid that lock on every fork
 * that crossed a group boundary. Here allocation is split in two:
 *
 *  - a per-producer *thread-local cache* of free groups, so the steady
 *    state (allocate on one thread, recycle on a drain helper, flow
 *    back) touches no shared state at all on the producer side;
 *
 *  - a lock-free *global tier* behind the caches: a Treiber free stack
 *    of kBatch-group chains plus an atomic-bump slab directory for
 *    fresh carves. A drain helper's cache overflows one whole batch
 *    at a time and an empty producer cache refills one whole batch at
 *    a time, so the shared head moves once per kBatch groups. The
 *    stack head packs a 32-bit ABA tag with a 32-bit group *index*
 *    (groups are addressed through the slab directory, never raw
 *    pointers in the head word), so a pop that races a re-push of the
 *    same batch fails its CAS instead of unlinking through a stale
 *    next pointer.
 *
 * Slabs have stable addresses for the pool's lifetime and are only
 * freed by the destructor, after the owning StreamSession has joined
 * every helper — the quiescent point that makes reclamation safe.
 * Thread-local caches are validated against the owning pool's identity
 * *and generation* before use: a cache left over from a finished
 * session (its memory possibly reused by a new pool at the same
 * address) is discarded without being dereferenced.
 */

#ifndef LSCHED_THREADS_CONCURRENT_GROUP_POOL_HH
#define LSCHED_THREADS_CONCURRENT_GROUP_POOL_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>

#include "support/failpoint.hh"
#include "support/panic.hh"
#include "threads/thread_group.hh"

namespace lsched::threads
{

/** Lock-free allocator/recycler of ThreadGroups (streaming intake). */
class ConcurrentGroupPool
{
  public:
    /** Groups carved per slab allocation. */
    static constexpr std::uint32_t kSlabGroups = 64;
    /** Slab-directory capacity: kMaxSlabs * kSlabGroups groups. */
    static constexpr std::uint32_t kMaxSlabs = 1u << 16;
    /** Groups per global free-stack entry (one shared CAS each). */
    static constexpr unsigned kBatch = 32;
    /** Free groups a thread caches before overflowing a batch. */
    static constexpr unsigned kCacheMax = 2 * kBatch;

    /** @param capacity threads per group (> 0). */
    explicit ConcurrentGroupPool(std::uint32_t capacity)
        : capacity_(capacity), generation_(nextGeneration())
    {
        LSCHED_ASSERT(capacity_ > 0, "group capacity must be positive");
    }

    ~ConcurrentGroupPool()
    {
        const std::uint32_t carved =
            carveNext_.load(std::memory_order_relaxed);
        const std::uint32_t slabs =
            (carved + kSlabGroups - 1) / kSlabGroups;
        for (std::uint32_t s = 0; s < slabs && s < kMaxSlabs; ++s) {
            Slab *slab = slabs_[s].load(std::memory_order_relaxed);
            delete slab;
        }
    }

    ConcurrentGroupPool(const ConcurrentGroupPool &) = delete;
    ConcurrentGroupPool &operator=(const ConcurrentGroupPool &) = delete;

    /**
     * Obtain an empty group: thread-local cache, then a batch off the
     * global free stack, then a fresh carve. Lock-free on every tier.
     */
    ThreadGroup *
    allocate()
    {
        TlCache &cache = tlCache();
        ThreadGroup *g = nullptr;
        if (cache.owner == this && cache.generation == generation_ &&
            cache.head) {
            g = cache.head;
            cache.head = g->next;
            --cache.cached;
        } else {
            if (cache.owner != this ||
                cache.generation != generation_) {
                // A stale cache belongs to a dead pool: forget it
                // without dereferencing (its slabs are gone).
                cache.owner = this;
                cache.generation = generation_;
                cache.head = nullptr;
                cache.cached = 0;
            }
            g = popGlobal();
            if (g) {
                // The rest of the batch refills the cache.
                cache.head = g->next;
                cache.cached = g->count - 1;
            } else {
                g = carve();
            }
        }
        g->count = 0;
        g->next = nullptr;
        g->prev = nullptr;
        // Start a new life: bump the generation half of the claim word
        // and zero the slot half. A producer still holding a tail word
        // from this group's previous life can never reserve a slot —
        // its claim CAS carries the old generation and must fail
        // (appendStreamSpec). 32-bit generations wrap after 2^32 lives
        // of one group, the same tagging assumption the free stacks
        // already make.
        const std::uint64_t gen =
            ((g->claim.load(std::memory_order_relaxed) >> 32) + 1) &
            0xffffffffu;
        g->claim.store(gen << 32, std::memory_order_relaxed);
        g->ready.store(0, std::memory_order_relaxed);
        return g;
    }

    /**
     * Return a drained chain (linked by next, fork order) to the
     * calling thread's cache, overflowing one batch at a time to the
     * global stack.
     */
    void
    recycleChain(ThreadGroup *head)
    {
        TlCache &cache = tlCache();
        if (cache.owner != this || cache.generation != generation_) {
            cache.owner = this;
            cache.generation = generation_;
            cache.head = nullptr;
            cache.cached = 0;
        }
        while (head) {
            ThreadGroup *next = head->next;
            head->next = cache.head;
            cache.head = head;
            if (++cache.cached == kCacheMax) {
                // Overflow the newest kBatch groups as one entry.
                ThreadGroup *batch = cache.head;
                ThreadGroup *last = batch;
                for (unsigned i = 1; i < kBatch; ++i)
                    last = last->next;
                cache.head = last->next;
                cache.cached -= kBatch;
                last->next = nullptr;
                batch->count = kBatch;
                pushGlobal(batch);
            }
            head = next;
        }
    }

    /** Threads per group. */
    std::uint32_t capacity() const { return capacity_; }

    /** Groups ever carved from slabs (capacity planning statistic). */
    std::size_t
    allocatedGroups() const
    {
        return carveNext_.load(std::memory_order_relaxed);
    }

    /** Slab allocations performed (each covers kSlabGroups groups). */
    std::size_t
    slabCount() const
    {
        const std::uint32_t carved =
            carveNext_.load(std::memory_order_relaxed);
        return (carved + kSlabGroups - 1) / kSlabGroups;
    }

    /**
     * The group at slab-directory @p index. Valid for any index a
     * published tail word or free-stack entry names: both are written
     * after carve() installed the slab, with a release edge the
     * reader's acquire pairs with.
     */
    ThreadGroup *
    groupAt(std::uint32_t index) const
    {
        Slab *slab =
            slabs_[index / kSlabGroups].load(std::memory_order_acquire);
        return &slab->groups[index % kSlabGroups].group;
    }

  private:
    /** A group descriptor on its own cache line: neighbouring groups
     *  belong to different producers, whose claim/ready RMWs would
     *  otherwise false-share. */
    struct alignas(64) GroupSlot
    {
        ThreadGroup group;
    };

    /** One slab: group descriptors plus their shared spec storage. */
    struct Slab
    {
        std::unique_ptr<GroupSlot[]> groups;
        std::unique_ptr<ThreadSpec[]> specs;
    };

    /** Per-thread free list, keyed to one pool instance+generation. */
    struct TlCache
    {
        const void *owner = nullptr;
        std::uint64_t generation = 0;
        ThreadGroup *head = nullptr;
        unsigned cached = 0;
    };

    static TlCache &
    tlCache()
    {
        thread_local TlCache cache;
        return cache;
    }

    static std::uint64_t
    nextGeneration()
    {
        static std::atomic<std::uint64_t> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Pop one batch (a next-linked chain, its length in the head's
     *  count) off the tagged free stack; null when empty. */
    ThreadGroup *
    popGlobal()
    {
        std::uint64_t head = freeHead_.load(std::memory_order_acquire);
        for (;;) {
            const std::uint32_t slot =
                static_cast<std::uint32_t>(head);
            if (slot == 0)
                return nullptr;
            ThreadGroup *g = groupAt(slot - 1);
            const std::uint32_t next =
                g->freeNext.load(std::memory_order_relaxed);
            const std::uint64_t tagged =
                ((head >> 32) + 1) << 32 | next;
            // The tag in the high word forbids the ABA unlink: if g
            // was popped and re-pushed meanwhile, the tag moved and
            // this CAS fails even though the slot index matches.
            if (freeHead_.compare_exchange_weak(
                    head, tagged, std::memory_order_acq_rel,
                    std::memory_order_acquire))
                return g;
        }
    }

    void
    pushGlobal(ThreadGroup *g)
    {
        std::uint64_t head = freeHead_.load(std::memory_order_relaxed);
        for (;;) {
            g->freeNext.store(static_cast<std::uint32_t>(head),
                              std::memory_order_relaxed);
            const std::uint64_t tagged =
                ((head >> 32) + 1) << 32 | (g->poolIndex + 1);
            if (freeHead_.compare_exchange_weak(
                    head, tagged, std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return;
        }
    }

    /** Carve the next never-used group out of the slab directory. */
    ThreadGroup *
    carve()
    {
        const std::uint32_t index =
            carveNext_.fetch_add(1, std::memory_order_relaxed);
        if (index >= kMaxSlabs * kSlabGroups)
            throw std::bad_alloc();
        const std::uint32_t slabIndex = index / kSlabGroups;
        Slab *slab =
            slabs_[slabIndex].load(std::memory_order_acquire);
        if (!slab) {
            // Fail point standing in for a real out-of-memory from the
            // slab allocations below (same site name as the batch
            // pool, so existing chaos specs reach this path too).
            if (LSCHED_FAILPOINT_HIT("grouppool.allocate"))
                throw std::bad_alloc();
            auto fresh = std::make_unique<Slab>();
            fresh->groups = std::make_unique<GroupSlot[]>(kSlabGroups);
            fresh->specs = std::make_unique<ThreadSpec[]>(
                static_cast<std::size_t>(kSlabGroups) * capacity_);
            Slab *expected = nullptr;
            if (slabs_[slabIndex].compare_exchange_strong(
                    expected, fresh.get(), std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                slab = fresh.release();
            } else {
                slab = expected; // a racing carver installed it first
            }
        }
        ThreadGroup *g = &slab->groups[index % kSlabGroups].group;
        g->specs = slab->specs.get() +
                   static_cast<std::size_t>(index % kSlabGroups) *
                       capacity_;
        g->capacity = capacity_;
        g->poolIndex = index;
        return g;
    }

    const std::uint32_t capacity_;
    const std::uint64_t generation_;
    /** Tagged free-stack head: (ABA tag << 32) | (group index + 1). */
    std::atomic<std::uint64_t> freeHead_{0};
    std::atomic<std::uint32_t> carveNext_{0};
    /** Slab directory; slots install once via CAS and stay put. */
    std::unique_ptr<std::atomic<Slab *>[]> slabs_ =
        std::make_unique<std::atomic<Slab *>[]>(kMaxSlabs);
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_CONCURRENT_GROUP_POOL_HH
