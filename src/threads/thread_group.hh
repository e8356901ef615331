/**
 * @file
 * Thread groups: chunked storage for thread specifications.
 *
 * Grouping threads in fixed-capacity arrays amortizes management cost
 * (paper Section 3.2): forking is usually a pointer bump into the
 * current group. Group objects come from slab-backed storage — one
 * allocation covers kSlabGroups descriptors and their spec arrays —
 * and recycle through an intrusive free list between runs, so steady
 * state forking performs no allocation and a cold burst performs two
 * per slab rather than two per group.
 */

#ifndef LSCHED_THREADS_THREAD_GROUP_HH
#define LSCHED_THREADS_THREAD_GROUP_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/failpoint.hh"
#include "support/panic.hh"
#include "threads/thread.hh"

namespace lsched::threads
{

class GroupPool;

/** A chunk of thread specifications chained within one bin. */
struct ThreadGroup
{
    /** Chunk storage; points into the owning pool's slab. */
    ThreadSpec *specs = nullptr;
    /** The pool that carved the group, where giveBack() returns it. */
    GroupPool *owner = nullptr;
    /** Capacity of specs. */
    std::uint32_t capacity = 0;
    /** Number of live specs. */
    std::uint32_t count = 0;
    /** Next group in the same bin (fork order). */
    ThreadGroup *next = nullptr;

    /** True when no further spec fits. */
    bool full() const { return count == capacity; }

    /** Append a spec; the group must not be full. */
    void
    push(ThreadFn fn, void *arg1, void *arg2)
    {
        specs[count++] = {fn, arg1, arg2};
    }
};

/**
 * Allocator/recycler for ThreadGroups. Fresh groups are carved from
 * slabs (stable addresses, two allocations per kSlabGroups groups);
 * recycled groups come off an intrusive free list in constant time,
 * in carving order again after a rewind().
 *
 * One thread owns the pool (allocate, recycleChain, rewind). A pool built
 * with a return stack also takes groups back from other threads
 * through giveBack(): a stream drain returns a sealed chain's groups
 * to the producers that carved them this way. The stack is a
 * lock-free head the owner of the pool places (on a cache line of its
 * own), and allocate() takes it whole with one exchange once the free
 * list runs dry.
 */
class GroupPool
{
  public:
    /** Groups carved per slab allocation. */
    static constexpr std::uint32_t kSlabGroups = 16;

    /**
     * @param capacity threads per group (> 0).
     * @param returns head of the return stack, or nullptr when no
     *        other thread gives groups back; must outlive the pool.
     */
    explicit GroupPool(std::uint32_t capacity,
                       std::atomic<ThreadGroup *> *returns = nullptr)
        : capacity_(capacity), returns_(returns)
    {
        LSCHED_ASSERT(capacity_ > 0, "group capacity must be positive");
    }

    /** Obtain an empty group (recycled when possible). */
    ThreadGroup *
    allocate()
    {
        if (!free_ && returns_ &&
            returns_->load(std::memory_order_relaxed))
            free_ = returns_->exchange(nullptr, std::memory_order_acquire);
        ThreadGroup *g;
        if (free_) {
            g = free_;
            free_ = g->next;
        } else {
            g = carve();
        }
        g->count = 0;
        g->next = nullptr;
        return g;
    }

    /**
     * Return a whole bin chain of groups to the free lists of the
     * pools that carved them (ThreadGroup::owner): a batch bin's chain
     * may hold groups of several pools once forkParallel() merged
     * worker shards into it. The caller must own every pool involved.
     */
    static void
    recycleChain(ThreadGroup *head)
    {
        while (head) {
            ThreadGroup *next = head->next;
            GroupPool &owner = *head->owner;
            head->count = 0;
            head->next = owner.free_;
            owner.free_ = head;
            ++owner.recycled_;
            head = next;
        }
    }

    /**
     * Relink every carved group onto the free list in carving (slab,
     * index) order, so the next forks fill groups at ascending
     * addresses, a stream the hardware prefetcher follows, instead of
     * recycleChain()'s reverse tour order. Only for an owner that
     * knows every carved group is back on the free list (none is
     * chained in a bin, none sits on the return stack).
     *
     * The walk costs one store per carved group, so it waits until as
     * many groups have been recycled since the last rewind as the
     * pool has carved: a run of a few threads after a large batch
     * leaves the list as it is (only the few groups it used are out
     * of order) instead of walking every group the batch carved.
     */
    void
    rewind()
    {
        if (recycled_ < handedOut_)
            return;
        recycled_ = 0;
        ThreadGroup **link = &free_;
        for (Slab &slab : slabs_) {
            const std::uint32_t used =
                &slab == &slabs_.back() ? slabUsed_ : kSlabGroups;
            for (std::uint32_t i = 0; i < used; ++i) {
                *link = &slab.groups[i];
                link = &slab.groups[i].next;
            }
        }
        *link = nullptr;
    }

    /**
     * Return every group of the next-linked chain @p head to the pool
     * that carved it, from any thread: one giveBack() per run of
     * groups with the same owner.
     */
    static void
    giveBackChain(ThreadGroup *head)
    {
        while (head) {
            ThreadGroup *last = head;
            while (last->next && last->next->owner == head->owner)
                last = last->next;
            ThreadGroup *rest = last->next;
            head->owner->giveBack(head, last);
            head = rest;
        }
    }

    /** Push the run @p first .. @p last (linked by next) onto the
     *  return stack; safe from any thread. */
    void
    giveBack(ThreadGroup *first, ThreadGroup *last)
    {
        LSCHED_ASSERT(returns_, "giveBack() on a pool without a return "
                                "stack");
        ThreadGroup *top = returns_->load(std::memory_order_relaxed);
        do {
            last->next = top;
        } while (!returns_->compare_exchange_weak(
            top, first, std::memory_order_release,
            std::memory_order_relaxed));
    }

    /** Threads per group. */
    std::uint32_t capacity() const { return capacity_; }

    /** Groups ever handed out (capacity planning statistic). */
    std::size_t allocatedGroups() const { return handedOut_; }

    /** Slab allocations performed (each covers kSlabGroups groups). */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    /** One slab: group descriptors plus their shared spec storage. */
    struct Slab
    {
        std::unique_ptr<ThreadGroup[]> groups;
        std::unique_ptr<ThreadSpec[]> specs;
    };

    /** Hand out the next never-used group, growing by a slab. */
    ThreadGroup *
    carve()
    {
        if (slabUsed_ == kSlabGroups) {
            // Fail point standing in for a real out-of-memory from the
            // slab allocations below.
            if (LSCHED_FAILPOINT_HIT("grouppool.allocate"))
                throw std::bad_alloc();
            Slab slab;
            slab.groups = std::make_unique<ThreadGroup[]>(kSlabGroups);
            slab.specs = std::make_unique<ThreadSpec[]>(
                static_cast<std::size_t>(kSlabGroups) * capacity_);
            slabs_.push_back(std::move(slab));
            slabUsed_ = 0;
        }
        Slab &slab = slabs_.back();
        ThreadGroup *g = &slab.groups[slabUsed_];
        g->specs = slab.specs.get() +
                   static_cast<std::size_t>(slabUsed_) * capacity_;
        g->owner = this;
        g->capacity = capacity_;
        ++slabUsed_;
        ++handedOut_;
        return g;
    }

    std::uint32_t capacity_;
    std::atomic<ThreadGroup *> *returns_;
    /** Groups carved from the current (last) slab; == kSlabGroups
     *  forces a new slab on the next carve. */
    std::uint32_t slabUsed_ = kSlabGroups;
    std::vector<Slab> slabs_;
    ThreadGroup *free_ = nullptr;
    std::size_t handedOut_ = 0;
    /** Groups recycleChain() took back since the last rewind. */
    std::size_t recycled_ = 0;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_THREAD_GROUP_HH
