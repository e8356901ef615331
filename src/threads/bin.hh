/**
 * @file
 * The scheduling bin (paper Section 3.2): carries a search key (the
 * block coordinates, plus its cached hash for the open-addressing
 * table) and two links — the chain of thread groups scheduled into
 * the bin, and the ready-list link used for run-time traversal.
 *
 * A batch fork touches one cache line of the bin: the first holds the
 * hash, the append cursor into the tail group, the thread count, the
 * ready flag and the three leading coordinates (the paper's 3-D key).
 */

#ifndef LSCHED_THREADS_BIN_HH
#define LSCHED_THREADS_BIN_HH

#include <cstddef>
#include <cstdint>

#include "support/spin_lock.hh"
#include "threads/hints.hh"
#include "threads/thread_group.hh"

namespace lsched::threads
{

/** Super-bin id of bins placed by a non-hierarchical policy. */
constexpr std::uint32_t kNoSuperBin = 0xffffffffu;

/** One bin of the scheduling space. */
struct alignas(64) Bin
{
    /** Cached hash of coords (avoids re-mixing on probe and rehash). */
    std::uint64_t hashVal = 0;

    /**
     * Append cursor: [forkNext, forkEnd) is the unused tail of
     * groupsTail's spec array (both null before the first fork and
     * after clearGroups()). Forks write through it without touching
     * the group descriptor, so groupsTail->count lags until
     * publishTail() — which must run before anything walks the chain.
     */
    ThreadSpec *forkNext = nullptr;
    ThreadSpec *forkEnd = nullptr;

    /** Threads currently scheduled in this bin. */
    std::uint64_t threadCount = 0;

    /** True while the bin is linked on the ready list. */
    bool onReadyList = false;

    /** A stream producer's table only: guards the group chain (the
     *  cursor, the links and the counts) against a seal detaching it.
     *  Fits the padding before id. */
    SpinLock lock;

    /** Stable allocation index, used as the bin's trace identity. */
    std::uint32_t id = 0;

    /** Search key: block coordinates in the scheduling space (zero
     *  past the table's dims). */
    BlockCoords coords{};

    /** Link 1: chain of thread groups, in fork order. */
    ThreadGroup *groupsHead = nullptr;
    ThreadGroup *groupsTail = nullptr;

    /** Link 2: next bin on the ready list (allocation order). */
    Bin *readyNext = nullptr;

    /**
     * Second-level placement group (TopologyPlacement): bins of
     * one super-bin are toured contiguously and handed to a parallel
     * worker as a unit. kNoSuperBin under flat placements.
     */
    std::uint32_t superBin = kNoSuperBin;

    /** A stream producer's table only: the seals this bin led (gave
     *  their first chain) and the threads sealed out of it. */
    std::uint32_t sealEpochs = 0;
    std::uint64_t sealedThreads = 0;

    /** Schedule one thread at the append cursor; a full (or absent)
     *  tail group gets a fresh group from @p pool. */
    [[gnu::always_inline]] void
    append(GroupPool &pool, ThreadFn fn, void *arg1, void *arg2)
    {
        if (forkNext == forkEnd) [[unlikely]]
            openTailGroup(pool);
        *forkNext++ = {fn, arg1, arg2};
        ++threadCount;
    }

    /** Chain a fresh group after the full (or absent) tail and point
     *  the cursor at it; publishes the old tail's count. */
    [[gnu::noinline]] void
    openTailGroup(GroupPool &pool)
    {
        ThreadGroup *group = pool.allocate();
        if (groupsTail) {
            publishTail();
            groupsTail->next = group;
        } else {
            groupsHead = group;
        }
        groupsTail = group;
        forkNext = group->specs;
        forkEnd = group->specs + group->capacity;
    }

    /** Write the cursor back into the tail group's count, so a
     *  GroupCursor sees every thread forked so far. */
    void
    publishTail()
    {
        if (groupsTail) {
            groupsTail->count =
                static_cast<std::uint32_t>(forkNext - groupsTail->specs);
        }
    }

    /**
     * Move @p from's whole group chain behind this bin's, with its
     * thread count and append cursor, and leave @p from empty: the one
     * concatenation a stream seal and forkParallel()'s merge share.
     * Both tails' counts must be current (publishTail()); the groups
     * keep their owner pools.
     */
    void
    takeChain(Bin &from)
    {
        if (!from.groupsHead)
            return;
        if (groupsTail)
            groupsTail->next = from.groupsHead;
        else
            groupsHead = from.groupsHead;
        groupsTail = from.groupsTail;
        forkNext = from.forkNext;
        forkEnd = from.forkEnd;
        threadCount += from.threadCount;
        from.clearGroups();
    }

    /** Detach all thread groups (they go back to the pool). */
    void
    clearGroups()
    {
        groupsHead = nullptr;
        groupsTail = nullptr;
        forkNext = nullptr;
        forkEnd = nullptr;
        threadCount = 0;
    }
};

static_assert(offsetof(Bin, coords) + 3 * sizeof(std::uint64_t) <= 64,
              "a batch fork must find everything it touches in the "
              "bin's first cache line");

} // namespace lsched::threads

#endif // LSCHED_THREADS_BIN_HH
