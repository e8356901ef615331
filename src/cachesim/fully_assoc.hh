/**
 * @file
 * Fully-associative LRU line store.
 *
 * The shadow cache that drives single-run 3C miss classification (a
 * miss that would have hit a fully-associative cache of equal
 * capacity is a conflict miss, otherwise a capacity miss; see
 * classify.hh). A Cache configured with associativity = 0 does not
 * use it: such a cache is a single set whose numLines() ways are
 * scanned like any other set's.
 *
 * Implementation: a fixed vector of slots threaded into an intrusive
 * doubly-linked LRU list, found through an open-addressed table of
 * uint32_t slot numbers (linear probing, backward-shift deletion,
 * sized once to a power of two >= 2x capacity). Every operation is
 * O(1) expected, and nothing is allocated after construction.
 */

#ifndef LSCHED_CACHESIM_FULLY_ASSOC_HH
#define LSCHED_CACHESIM_FULLY_ASSOC_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/align.hh"
#include "support/panic.hh"

namespace lsched::cachesim
{

/** Fully-associative LRU set of line addresses with fixed capacity. */
class FullyAssocLru
{
  public:
    /** @param capacity maximum number of lines held (> 0). */
    explicit FullyAssocLru(std::uint64_t capacity)
        : capacity_(capacity)
    {
        LSCHED_ASSERT(capacity_ > 0, "fully-associative capacity is 0");
        LSCHED_ASSERT(capacity_ < (std::uint64_t{1} << 31),
                      "fully-associative capacity ", capacity_,
                      " exceeds the 32-bit slot index");
        slots_.resize(capacity_);
        const std::uint64_t buckets = roundUpPowerOfTwo(2 * capacity_);
        index_.assign(buckets, kNone);
        mask_ = buckets - 1;
        shift_ = 64 - floorLog2(buckets);
    }

    /**
     * Touch @p line: returns true on hit. On miss the line is inserted,
     * evicting the least-recently-used line when full. Either way the
     * line becomes most-recently-used.
     */
    bool
    access(std::uint64_t line)
    {
        const std::uint32_t s = find(line);
        if (s != kNone) {
            moveToFront(s);
            return true;
        }
        insert(line);
        return false;
    }

    /** Hit test without updating recency or inserting. */
    bool
    contains(std::uint64_t line) const
    {
        return find(line) != kNone;
    }

    /** Number of resident lines. */
    std::uint64_t size() const { return size_; }

    /** Maximum number of resident lines. */
    std::uint64_t capacity() const { return capacity_; }

    /** Drop all state. */
    void
    clear()
    {
        std::fill(index_.begin(), index_.end(), kNone);
        size_ = 0;
        head_ = kNone;
        tail_ = kNone;
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Slot
    {
        std::uint64_t line;
        std::uint32_t prev;
        std::uint32_t next;
    };

    /** First bucket of @p line's probe sequence (Fibonacci hashing). */
    std::uint64_t
    home(std::uint64_t line) const
    {
        return (line * 0x9e3779b97f4a7c15ull) >> shift_;
    }

    /** Slot holding @p line, or kNone. */
    std::uint32_t
    find(std::uint64_t line) const
    {
        for (std::uint64_t b = home(line);; b = (b + 1) & mask_) {
            const std::uint32_t s = index_[b];
            if (s == kNone || slots_[s].line == line)
                return s;
        }
    }

    /** Remove @p line's bucket, shifting later probes back into it. */
    void
    unindex(std::uint64_t line)
    {
        std::uint64_t hole = home(line);
        while (slots_[index_[hole]].line != line)
            hole = (hole + 1) & mask_;
        for (std::uint64_t b = (hole + 1) & mask_;; b = (b + 1) & mask_) {
            const std::uint32_t s = index_[b];
            if (s == kNone)
                break;
            // The entry at b may fill the hole only if the hole lies on
            // its probe path, i.e. strictly before b from its home.
            const std::uint64_t h = home(slots_[s].line);
            if (((hole - h) & mask_) < ((b - h) & mask_)) {
                index_[hole] = s;
                hole = b;
            }
        }
        index_[hole] = kNone;
    }

    void
    unlink(std::uint32_t s)
    {
        Slot &slot = slots_[s];
        if (slot.prev != kNone)
            slots_[slot.prev].next = slot.next;
        else
            head_ = slot.next;
        if (slot.next != kNone)
            slots_[slot.next].prev = slot.prev;
        else
            tail_ = slot.prev;
    }

    void
    linkFront(std::uint32_t s)
    {
        Slot &slot = slots_[s];
        slot.prev = kNone;
        slot.next = head_;
        if (head_ != kNone)
            slots_[head_].prev = s;
        head_ = s;
        if (tail_ == kNone)
            tail_ = s;
    }

    void
    moveToFront(std::uint32_t s)
    {
        if (head_ == s)
            return;
        unlink(s);
        linkFront(s);
    }

    void
    insert(std::uint64_t line)
    {
        std::uint32_t s;
        if (size_ == capacity_) {
            // Recycle the LRU victim's slot.
            s = tail_;
            unindex(slots_[s].line);
            unlink(s);
        } else {
            s = static_cast<std::uint32_t>(size_++);
        }
        slots_[s].line = line;
        linkFront(s);
        std::uint64_t b = home(line);
        while (index_[b] != kNone)
            b = (b + 1) & mask_;
        index_[b] = s;
    }

    std::uint64_t capacity_;
    std::uint64_t size_ = 0;
    std::vector<Slot> slots_;
    /** Open-addressed buckets holding slot numbers (kNone = empty). */
    std::vector<std::uint32_t> index_;
    std::uint64_t mask_;
    unsigned shift_;
    std::uint32_t head_ = kNone;
    std::uint32_t tail_ = kNone;
};

} // namespace lsched::cachesim

#endif // LSCHED_CACHESIM_FULLY_ASSOC_HH
