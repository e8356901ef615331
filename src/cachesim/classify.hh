/**
 * @file
 * Single-run compulsory / capacity / conflict miss classification.
 *
 * The paper's authors modified DineroIII "to classify misses as
 * compulsory, capacity, or conflict in a single run"; this is that
 * classifier, following Hill's three-C model:
 *
 *   - compulsory: the line has never been referenced before;
 *   - capacity:   the reference would also miss in a fully-associative
 *                 LRU cache of the same capacity;
 *   - conflict:   the reference misses only because of limited
 *                 associativity (the fully-associative shadow hits).
 *
 * The shadow cache must observe *every* access (hits included) so its
 * LRU stack stays faithful.
 */

#ifndef LSCHED_CACHESIM_CLASSIFY_HH
#define LSCHED_CACHESIM_CLASSIFY_HH

#include <cstdint>
#include <vector>

#include "cachesim/fully_assoc.hh"

namespace lsched::cachesim
{

/** Kind of cache miss under the three-C model. */
enum class MissKind : std::uint8_t
{
    Compulsory,
    Capacity,
    Conflict,
};

/**
 * The set of line addresses ever referenced, as one 512-byte bitmap
 * per page of 4096 consecutive lines. An open-addressed index maps a
 * page number to its bitmap, and the last page used is cached so runs
 * of nearby lines skip the index. Streams of real addresses touch few
 * pages, so this stays far smaller than a hash set of lines.
 */
class SeenLines
{
  public:
    /** Record @p line; true if it had never been seen before. */
    bool
    insert(std::uint64_t line)
    {
        const std::uint64_t page = line >> kPageShift;
        if (page != lastPage_) {
            lastPage_ = page;
            lastBase_ = bitmapOf(page);
        }
        std::uint64_t &word =
            bits_[lastBase_ + ((line >> 6) & (kWordsPerPage - 1))];
        const std::uint64_t bit = std::uint64_t{1} << (line & 63);
        const bool fresh = (word & bit) == 0;
        word |= bit;
        return fresh;
    }

    /** Forget every line. */
    void
    clear()
    {
        pages_.clear();
        bits_.clear();
        index_.clear();
        lastPage_ = kNoPage;
    }

  private:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::uint64_t kWordsPerPage =
        (std::uint64_t{1} << kPageShift) / 64;
    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    std::uint64_t
    home(std::uint64_t page) const
    {
        return (page * 0x9e3779b97f4a7c15ull) >> (64 - indexBits_);
    }

    /** Offset in bits_ of @p page's bitmap, adding a zeroed one. */
    std::uint64_t
    bitmapOf(std::uint64_t page)
    {
        if (2 * (pages_.size() + 1) > index_.size())
            grow();
        const std::uint64_t mask = index_.size() - 1;
        std::uint64_t b = home(page);
        for (; index_[b] != kEmpty; b = (b + 1) & mask)
            if (pages_[index_[b]] == page)
                return index_[b] * kWordsPerPage;
        index_[b] = static_cast<std::uint32_t>(pages_.size());
        pages_.push_back(page);
        bits_.resize(bits_.size() + kWordsPerPage, 0);
        return index_[b] * kWordsPerPage;
    }

    /** Double the index, keeping it at most half full, and rehash. */
    void
    grow()
    {
        indexBits_ = index_.empty() ? 4 : indexBits_ + 1;
        index_.assign(std::uint64_t{1} << indexBits_, kEmpty);
        const std::uint64_t mask = index_.size() - 1;
        for (std::uint32_t i = 0; i < pages_.size(); ++i) {
            std::uint64_t b = home(pages_[i]);
            while (index_[b] != kEmpty)
                b = (b + 1) & mask;
            index_[b] = i;
        }
    }

    /** Page number of each bitmap, in creation order. */
    std::vector<std::uint64_t> pages_;
    /** The bitmaps, kWordsPerPage words each, in creation order. */
    std::vector<std::uint64_t> bits_;
    /** Open-addressed buckets holding bitmap numbers. */
    std::vector<std::uint32_t> index_;
    unsigned indexBits_ = 0;
    std::uint64_t lastPage_ = kNoPage;
    std::uint64_t lastBase_ = 0;
};

/** Tracks the shadow state needed to label each miss. */
class MissClassifier
{
  public:
    /** @param capacity_lines line capacity of the cache being shadowed. */
    explicit MissClassifier(std::uint64_t capacity_lines)
        : shadow_(capacity_lines)
    {
    }

    /**
     * Observe one access to @p line and, when @p missed, return its
     * classification. Must be called for hits too (result is
     * meaningless then) so the shadow LRU stack stays in sync.
     */
    MissKind
    observe(std::uint64_t line, bool missed)
    {
        const bool shadow_hit = shadow_.access(line);
        if (!missed)
            return MissKind::Compulsory; // ignored by caller
        if (everSeen_.insert(line))
            return MissKind::Compulsory;
        return shadow_hit ? MissKind::Conflict : MissKind::Capacity;
    }

    /** Forget all history. */
    void
    clear()
    {
        shadow_.clear();
        everSeen_.clear();
    }

  private:
    FullyAssocLru shadow_;
    SeenLines everSeen_;
};

} // namespace lsched::cachesim

#endif // LSCHED_CACHESIM_CLASSIFY_HH
