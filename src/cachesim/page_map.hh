/**
 * @file
 * Virtual-to-physical page mapping for physically-indexed caches.
 *
 * The paper's Section 2.2 notes that "second-level caches are often
 * physically indexed, while the addresses associated with the threads
 * are virtual", and that "the virtual-to-physical memory mapping ...
 * can significantly affect second-level cache behavior" (citing
 * Bershad et al. and Kessler & Hill). This mapper lets the hierarchy
 * index the L2 by simulated physical addresses under several mapping
 * policies so that effect can be measured (bench/ablation_physical).
 */

#ifndef LSCHED_CACHESIM_PAGE_MAP_HH
#define LSCHED_CACHESIM_PAGE_MAP_HH

#include <cstdint>
#include <unordered_map>

#include "support/align.hh"
#include "support/panic.hh"
#include "support/prng.hh"

namespace lsched::cachesim
{

/** How virtual pages map to physical frames. */
enum class PageMapPolicy : std::uint8_t
{
    /** Physical == virtual (the default; virtually-indexed model). */
    Identity,
    /**
     * First-touch sequential frame allocation — what a freshly booted
     * OS gives a single process; preserves locality across pages but
     * permutes cache colours.
     */
    FirstTouch,
    /**
     * Deterministic pseudo-random frames — a fragmented machine;
     * the worst case for page-colouring assumptions.
     */
    Random,
    /**
     * Page colouring (Kessler & Hill): frames are chosen first-touch
     * but constrained to preserve the virtual page's cache colour —
     * what a colouring OS gives you; physical indexing then behaves
     * like virtual indexing.
     */
    Colored,
};

/** Lazily populated virtual-to-physical page table. */
class PageMap
{
  public:
    /**
     * @param policy mapping policy.
     * @param page_bytes page size (power of two).
     * @param colors number of cache colours (cache sets *
     *        line / page, power of two); used by Colored.
     * @param seed randomness seed for Random.
     */
    explicit PageMap(PageMapPolicy policy = PageMapPolicy::Identity,
                     std::uint64_t page_bytes = 4096,
                     std::uint64_t colors = 1,
                     std::uint64_t seed = 0x9a9e)
        : policy_(policy), pageBytes_(page_bytes), colors_(colors),
          seed_(seed), prng_(seed)
    {
        LSCHED_ASSERT(isPowerOfTwo(page_bytes),
                      "page size must be a power of two");
        LSCHED_ASSERT(colors_ > 0 && isPowerOfTwo(colors_),
                      "colour count must be a positive power of two");
        pageShift_ = floorLog2(page_bytes);
    }

    /** Translate a virtual byte address to a physical byte address. */
    std::uint64_t
    translate(std::uint64_t vaddr)
    {
        if (policy_ == PageMapPolicy::Identity)
            return vaddr;
        const std::uint64_t vpage = vaddr >> pageShift_;
        const std::uint64_t offset = vaddr & (pageBytes_ - 1);
        auto it = table_.find(vpage);
        if (it == table_.end())
            it = table_.emplace(vpage, allocateFrame(vpage)).first;
        return (it->second << pageShift_) | offset;
    }

    /** Pages mapped so far. */
    std::size_t mappedPages() const { return table_.size(); }

    /** The policy in force. */
    PageMapPolicy policy() const { return policy_; }

    /** Drop all translations and reseed (fresh address space). */
    void
    clear()
    {
        table_.clear();
        nextFrame_ = 0;
        prng_ = Prng(seed_);
    }

  private:
    std::uint64_t
    allocateFrame(std::uint64_t vpage)
    {
        switch (policy_) {
          case PageMapPolicy::Identity:
            return vpage;
          case PageMapPolicy::FirstTouch:
            return nextFrame_++;
          case PageMapPolicy::Random:
            // Large sparse frame space; collisions are harmless for
            // indexing purposes (no inverse mapping is kept).
            return prng_.nextBelow(1ull << 24);
          case PageMapPolicy::Colored: {
            // Advance to the next frame whose colour matches the
            // virtual page's colour.
            const std::uint64_t colour = vpage & (colors_ - 1);
            std::uint64_t frame = nextFrame_;
            while ((frame & (colors_ - 1)) != colour)
                ++frame;
            nextFrame_ = frame + 1;
            return frame;
          }
        }
        return vpage;
    }

    PageMapPolicy policy_;
    std::uint64_t pageBytes_;
    std::uint64_t colors_;
    unsigned pageShift_ = 12;
    std::uint64_t seed_;
    Prng prng_;
    std::unordered_map<std::uint64_t, std::uint64_t> table_;
    std::uint64_t nextFrame_ = 0;
};

} // namespace lsched::cachesim

#endif // LSCHED_CACHESIM_PAGE_MAP_HH
