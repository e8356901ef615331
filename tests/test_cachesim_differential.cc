/**
 * @file Differential tests of the cache simulator against a
 * deliberately naive reference hierarchy.
 *
 * The reference keeps each set as a std::vector, the three-C shadow
 * as a std::list, and the lines ever seen as a std::set, and it
 * follows the documented semantics step by step with no fast path.
 * Hierarchy must agree with it on every counter, on seeded random and
 * strided streams of loads, stores and instruction fetches of 0-64
 * bytes (many of them spanning line boundaries), across
 * associativities, replacement and write policies, page maps and L1
 * classification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cachesim/fully_assoc.hh"
#include "cachesim/hierarchy.hh"
#include "cachesim/page_map.hh"
#include "cachesim_counts_check.hh"
#include "support/prng.hh"

namespace
{

using namespace lsched::cachesim;
using lsched::cachesim::countscheck::expectSameStats;
using lsched::Prng;

/** One cache level, written for obviousness rather than speed. */
class RefCache
{
  public:
    struct Outcome
    {
        bool miss = false;
        bool writeback = false;
        bool propagateWrite = false;
        std::uint64_t victimLine = 0;
    };

    RefCache(const CacheConfig &c, bool classify)
        : config_(c), ways_(c.ways()), sets_(c.numSets()),
          classify_(classify)
    {
        for (auto &set : sets_)
            set.resize(c.replacement == Replacement::Random ? ways_ : 0);
    }

    Outcome
    access(std::uint64_t line, bool is_write)
    {
        Outcome out;
        ++stats_.accesses;
        const bool write_through =
            config_.writePolicy == WritePolicy::WriteThroughNoAllocate;
        out.propagateWrite = write_through && is_write;
        const bool dirties = is_write && !write_through;
        const bool shadow_hit = shadowAccess(line);

        std::vector<std::optional<Entry>> &set = setOf(line);
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i] && set[i]->line == line) {
                Entry e = *set[i];
                e.dirty = e.dirty || dirties;
                if (config_.replacement == Replacement::Lru) {
                    set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
                    set.insert(set.begin(), e);
                } else {
                    set[i] = e;
                }
                return out;
            }
        }

        out.miss = true;
        ++stats_.misses;
        if (!(write_through && is_write))
            allocate(set, {line, dirties}, out);
        if (classify_) {
            if (seen_.insert(line).second)
                ++stats_.compulsoryMisses;
            else if (shadow_hit)
                ++stats_.conflictMisses;
            else
                ++stats_.capacityMisses;
        }
        return out;
    }

    void
    updateIfPresent(std::uint64_t line)
    {
        for (auto &e : setOf(line))
            if (e && e->line == line)
                e->dirty = true;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        std::uint64_t line;
        bool dirty;
    };

    std::vector<std::optional<Entry>> &
    setOf(std::uint64_t line)
    {
        return sets_[line % sets_.size()];
    }

    void
    allocate(std::vector<std::optional<Entry>> &set, Entry e, Outcome &out)
    {
        auto evict = [&](const std::optional<Entry> &victim) {
            if (victim && victim->dirty) {
                out.writeback = true;
                out.victimLine = victim->line;
                ++stats_.writebacks;
            }
        };
        if (config_.replacement == Replacement::Random) {
            // The simulator draws a victim on every allocating miss,
            // then prefers the first invalid way.
            std::size_t way = victimPrng_.nextBelow(ways_);
            for (std::size_t i = 0; i < set.size(); ++i) {
                if (!set[i]) {
                    way = i;
                    break;
                }
            }
            evict(set[way]);
            set[way] = e;
            return;
        }
        // LRU and FIFO: newest first, the oldest fill leaves.
        if (set.size() == ways_) {
            evict(set.back());
            set.pop_back();
        }
        set.insert(set.begin(), e);
    }

    /** Fully-associative LRU of equal capacity; true on a hit. */
    bool
    shadowAccess(std::uint64_t line)
    {
        if (!classify_)
            return false;
        const auto it = std::find(shadow_.begin(), shadow_.end(), line);
        const bool hit = it != shadow_.end();
        if (hit)
            shadow_.erase(it);
        shadow_.push_front(line);
        if (shadow_.size() > config_.numLines())
            shadow_.pop_back();
        return hit;
    }

    CacheConfig config_;
    std::size_t ways_;
    std::vector<std::vector<std::optional<Entry>>> sets_;
    bool classify_;
    std::list<std::uint64_t> shadow_;
    std::set<std::uint64_t> seen_;
    Prng victimPrng_{0xCACEull};
    CacheStats stats_;
};

/** Split L1 over a unified L2, as Hierarchy documents it. */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const HierarchyConfig &c)
        : l1i_(c.l1i, c.classifyL1), l1d_(c.l1d, c.classifyL1),
          l2_(c.l2, c.classifyL2),
          pageMap_(c.l2PageMap, c.pageBytes,
                   std::max<std::uint64_t>(
                       1, c.l2.numSets() * c.l2.lineBytes / c.pageBytes),
                   c.pageMapSeed),
          l1iLine_(c.l1i.lineBytes), l1dLine_(c.l1d.lineBytes),
          l2Line_(c.l2.lineBytes)
    {
    }

    void
    ifetch(std::uint64_t addr, std::uint64_t bytes)
    {
        ++ifetches_;
        reference(l1i_, l1iLine_, addr, bytes, false);
    }

    void
    load(std::uint64_t addr, std::uint64_t bytes)
    {
        ++dataRefs_;
        reference(l1d_, l1dLine_, addr, bytes, false);
    }

    void
    store(std::uint64_t addr, std::uint64_t bytes)
    {
        ++dataRefs_;
        reference(l1d_, l1dLine_, addr, bytes, true);
    }

    RefCache l1i_, l1d_, l2_;
    PageMap pageMap_;
    std::uint64_t ifetches_ = 0;
    std::uint64_t dataRefs_ = 0;

  private:
    std::uint64_t
    l2LineOf(std::uint64_t byte_addr)
    {
        return pageMap_.translate(byte_addr) / l2Line_;
    }

    void
    reference(RefCache &l1, std::uint64_t line_bytes, std::uint64_t addr,
              std::uint64_t bytes, bool is_write)
    {
        const std::uint64_t end = addr + std::max<std::uint64_t>(bytes, 1);
        for (std::uint64_t line = addr / line_bytes;
             line * line_bytes < end; ++line) {
            const RefCache::Outcome o = l1.access(line, is_write);
            if (o.propagateWrite)
                l2_.access(l2LineOf(line * line_bytes), true);
            else if (o.miss)
                l2_.access(l2LineOf(line * line_bytes), false);
            if (o.writeback)
                l2_.updateIfPresent(l2LineOf(o.victimLine * line_bytes));
        }
    }

    std::uint64_t l1iLine_, l1dLine_, l2Line_;
};

void
expectSame(const Hierarchy &h, const RefHierarchy &r)
{
    EXPECT_EQ(h.ifetches(), r.ifetches_);
    EXPECT_EQ(h.dataRefs(), r.dataRefs_);
    expectSameStats(h.l1iStats(), r.l1i_.stats(), "L1I");
    expectSameStats(h.l1dStats(), r.l1d_.stats(), "L1D");
    expectSameStats(h.l2Stats(), r.l2_.stats(), "L2");
}

/** Issue the same reference to both hierarchies. */
void
issue(Hierarchy &h, RefHierarchy &r, std::uint64_t kind,
      std::uint64_t addr, std::uint64_t bytes)
{
    if (kind == 0) {
        h.ifetch(addr, bytes);
        r.ifetch(addr, bytes);
    } else if (kind == 1) {
        h.store(addr, bytes);
        r.store(addr, bytes);
    } else {
        h.load(addr, bytes);
        r.load(addr, bytes);
    }
}

/** Kind: 0 = ifetch, 1 = store, otherwise load (10% / 30% / 60%). */
std::uint64_t
drawKind(Prng &prng)
{
    const std::uint64_t k = prng.nextBelow(10);
    return k == 0 ? 0 : (k < 4 ? 1 : 2);
}

/**
 * Random references: mostly a hot region that fits the L1, the rest
 * over eight times the L2, plus a few far addresses that spread the
 * classifier's seen-line pages over a wide address range.
 */
void
randomStream(Hierarchy &h, RefHierarchy &r, std::uint64_t seed,
             std::uint64_t l2_bytes, int refs)
{
    Prng prng(seed);
    for (int i = 0; i < refs; ++i) {
        const std::uint64_t where = prng.nextBelow(20);
        std::uint64_t addr;
        if (where < 11)
            addr = 0x40000 + prng.nextBelow(512);
        else if (where < 19)
            addr = prng.nextBelow(8 * l2_bytes);
        else
            addr = prng.nextBelow(std::uint64_t{1} << 40);
        issue(h, r, drawKind(prng), addr, prng.nextBelow(65));
    }
}

/**
 * Strided references: several interleaved streams, like the
 * dot-product's columns, with strides that land in the same sets.
 */
void
stridedStream(Hierarchy &h, RefHierarchy &r, std::uint64_t seed,
              std::uint64_t l2_bytes, int refs)
{
    Prng prng(seed);
    const std::uint64_t strides[] = {8, 24, 40, 64, l2_bytes / 4 + 8};
    std::uint64_t cursor[4];
    std::uint64_t stride[4];
    std::uint64_t width[4];
    for (int s = 0; s < 4; ++s) {
        cursor[s] = prng.nextBelow(4 * l2_bytes);
        stride[s] = strides[prng.nextBelow(5)];
        width[s] = 1 + prng.nextBelow(64);
    }
    for (int i = 0; i < refs; ++i) {
        const std::uint64_t s = prng.nextBelow(4);
        issue(h, r, drawKind(prng), cursor[s], width[s]);
        cursor[s] = (cursor[s] + stride[s]) % (16 * l2_bytes);
    }
}

struct DiffCase
{
    unsigned l1Assoc; // 0 = fully associative
    Replacement replacement;
};

std::string
caseName(const ::testing::TestParamInfo<DiffCase> &info)
{
    const char *const policy[] = {"Lru", "Fifo", "Random"};
    const DiffCase &c = info.param;
    return (c.l1Assoc ? std::to_string(c.l1Assoc) + "way"
                      : std::string("Full")) +
           policy[static_cast<int>(c.replacement)];
}

class CachesimDifferential : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(CachesimDifferential, EveryCounterMatchesNaiveReference)
{
    const DiffCase &dc = GetParam();
    const PageMapPolicy maps[] = {PageMapPolicy::Identity,
                                  PageMapPolicy::FirstTouch,
                                  PageMapPolicy::Random,
                                  PageMapPolicy::Colored};
    const WritePolicy writes[] = {WritePolicy::WriteBackAllocate,
                                  WritePolicy::WriteThroughNoAllocate};
    std::uint64_t seed = 1;
    for (const WritePolicy write : writes) {
        for (const PageMapPolicy map : maps) {
            for (const bool classify_l1 : {false, true}) {
                HierarchyConfig c;
                c.l1i = {"L1I", 1024, 32, dc.l1Assoc, dc.replacement,
                         write};
                c.l1d = c.l1i;
                c.l1d.name = "L1D";
                c.l2 = {"L2", 8192, 64, dc.l1Assoc ? 4u : 0u,
                        dc.replacement, write};
                c.classifyL1 = classify_l1;
                c.l2PageMap = map;
                c.pageBytes = 512;
                SCOPED_TRACE(::testing::Message()
                             << "write-through "
                             << (write == WritePolicy::WriteThroughNoAllocate)
                             << " page map " << static_cast<int>(map)
                             << " classifyL1 " << classify_l1);
                Hierarchy h(c);
                RefHierarchy r(c);
                randomStream(h, r, seed++, c.l2.sizeBytes, 6000);
                expectSame(h, r);
                stridedStream(h, r, seed++, c.l2.sizeBytes, 6000);
                expectSame(h, r);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CachesimDifferential,
    ::testing::Values(DiffCase{1, Replacement::Lru},
                      DiffCase{2, Replacement::Lru},
                      DiffCase{4, Replacement::Lru},
                      DiffCase{8, Replacement::Lru},
                      DiffCase{0, Replacement::Lru},
                      DiffCase{2, Replacement::Fifo},
                      DiffCase{4, Replacement::Fifo},
                      DiffCase{8, Replacement::Fifo},
                      DiffCase{0, Replacement::Fifo},
                      DiffCase{2, Replacement::Random},
                      DiffCase{4, Replacement::Random},
                      DiffCase{8, Replacement::Random},
                      DiffCase{0, Replacement::Random}),
    caseName);

/** The inverse of @p a modulo 2^64 (@p a odd), by Newton's method. */
std::uint64_t
inverseMod64(std::uint64_t a)
{
    std::uint64_t x = a; // correct to 3 bits; each step doubles that
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

/**
 * FullyAssocLru at capacity 1024 against a list-based LRU, on keys
 * built to collide: members of a cluster are spaced by the inverse of
 * the Fibonacci hashing multiplier, so they share a home bucket, and
 * neighbouring clusters' runs merge into long probe chains. With 1536
 * distinct keys, most misses evict, so backward-shift deletion runs
 * through those chains over and over.
 */
TEST(FullyAssocLruStress, ClusteredKeysMatchListReference)
{
    constexpr std::uint64_t kCapacity = 1024;
    const std::uint64_t spacing = inverseMod64(0x9e3779b97f4a7c15ull);
    ASSERT_EQ(spacing * 0x9e3779b97f4a7c15ull, 1u);
    FullyAssocLru lru(kCapacity);
    std::list<std::uint64_t> ref; // front = MRU
    Prng prng(77);
    std::vector<std::uint64_t> bases(32);
    for (auto &b : bases)
        b = prng.next();
    for (int step = 0; step < 200000; ++step) {
        // Mostly a drifting window of clusters, so hits, misses and
        // evictions all stay common.
        const std::uint64_t c =
            (static_cast<std::uint64_t>(step) / 4096 + prng.nextBelow(24)) %
            bases.size();
        const std::uint64_t key = bases[c] + prng.nextBelow(48) * spacing;
        const auto it = std::find(ref.begin(), ref.end(), key);
        const bool ref_hit = it != ref.end();
        if (ref_hit)
            ref.erase(it);
        ref.push_front(key);
        if (ref.size() > kCapacity)
            ref.pop_back();
        ASSERT_EQ(lru.access(key), ref_hit) << "step " << step;
        ASSERT_EQ(lru.size(), ref.size()) << "step " << step;
        if (step % 20000 == 19999) {
            for (const std::uint64_t k : ref)
                ASSERT_TRUE(lru.contains(k)) << "step " << step;
            ASSERT_FALSE(lru.contains(bases[c] + 48 * spacing));
        }
    }
    lru.clear();
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_FALSE(lru.contains(ref.front()));
    EXPECT_FALSE(lru.access(ref.front()));
}

} // namespace
